"""Per-layer tracing of the package, installed from outside it.

The package's modules import each other's functions by name (``from .weyl
import double_cosets``), so a wrapper has to replace every reference a calling
module holds: module attributes, class attributes, values of module-level
dicts (the CLI's engine table) and default arguments (``product=multiply``).
``install`` does that for the entry points listed below.

A span wrapper adds its call's self time (its duration minus the time of the
spans it calls) to its layer metric.  Per-call spans would number in the
millions on the verify suites, so they are folded into per-metric totals in
memory; the operations the benchmark times are kept as spans, each with the
self time its layers spent inside it, and written out at the end.
"""

import contextlib
import functools
import importlib
import os
import time
import types
from collections import Counter

PACKAGE = "affine_schur"
MODULES = (
    "laurent", "weyl", "schur", "dual", "tensor", "homs", "semigroup",
    "looplie", "transfer", "verify", "expr", "cache", "cli",
)

# (module, attribute, metric stem): the self time goes to <stem>_s and the
# number of calls to <stem>_calls.
SPANS = (
    ("laurent", "Laurent.__mul__", "laurent.mul"),
    ("weyl", "double_cosets", "weyl.double_cosets"),
    ("weyl", "meet", "weyl.meet"),
    ("schur", "canonicalize", "schur.canonicalize"),
    ("schur", "structure_constants", "schur.structure_constants"),
    ("schur", "multiply", "schur.multiply"),
    ("dual", "multiply_schur_oracle", "dual.multiply"),
    ("dual", "compose_maps", "dual.compose_maps"),
    ("tensor", "multiply_via_action", "tensor.multiply"),
    ("tensor", "act", "tensor.act"),
    ("transfer", "transfer", "transfer.transfer"),
    ("transfer", "affine_mackey_window", "transfer.affine_mackey_window"),
    ("homs", "psi_as", "homs.psi_as"),
    ("homs", "det_tilde_sharp", "homs.det_tilde_sharp"),
    ("semigroup", "det_tilde", "semigroup.det_tilde"),
    ("semigroup", "matrix_mul", "semigroup.matrix_mul"),
    ("semigroup", "evaluate", "semigroup.evaluate"),
    ("looplie", "decompose_y", "looplie.decompose_y"),
    ("looplie", "pi_tilde", "looplie.pi_tilde"),
    ("looplie", "lie_bracket_check", "looplie.lie_bracket_check"),
    ("expr", "parse", "expr.parse"),
    ("expr", "evaluate", "expr.evaluate"),
    ("verify", "run_suite", "verify.run_suite"),
    ("cache", "StructureConstantCache._load", "cache.load"),
    ("cache", "StructureConstantCache.put", "cache.put"),
    ("cli", "_spot_check_cache", "cli.spot_check_cache"),
    ("cli", "main", "cli.main"),
)

# (module, attribute, metric): calls counted without a span.
CALL_COUNTS = (
    ("laurent", "Laurent.__add__", "laurent.add_calls"),
    ("homs", "collapse_index", "homs.collapse_index_calls"),
    ("schur", "AlgebraElement.__init__", "schur.element_inits"),
)

# all_perms is counted only where the oracles and the transfer calculus
# enumerate whole symmetric groups; weyl itself is listed so that imports made
# inside functions (``from .weyl import all_perms``) see the wrapper too.
PERM_MODULES = ("weyl", "dual", "tensor", "transfer", "semigroup")

# Every per-layer metric the traced run reports, with its unit.
PER_LAYER = (
    ("laurent.mul_calls", "count"),
    ("laurent.mul_s", "s"),
    ("laurent.add_calls", "count"),
    ("weyl.double_cosets_calls", "count"),
    ("weyl.double_cosets_misses", "count"),
    ("weyl.double_cosets_s", "s"),
    ("weyl.young_subgroup_elements", "count"),
    ("weyl.meet_calls", "count"),
    ("weyl.meet_s", "s"),
    ("weyl.perms_enumerated", "count"),
    ("schur.canonicalize_calls", "count"),
    ("schur.canonicalize_s", "s"),
    ("schur.structure_constants_calls", "count"),
    ("schur.structure_constants_s", "s"),
    ("schur.multiply_s", "s"),
    ("schur.element_inits", "count"),
    ("dual.multiply_s", "s"),
    ("dual.compose_maps_s", "s"),
    ("tensor.multiply_s", "s"),
    ("tensor.act_s", "s"),
    ("transfer.transfer_s", "s"),
    ("transfer.affine_mackey_window_s", "s"),
    ("homs.psi_as_s", "s"),
    ("homs.collapse_index_calls", "count"),
    ("homs.det_tilde_sharp_s", "s"),
    ("semigroup.det_tilde_s", "s"),
    ("semigroup.matrix_mul_s", "s"),
    ("semigroup.evaluate_s", "s"),
    ("looplie.decompose_y_s", "s"),
    ("looplie.pi_tilde_s", "s"),
    ("looplie.lie_bracket_check_s", "s"),
    ("verify.run_suite_s", "s"),
    ("expr.parse_s", "s"),
    ("expr.evaluate_s", "s"),
    ("cli.import_s", "s"),
    ("cli.main_s", "s"),
    ("cli.spot_check_cache_s", "s"),
    ("cache.records_loaded", "count"),
    ("cache.records_written", "count"),
    ("cache.bytes", "bytes"),
    ("cache.load_s", "s"),
    ("cache.put_s", "s"),
)


def _resolve(owner, dotted):
    """The attribute at a dotted path, or None when the program no longer has it."""
    for part in dotted.split("."):
        owner = getattr(owner, part, None)
    return owner


def _swap_defaults(fn, orig, new):
    if fn.__defaults__ and any(d is orig for d in fn.__defaults__):
        fn.__defaults__ = tuple(new if d is orig else d for d in fn.__defaults__)


def _rebind(modules, orig, new):
    """Point every reference to `orig` held by `modules` at `new`."""
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if name.startswith("__"):
                continue
            if value is orig:
                setattr(mod, name, new)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is orig:
                        value[key] = new
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, item in list(vars(value).items()):
                    if item is orig:
                        setattr(value, attr, new)
                    elif isinstance(item, types.FunctionType):
                        _swap_defaults(item, orig, new)
            elif isinstance(value, types.FunctionType):
                _swap_defaults(value, orig, new)


class Tracer:
    """Folds spans and counts into per-metric totals; keeps operation spans."""

    def __init__(self):
        self.totals = Counter()
        self.ops = []
        self._stack = []
        self._cache_paths = set()
        self._double_cosets = None
        self.missing = []

    def install(self):
        """Wrap every entry point; one the program lacks is listed in `missing`."""
        mods = {name: importlib.import_module("%s.%s" % (PACKAGE, name)) for name in MODULES}
        everything = list(mods.values()) + [importlib.import_module(PACKAGE)]
        weyl, cache_cls = mods["weyl"], mods["cache"].StructureConstantCache
        hooks = [(mods[m], attr, everything, functools.partial(self._span, stem))
                 for m, attr, stem in SPANS]
        hooks += [(mods[m], attr, everything, functools.partial(self._counted, metric))
                  for m, attr, metric in CALL_COUNTS]
        hooks += [
            (weyl, "all_perms", [mods[m] for m in PERM_MODULES],
             functools.partial(self._counted_len, "weyl.perms_enumerated")),
            (weyl, "young_subgroup", everything, self._young_counter),
            (cache_cls, "_load", [mods["cache"]], self._after_load),
            (cache_cls, "put", [mods["cache"]], self._before_put),
        ]
        self._double_cosets = weyl.double_cosets
        for owner, attr, scope, make in hooks:
            orig = _resolve(owner, attr)
            if orig is None:
                self.missing.append("%s.%s" % (getattr(owner, "__name__", owner), attr))
                continue
            _rebind(scope, orig, make(orig))

    def _span(self, stem, fn):
        totals, stack, clock = self.totals, self._stack, time.perf_counter
        calls, self_s = stem + "_calls", stem + "_s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = clock() - start
                inner = stack.pop()
                totals[calls] += 1
                totals[self_s] += spent - inner
                if stack:
                    stack[-1] += spent

        return wrapper

    def _counted(self, metric, fn):
        totals = self.totals

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            totals[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counted_len(self, metric, fn):
        totals = self.totals

        @functools.wraps(fn)
        def wrapper(*args):
            out = fn(*args)
            totals[metric] += len(out)
            return out

        return wrapper

    def _young_counter(self, fn):
        totals = self.totals

        if not hasattr(fn, "cache_info"):
            return self._counted_len("weyl.young_subgroup_elements", fn)

        @functools.wraps(fn)
        def wrapper(partition):
            before = fn.cache_info().misses
            out = fn(partition)
            if fn.cache_info().misses != before:
                totals["weyl.young_subgroup_elements"] += len(out)
            return out

        return wrapper

    def _after_load(self, load):
        totals, paths = self.totals, self._cache_paths

        @functools.wraps(load)
        def wrapper(store):
            out = load(store)
            paths.add(store.path)
            totals["cache.records_loaded"] += len(store.table)
            return out

        return wrapper

    def _before_put(self, put):
        totals = self.totals

        @functools.wraps(put)
        def wrapper(store, key, value):
            if key not in store.table:
                totals["cache.records_written"] += 1
            return put(store, key, value)

        return wrapper

    def metrics(self):
        """Current totals of every per-layer metric, zero where a layer was not reached."""
        out = {name: self.totals.get(name, 0) for name, _ in PER_LAYER}
        if hasattr(self._double_cosets, "cache_info"):
            out["weyl.double_cosets_misses"] = self._double_cosets.cache_info().misses
        out["cache.bytes"] = sum(
            os.path.getsize(p) for p in self._cache_paths if os.path.exists(p)
        )
        return out

    @contextlib.contextmanager
    def op(self, name):
        """Record one timed operation as a span, with the self time of each layer inside it."""
        before = {k: v for k, v in self.totals.items() if k.endswith("_s")}
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            layers = {k: v - before.get(k, 0.0) for k, v in self.totals.items()
                      if k.endswith("_s") and v > before.get(k, 0.0)}
            self.ops.append({"name": name, "start": start, "end": end, "self_s": layers})
