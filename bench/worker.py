"""One round of a workload in a fresh process, so every memo starts empty.

    python3 bench/worker.py WORKLOAD SEED [--setup-only] [--check] [--trace FILE]
                            [--work DIR]

After set-up (import, input generation, warm-up) the worker prints ``ready``;
the parent's clock between starting the process and reading that line is one
``setup_s`` sample.  Unless ``--setup-only`` is given it then runs one timed
round and prints one JSON line: the time of every operation, a digest of the
outputs, the per-layer totals when traced, and, with ``--check``, the result
of checking every output after the timing.
"""

import argparse
import contextlib
import functools
import hashlib
import json
import os
import sys
import time

import inputs
import symfunc
from calibrate import ScaledClock

SUITE_ORDER = (
    "oracle-equivalence",
    "ring-axioms",
    "hom-laws",
    "semigroup-laws",
    "mackey",
    "lie",
    "generators",
)
CAP_FAULT = "double coset enumeration is capped at r=8"


def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _terms(element):
    """An element's terms as {label: str(coefficient)}, for the output digest."""
    return {pairs: str(c) for pairs, c in sorted(element.terms.items())}


def _int_terms(element):
    """An element's terms as {label: int}, or None if a coefficient is not an integer."""
    out = {}
    for pairs, c in element.terms.items():
        if not c.is_constant() or c.constant_value().denominator != 1:
            return None
        out[pairs] = int(c.constant_value())
    return out


class Round:
    def __init__(self, tracer):
        self.tracer = tracer
        self.clock = ScaledClock()
        self.ops = []
        self.failures = []

    def timed(self, name, fn, *args):
        """Run one operation; returns (ok, value or exception).

        A failing operation is recorded, not raised: the benchmark counts it,
        and the caller decides whether the failure was expected.
        """
        self.clock.tick()
        span = self.tracer.op(name) if self.tracer else contextlib.nullcontext()
        with span:
            start = time.perf_counter()
            try:
                value, ok = fn(*args), True
            except Exception as ex:  # noqa: BLE001  (counted as a failed operation)
                value, ok = ex, False
            end = time.perf_counter()
        op = {"name": name, "seconds": end - start, "ok": ok, "span": (start, end)}
        if not ok:
            op["error"] = "%s: %s" % (type(value).__name__, value)
        self.ops.append(op)
        return ok, value

    def finish(self):
        """Calibrate once more and scale every operation's time."""
        self.clock.tick(force=True)
        for op in self.ops:
            op["scaled"] = op["seconds"] * self.clock.factor(*op.pop("span"))

    def check(self, passed, what):
        if not passed:
            self.failures.append(what)


# -- products-cold -----------------------------------------------------------

def setup_products(seed):
    from affine_schur import AlgebraElement, multiply

    def element(n, r, label):
        return AlgebraElement(n, r, {label: 1})

    cases = []
    for kind, pairs in (
        ("heavy", inputs.heavy_pairs(seed)),
        ("grid", inputs.grid_pairs(seed)),
        ("capped", inputs.capped_pairs()),
    ):
        for n, r, left, right in pairs:
            cases.append((kind, n, r, element(n, r, left), element(n, r, right)))
    # Warm-up on r = 1 only, which shares no memo entry with the measured pairs.
    for n in (1, 2, 3):
        multiply(element(n, 1, ((1, 1 + n),)), element(n, 1, ((1, 1),)))
    return cases


def run_products(cases, tracer, check):
    from affine_schur import multiply

    rnd = Round(tracer)
    results = []
    for kind, n, r, x, y in cases:
        ok, value = rnd.timed("%s:n%d:r%d" % (kind, n, r), multiply, x, y)
        results.append(value if ok else None)
    rnd.finish()
    layers = tracer.metrics() if tracer else None
    for op, (kind, *_rest) in zip(rnd.ops, cases):
        op["kind"] = kind
        if not op["ok"] and not (kind == "capped" and CAP_FAULT in op["error"]):
            rnd.check(False, "unexpected failure in %s: %s" % (op["name"], op["error"]))
    if check:
        check_products(rnd, cases, results)
    digest = _digest([_terms(v) if v is not None else None for v in results])
    return rnd, digest, layers


def check_products(rnd, cases, results):
    from affine_schur import (
        multiply,
        multiply_schur_oracle,
        multiply_via_action,
        transpose_antiauto,
    )

    for (kind, n, r, x, y), xy in zip(cases, results):
        if xy is None:
            continue
        where = "%s n=%d r=%d %s * %s" % (kind, n, r, x, y)
        rnd.check(not xy.is_zero(), "zero product of composable pair: " + where)
        (xl,), (yl,) = x.terms, y.terms
        if n == 1:
            want = symfunc.label_product(xl, yl)
            rnd.check(_int_terms(xy) == want, "differs from m_alpha*m_beta: " + where)
            # (xy)^T = y^T x^T, the right side by the independent n = 1 product.
            (xt,), (yt,) = transpose_antiauto(x).terms, transpose_antiauto(y).terms
            rnd.check(
                _int_terms(transpose_antiauto(xy)) == symfunc.label_product(yt, xt),
                "(xy)^T != y^T x^T: " + where,
            )
            continue
        if r <= 5:
            rnd.check(
                multiply_schur_oracle(x, y) == xy == multiply_via_action(x, y),
                "engines disagree: " + where,
            )
        rnd.check(
            transpose_antiauto(xy)
            == multiply(transpose_antiauto(y), transpose_antiauto(x)),
            "(xy)^T != y^T x^T: " + where,
        )


# -- verify-suites -----------------------------------------------------------

def setup_verify(seed):
    """Nothing to generate: every suite runs with its default parameters and seed."""
    from affine_schur import verify  # noqa: F401  (import is part of set-up)

    return SUITE_ORDER


def run_verify(suites, tracer, check):
    from affine_schur import verify

    rnd = Round(tracer)
    reports = []
    for name in suites:
        ok, report = rnd.timed(name, functools.partial(verify.run_suite, name))
        reports.append(report if ok else None)
        rnd.check(ok, "suite %s raised %s" % (name, rnd.ops[-1].get("error")))
        if ok:
            rnd.check(report["passed"], "suite %s failed: %s" % (name, json.dumps(report)))
    rnd.finish()
    layers = tracer.metrics() if tracer else None
    if check:
        check_worked_products(rnd)
    return rnd, _digest(reports), layers


def check_worked_products(rnd):
    """The paper's two worked products, in all three engines."""
    from affine_schur import (
        AlgebraElement,
        multiply,
        multiply_schur_oracle,
        multiply_via_action,
    )

    basis = AlgebraElement.basis
    x = basis(1, (1, 1), (1, 2))
    square = basis(1, (1, 1), (1, 3)) + basis(1, (1, 1), (2, 2)).scale(2)
    a, b = basis(2, (1, 2), (1, 1)), basis(2, (1, 1), (1, 2))
    finite = basis(2, (1, 2), (1, 2)) + basis(2, (1, 2), (2, 1))
    for engine in (multiply, multiply_schur_oracle, multiply_via_action):
        rnd.check(engine(x, x) == square, "worked square fails in " + engine.__name__)
        rnd.check(engine(a, b) == finite, "worked finite product fails in " + engine.__name__)
    (xl,) = x.terms
    rnd.check(
        _int_terms(square) == symfunc.label_product(xl, xl),
        "worked square disagrees with m_(0,1)^2",
    )


# -- cli-pipelines: set-up only ------------------------------------------------

def setup_cli(seed, work):
    import affine_schur.cli  # noqa: F401  (import is part of set-up)
    import pipelines

    pipelines.write_inputs(work, seed)


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=("products-cold", "verify-suites", "cli-pipelines"))
    parser.add_argument("seed", type=int)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--trace", help="write spans and per-layer totals to this file")
    parser.add_argument("--work", help="directory for the CLI's input files")
    args = parser.parse_args(argv)

    if args.workload == "cli-pipelines":
        setup_cli(args.seed, args.work)
        print("ready", flush=True)
        return 0
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    if args.workload == "products-cold":
        state, run = setup_products(args.seed), run_products
    else:
        state, run = setup_verify(args.seed), run_verify
    print("ready", flush=True)
    if args.setup_only:
        return 0
    rnd, digest, layers = run(state, tracer, args.check)
    if tracer is not None:
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump({"ops": tracer.ops, "totals": layers, "missing": tracer.missing}, fh)
    json.dump(
        {"ops": rnd.ops, "digest": digest, "layers": layers, "failures": rnd.failures},
        sys.stdout,
    )
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    sys.exit(main())
