"""Command-line interface.

Subcommands: multiply, act, hom, weyl, eval-semigroup, det, lie, decompose,
witness, verify, cache.  Element JSON is read from a file argument or stdin
when the argument is ``-``, so commands compose in pipelines.  Exit codes:
0 success, 1 user error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import cache as cache_mod
from . import expr as expr_mod
from . import schur
from .homs import HOM_KINDS, apply_hom
from .laurent import format_rational, parse_rational
from .looplie import LoopGenerator, decompose_x, decompose_y, pi_tilde
from .schur import AlgebraElement, WeylSymmetry, multiply, weyl_act
from .semigroup import (
    PeriodicMatrix,
    det_tilde,
    evaluate,
    membership,
    nonvanishing_witness,
)
from .tensor import TensorVector, act, multiply_via_action
from .dual import multiply_schur_oracle
from .verify import SUITES, format_report, run_suite


class UserError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """Argument errors are user errors: exit 1, keeping 2 for verification."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "error: %s\n" % message)


def _read_json(path):
    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _element_from_arg(arg, n):
    """An element from inline expression text, a JSON file, or stdin."""
    if arg == "-":
        return AlgebraElement.from_json(json.load(sys.stdin))
    if os.path.exists(arg) and not arg.lstrip().startswith("xi"):
        return AlgebraElement.from_json(_read_json(arg))
    try:
        node = expr_mod.parse(arg)
    except expr_mod.ParseError as ex:
        raise UserError("cannot parse expression: %s" % ex)
    if n is None:
        raise UserError("expressions need -n")
    value = expr_mod.evaluate(node, n)
    if not isinstance(value, AlgebraElement):
        raise UserError("expression has no basis atoms; give an element")
    return value


def _emit_element(el, args):
    if getattr(args, "spec_a", None) is not None:
        el = el.specialize(parse_rational(args.spec_a))
    if getattr(args, "text", False):
        print(el)
    else:
        json.dump(el.to_json(), sys.stdout)
        sys.stdout.write("\n")


_ENGINES = {
    "green": multiply,
    "schur": multiply_schur_oracle,
    "tensor": multiply_via_action,
}


def cmd_multiply(args):
    try:
        node = expr_mod.parse(args.expression)
    except expr_mod.ParseError as ex:
        raise UserError(str(ex))
    if args.engine == "all":
        results = {
            name: expr_mod.evaluate(node, args.n, product=fn)
            for name, fn in _ENGINES.items()
        }
        values = list(results.values())
        if not all(v == values[0] for v in values):
            print("engine disagreement:", file=sys.stderr)
            for name, v in results.items():
                print("  %s: %s" % (name, v), file=sys.stderr)
            return 2
        value = values[0]
    else:
        value = expr_mod.evaluate(node, args.n, product=_ENGINES[args.engine])
    if not isinstance(value, AlgebraElement):
        raise UserError("expression evaluates to a bare scalar")
    _emit_element(value, args)
    return 0


def cmd_act(args):
    el = _element_from_arg(args.element, args.n)
    vec = TensorVector.from_json(_read_json(args.vector))
    out = act(el, vec)
    json.dump(out.to_json(), sys.stdout)
    sys.stdout.write("\n")
    return 0


def cmd_hom(args):
    if args.action != "apply":
        raise UserError("hom supports the 'apply' action")
    el = _element_from_arg(args.element, args.n)
    window = None
    if args.window:
        window = tuple(int(v) for v in args.window.strip("()").split(","))
    out = apply_hom(args.kind, el, s=args.s, window=window)
    _emit_element(out, args)
    return 0


def cmd_weyl(args):
    el = _element_from_arg(args.element, args.n)
    if args.rho:
        sym = WeylSymmetry.rho(el.n)
    elif args.si is not None:
        sym = WeylSymmetry.s(el.n, args.si)
    elif args.window:
        sym = WeylSymmetry(tuple(int(v) for v in args.window.strip("()").split(",")))
    else:
        raise UserError("give --window, --rho, or --si")
    _emit_element(weyl_act(sym, el), args)
    return 0


def cmd_eval_semigroup(args):
    g = PeriodicMatrix.from_json(_read_json(args.matrix))
    if not membership(g, "GL-generic"):
        print("warning: matrix has vanishing affine determinant", file=sys.stderr)
    _emit_element(evaluate(g, args.r), args)
    return 0


def cmd_det(args):
    g = PeriodicMatrix.from_json(_read_json(args.matrix))
    d = det_tilde(g)
    if args.at is not None:
        print(format_rational(d.evaluate(parse_rational(args.at))))
    else:
        print(d.format())
    return 0


def cmd_lie(args):
    if args.action != "pi":
        raise UserError("lie supports the 'pi' action")
    out = pi_tilde(LoopGenerator(args.n, args.s, args.t), args.r)
    _emit_element(out, args)
    return 0


def cmd_decompose(args):
    text = args.index
    if not text.lstrip().startswith("xi"):
        text = "xi" + text.strip()
    try:
        node = expr_mod.parse(text)
    except expr_mod.ParseError as ex:
        raise UserError(str(ex))
    if node.kind != "atom":
        raise UserError("decompose takes a single basis atom")
    top, bottom = node.value
    pairs = schur.canonicalize(top, bottom, args.n)
    if args.using == "Y":
        tree = decompose_y(pairs, args.n)
    else:
        tree = decompose_x(pairs, args.n)
    if args.window is not None:
        worst = max(
            (schur.max_offset(p, args.n) for p in expr_mod.atoms(tree)), default=0
        )
        if worst > args.window:
            raise UserError(
                "decomposition uses generator offsets up to %d, over the window %d"
                % (worst, args.window)
            )
    json.dump(expr_mod.to_json(tree), sys.stdout)
    sys.stdout.write("\n")
    return 0


def cmd_witness(args):
    data = _read_json(args.poly)
    poly = []
    n = args.n
    for entry in data:
        pairs = schur.label_from_json(entry["pairs"], n)
        poly.append((pairs, parse_rational(str(entry["coeff"]))))
    a0 = parse_rational(args.a0) if args.a0 else Fraction(1)
    g, value = nonvanishing_witness(poly, n, special=args.special, a0=a0)
    out = g.to_json()
    out["value"] = (
        format_rational(value.constant_value())
        if value.is_constant()
        else value.to_json()
    )
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


def cmd_verify(args):
    params = {}
    for name in ("n", "r", "window", "budget", "seed", "triples", "offset", "count"):
        val = getattr(args, name, None)
        if val is not None:
            params[name] = val
    report = run_suite(args.suite, **params)
    if args.json:
        json.dump(report, sys.stdout)
        sys.stdout.write("\n")
    else:
        print(format_report(report))
    return 0 if report["passed"] else 2


def cmd_cache(args):
    path = args.path or os.environ.get(cache_mod.ENV_VAR)
    if not path:
        raise UserError(
            "no cache path; give --path or set %s" % cache_mod.ENV_VAR
        )
    store = cache_mod.StructureConstantCache(path)
    if args.action == "stats":
        json.dump(store.stats(), sys.stdout)
        sys.stdout.write("\n")
    elif args.action == "clear":
        store.clear()
        print("cleared %s" % path)
    return 0


def build_parser():
    parser = _ArgumentParser(
        prog="affine-schur",
        description="Exact computations in the affine Schur algebra of type A.",
    )
    parser.add_argument(
        "--cache",
        help="path of the persistent structure-constant cache "
        "(default: $%s)" % cache_mod.ENV_VAR,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("multiply", help="evaluate a product/sum expression")
    p.add_argument("expression")
    p.add_argument("-n", type=int, required=True, help="period of the top entries")
    p.add_argument("--engine", choices=("green", "schur", "tensor", "all"), default="green")
    p.add_argument("--text", action="store_true", help="print text instead of JSON")
    p.add_argument("--spec-a", dest="spec_a", help="specialize the parameter")
    p.set_defaults(fn=cmd_multiply)

    p = sub.add_parser("act", help="act on a tensor vector")
    p.add_argument("element", help="expression, JSON file, or - for stdin")
    p.add_argument("vector", help="tensor vector JSON file or -")
    p.add_argument("-n", type=int)
    p.set_defaults(fn=cmd_act)

    p = sub.add_parser("hom", help="apply a named homomorphism")
    p.add_argument("action", choices=("apply",))
    p.add_argument("--kind", choices=HOM_KINDS, required=True)
    p.add_argument("--s", type=int, help="offset multiplier for psi_as")
    p.add_argument("--window", help="window tuple for the weyl kind, e.g. (0,1)")
    p.add_argument("--element", default="-")
    p.add_argument("-n", type=int)
    p.add_argument("--text", action="store_true")
    p.add_argument("--spec-a", dest="spec_a")
    p.set_defaults(fn=cmd_hom)

    p = sub.add_parser("weyl", help="apply a Weyl symmetry")
    p.add_argument("element", default="-", nargs="?")
    p.add_argument("-n", type=int)
    p.add_argument("--window")
    p.add_argument("--rho", action="store_true")
    p.add_argument("--si", type=int)
    p.add_argument("--text", action="store_true")
    p.add_argument("--spec-a", dest="spec_a")
    p.set_defaults(fn=cmd_weyl)

    p = sub.add_parser("eval-semigroup", help="evaluate a periodic matrix")
    p.add_argument("--matrix", required=True, help="matrix JSON file or -")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--text", action="store_true")
    p.add_argument("--spec-a", dest="spec_a")
    p.set_defaults(fn=cmd_eval_semigroup)

    p = sub.add_parser("det", help="affine determinant of a periodic matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--at", help="evaluate at a nonzero rational")
    p.set_defaults(fn=cmd_det)

    p = sub.add_parser("lie", help="loop-algebra generator images")
    p.add_argument("action", choices=("pi",))
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--text", action="store_true")
    p.add_argument("--spec-a", dest="spec_a")
    p.set_defaults(fn=cmd_lie)

    p = sub.add_parser("decompose", help="decompose a basis element over generators")
    p.add_argument("--index", required=True, help="e.g. 'xi[(1,1)|(2,2)]'")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--using", choices=("Y", "X"), default="Y")
    p.add_argument(
        "--window", type=int, help="fail if any generator leaf has a larger offset"
    )
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("witness", help="nonvanishing witness for a coordinate combination")
    p.add_argument("--poly", required=True, help="JSON list of {pairs, coeff}")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--special", action="store_true", help="witness with determinant one")
    p.add_argument("--a0", help="specialization point for the special witness")
    p.set_defaults(fn=cmd_witness)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--n", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--budget", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--triples", type=int)
    p.add_argument("--offset", type=int)
    p.add_argument("--count", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("cache", help="persistent cache maintenance")
    p.add_argument("action", choices=("stats", "clear"))
    p.add_argument("--path")
    p.set_defaults(fn=cmd_cache)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "n", None) is not None and args.n < 1:
        parser.error("the period n must be at least 1, got %d" % args.n)
    cache_path = args.cache or os.environ.get(cache_mod.ENV_VAR)
    try:
        if cache_path and args.command != "cache":
            schur.set_persistent_cache(cache_mod.StructureConstantCache(cache_path))
        return args.fn(args)
    except schur.CacheMismatchError as ex:
        print("error: %s" % ex, file=sys.stderr)
        return 2
    except (UserError, ValueError, OSError, KeyError) as ex:
        print("error: %s" % ex, file=sys.stderr)
        return 1
    finally:
        schur.set_persistent_cache(None)


if __name__ == "__main__":
    sys.exit(main())
