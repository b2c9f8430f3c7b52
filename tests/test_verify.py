import functools
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from affine_schur import homs, looplie, verify
from affine_schur.cli import main
from affine_schur.laurent import Laurent
from affine_schur.schur import AlgebraElement
from affine_schur.verify import SUITES, _basis_of, _check, run_suite


def test_check_stops_at_the_first_counterexample():
    seen = []

    def failure(case):
        seen.append(case)
        return {"case": case} if case == 3 else None

    side = iter([{"side": True}])
    report = _check("toy", range(10), failure, side=side)
    assert report == {"name": "toy", "passed": False, "count": 4, "detail": {"case": 3}}
    assert seen == [0, 1, 2, 3]
    assert next(side) == {"side": True}  # not read once a case has failed


def test_check_counts_every_passing_case_then_reads_the_side_conditions():
    assert _check("toy", range(10), lambda case: None) == {
        "name": "toy", "passed": True, "count": 10}
    assert _check("toy", [], lambda case: {"case": case}) == {
        "name": "toy", "passed": True, "count": 0}
    side = [None, {"id": 1}, {"id": 2}]
    assert _check("toy", range(3), lambda case: None, side=side) == {
        "name": "toy", "passed": False, "count": 3, "detail": {"id": 1}}


def test_basis_of_builds_each_label_once_through_the_public_constructor():
    basis = _basis_of(2, 2)
    label = ((1, 3), (2, 0))
    x = basis(label)
    assert basis(label) is x
    assert x == AlgebraElement(2, 2, {label: 1})
    # a label that is not canonical is rejected on its first draw
    with pytest.raises(ValueError, match="is not canonical for n=2"):
        basis(((2, 0), (1, 3)))
    with pytest.raises(ValueError, match="has 1 pairs, the element has r=2"):
        basis(((1, 1),))


@pytest.mark.parametrize(
    "name, params, message",
    [
        ("lie", {"n": 5}, "suite lie takes no parameter n; it takes offset, seed"),
        ("mackey", {"window": 1, "budget": 2},
         "suite mackey takes no parameter budget, window; it takes r, n, seed"),
        ("oracle-equivalence", {"n": 2}, "n and r must be given together"),
        ("ring-axioms", {"r": 2}, "n and r must be given together"),
    ],
)
def test_run_suite_rejects_parameters_the_suite_does_not_take(name, params, message):
    with pytest.raises(ValueError, match="^%s$" % message):
        run_suite(name, **params)


# Each suite on small parameters through the CLI, in one process, then the
# seeded witness search on the README example and a binomial at n = 2.
_SMALL_SUITES = """
import io
import sys

from affine_schur.cli import main

for argv in (
    ["oracle-equivalence", "--n", "1", "--r", "2", "--window", "1", "--budget", "30"],
    ["ring-axioms", "--n", "2", "--r", "1", "--triples", "20"],
    ["hom-laws", "--n", "1", "--r", "1", "--window", "0"],
    ["semigroup-laws", "--n", "1", "--count", "5"],
    ["mackey", "--r", "2", "--n", "1"],
    ["lie", "--offset", "0"],
    ["generators", "--window", "0"],
):
    if main(["verify", *argv, "--json"]) != 0:
        raise SystemExit(1)

binomial = '[{"pairs":[[1,1],[2,4]],"coeff":"1"},{"pairs":[[1,3],[2,2]],"coeff":"-1"}]'
for poly, argv in (
    ('[{"pairs":[[1,3]],"coeff":"1"}]', ["--n", "1"]),
    (binomial, ["--n", "2"]),
    (binomial, ["--n", "2", "--special"]),
):
    sys.stdin = io.StringIO(poly)
    if main(["witness", "--poly", "-", *argv]) != 0:
        raise SystemExit(1)
"""


def test_verify_reports_are_identical_under_optimize():
    # -O strips assert statements; no suite may depend on one for its result.
    # Two plain runs (each with its own hash seed) and one under -O must agree
    # byte for byte: a benchmark round fails when outputs differ between rounds.
    out = [
        subprocess.run(
            [sys.executable, *flags, "-c", _SMALL_SUITES],
            capture_output=True,
            text=True,
            timeout=120,
        )
        for flags in ([], [], ["-O"])
    ]
    assert [proc.returncode for proc in out] == [0, 0, 0], out[0].stderr
    assert out[0].stdout == out[1].stdout == out[2].stdout
    lines = out[0].stdout.splitlines()
    assert [line.split(', "checks"')[0] for line in lines[:-3]] == [
        '{"suite": "%s", "passed": true' % name for name in SUITES
    ]
    assert all('"value": "' in line for line in lines[-3:])


@pytest.mark.parametrize(
    "params", [{}, {"n": 1, "r": 2}, {"n": 3, "r": 4}], ids=["defaults", "n1-r2", "n3-r4"]
)
def test_mackey_report_pins_every_check_count(params):
    # a rewrite of the transfer calculus must not check fewer cases
    report = run_suite("mackey", **params)
    assert report["passed"]
    assert [(c["name"], c["count"]) for c in report["checks"]] == [
        ("mackey-symmetric-group", 40),
        ("transfer-transitivity", 40),
        ("transfer-move", 40),
        ("transfer-compare", 40),
        ("mackey-affine-window", 8),
        ("sharp-is-transpose", 5),
    ]


_MUTANTS = {
    # the coalgebra-side det map multiplies by the permanent
    "permanent-det-map": ("det-pairing", lambda mp: mp.setattr(
        "affine_schur.dual.perm_sign", lambda sigma: 1)),
    # det_tilde_sharp imports perm_sign when it is called, so it loses its signs
    "unsigned-det-sharp": ("det-pairing", lambda mp: mp.setattr(
        "affine_schur.weyl.perm_sign", lambda sigma: 1)),
    # psi_as weights by a^-h in place of a^h
    "psi-inverse-height": ("psi-pairing-s-1", lambda mp: mp.setattr(
        homs.psi_as, "__defaults__", (lambda h: Laurent.gen(-h),))),
}


@pytest.mark.parametrize("mutant", list(_MUTANTS))
def test_duality_check_fails_under_each_mutant(monkeypatch, mutant):
    # each mutant is still a linear map, so only a pairing against the other
    # side of the duality, or a pinned value, tells it from the right one
    case, apply = _MUTANTS[mutant]
    apply(monkeypatch)
    checks = {c["name"]: c for c in run_suite("mackey")["checks"]}
    assert not checks["sharp-is-transpose"]["passed"]
    assert checks["sharp-is-transpose"]["detail"]["failed"] == case
    if mutant == "psi-inverse-height":
        failed = [c["name"] for c in run_suite("hom-laws")["checks"] if not c["passed"]]
        assert failed == ["psi-worked-value"]


def _reversed_products(mp):
    multiply = looplie.multiply
    mp.setattr("affine_schur.looplie.multiply", lambda x, y: multiply(y, x))


def _psi_rescaled_at_two(mp):
    psi_as = verify.psi_as
    mp.setattr("affine_schur.verify.psi_as", lambda x, s, **kw: psi_as(
        x, s + 1 if abs(s) == 2 else s, **kw))


def _edited_split_records(edit):
    """A mutant of the generators suite's records: ``edit`` of each split record."""
    def apply(mp):
        y_split = looplie.y_split

        def edited(pairs, n):
            record = y_split(pairs, n)
            return record and edit(*record)

        mp.setattr(looplie, "y_split", edited)

    return apply


def _flipped_reduction_factors(mp):
    # the X leaves come from memos: the mutant fills fresh ones, dropped on undo
    for name in ("_y_atom_over_x", "_finite_closure"):
        mp.setattr(looplie, name, functools.lru_cache(maxsize=None)(
            getattr(looplie, name).__wrapped__))
    reduce = looplie._reduce

    def flipped(vec, rows):
        vec, used = reduce(vec, rows)
        return vec, [(-factor, row_expr) for factor, row_expr in used]

    mp.setattr(looplie, "_reduce", flipped)


# The checks that see a wrong split record: every cell with a label of index
# >= 2, that is r >= 2, and the one such cell over X.
_RECORD_CHECKS = ["y-decomposition-n%d-r%d" % (n, r) for n in (1, 2, 3) for r in (2, 3)] + [
    "x-decomposition-n3-r2"]

# Mutants of the values a suite shares across its cases: each makes exactly
# the checks named next to it fail.
_SHARED_VALUE_MUTANTS = {
    # the bracket predicate's products taken in reverse order
    "reversed-bracket-products": ("lie", _reversed_products, [
        "bracket-n%d-r%d" % (n, r) for n in (2, 3) for r in (1, 2, 3)]),
    # psi_as rescales by s + 1 when |s| = 2
    "psi-rescaled-at-two": ("hom-laws", _psi_rescaled_at_two,
                            ["psi-composition-law", "psi-worked-value"]),
    # det_tilde_sharp loses its signs
    "unsigned-det-sharp": ("lie", lambda mp: mp.setattr(
        "affine_schur.weyl.perm_sign", lambda sigma: 1), ["det-transfer-of-image-products"]),
    # each decomposition scaled by its leading coefficient, not by its inverse
    "lead-not-inverted": ("generators", _edited_split_records(
        lambda lead, left, right, others: (Fraction(1, lead), left, right, others)),
        _RECORD_CHECKS),
    # the lower-index terms added, not subtracted
    "others-added": ("generators", _edited_split_records(
        lambda lead, left, right, others: (
            lead, left, right, tuple((other, -c) for other, c in others))),
        _RECORD_CHECKS),
    # the X reduction (the finite closure and _finite_over_x) takes each
    # echelon row with the wrong sign
    "flipped-reduction-factors": ("generators", _flipped_reduction_factors, [
        "x-decomposition-n2-r1", "x-decomposition-n3-r1", "x-decomposition-n3-r2"]),
}


@pytest.mark.parametrize("mutant", list(_SHARED_VALUE_MUTANTS))
def test_suite_checks_fail_under_each_shared_value_mutant(monkeypatch, mutant):
    suite, apply, names = _SHARED_VALUE_MUTANTS[mutant]
    apply(monkeypatch)
    checks = {c["name"]: c for c in run_suite(suite)["checks"]}
    assert [name for name, c in checks.items() if not c["passed"]] == names


_GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize("suite", list(SUITES))
def test_verify_report_matches_its_golden_file(capsys, suite):
    # the JSON report of each suite at its defaults, byte for byte
    assert main(["verify", suite, "--json"]) == 0
    assert capsys.readouterr().out == (_GOLDEN / ("verify-%s.json" % suite)).read_text()


@pytest.mark.parametrize(
    "name, index, n",
    [
        ("Y-n2-r2", "[(1,1)|(2,2)]", 2),  # the README command
        ("Y-n3-r3", "[(1,2,3)|(2,3,1)]", 3),
        ("X-n3-r2", "[(1,1)|(2,2)]", 3),
        ("X-n3-r1", "[(1)|(5)]", 3),
    ],
)
def test_decompose_json_matches_its_golden_file(capsys, name, index, n):
    # the labels of test_decomposition_json_evaluates_under_the_oracle, byte for byte
    assert main(["decompose", "--index", index, "--n", str(n), "--using", name[0]]) == 0
    assert capsys.readouterr().out == (_GOLDEN / ("decompose-%s.json" % name)).read_text()
