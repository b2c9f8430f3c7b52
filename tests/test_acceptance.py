"""Acceptance gate: the nine exact verification criteria, one test each.

Every check is exact rational arithmetic (tolerance zero).  Each test prints a
single pass/fail line; run with ``pytest -s tests/test_acceptance.py -v`` to
see them live.  The full-pair product comparison enumerates every basis pair
on the smaller contexts and a seeded sample on the larger ones, several
thousand pairs in total.
"""

import itertools
import math
import random
from fractions import Fraction

from affine_schur.schur import (
    AlgebraElement,
    basis_indices,
    multiply,
)
from affine_schur.dual import multiply_schur_oracle
from affine_schur.tensor import multiply_via_action
from affine_schur.homs import det_star, det_tilde_sharp, psi_a
from affine_schur.semigroup import (
    PeriodicMatrix,
    evaluate,
    evaluate_combination,
    membership,
    nonvanishing_witness,
)
from affine_schur.verify import run_suite


def _random_sl_matrix(rng, n, a0, factors=3):
    """A product of elementary unipotents: affine determinant 1 at every a0."""
    out = PeriodicMatrix.identity(n)
    eye = PeriodicMatrix.identity(n)
    for _ in range(factors):
        u = rng.randint(1, n)
        v = rng.randint(1, n)
        while v == u:
            v = rng.randint(1, n)
        off = rng.randint(-1, 1)
        c = Fraction(rng.randint(1, 3), rng.randint(1, 2)) * rng.choice((1, -1))
        out = out * (eye + PeriodicMatrix.unit(n, u, v + n * off, c))
    return out


def _report(criterion, name, passed):
    print("criterion %d (%s): %s" % (criterion, name, "PASS" if passed else "FAIL"))
    assert passed, "criterion %d failed: %s" % (criterion, name)


def _suite_passed(report):
    return report["passed"], sum(c["count"] for c in report["checks"])


def _counts(report):
    return [(c["name"], c["count"]) for c in report["checks"]]


def test_criterion_1_three_way_oracle():
    report = run_suite("oracle-equivalence", window=2, budget=1300)
    passed, count = _suite_passed(report)
    assert count >= 3000, "expected several thousand pairs, got %d" % count
    # every pair of a small context, a sample of the budget on a larger one
    assert _counts(report) == [
        ("three-way-product-n%d-r%d" % (n, r), min(len(basis_indices(n, r, 2)) ** 2, 1300))
        for n in (1, 2, 3)
        for r in (1, 2, 3)
    ] + [("worked-square-degree2", 1), ("worked-finite-product", 1)]
    _report(1, "three-way multiplication oracle, %d pairs" % count, passed)


def test_criterion_2_worked_values():
    x = AlgebraElement.basis(1, (1, 1), (1, 2))
    want = AlgebraElement.basis(1, (1, 1), (1, 3)) + AlgebraElement.basis(
        1, (1, 1), (2, 2)
    ).scale(2)
    ok = multiply(x, x) == multiply_schur_oracle(x, x) == multiply_via_action(x, x) == want
    a = AlgebraElement.basis(2, (1, 2), (1, 1))
    b = AlgebraElement.basis(2, (1, 1), (1, 2))
    want2 = AlgebraElement.basis(2, (1, 2), (1, 2)) + AlgebraElement.basis(2, (1, 2), (2, 1))
    ok = ok and (
        multiply(a, b) == multiply_schur_oracle(a, b) == multiply_via_action(a, b) == want2
    )
    _report(2, "worked product values via all three engines", ok)


def test_criterion_3_ring_axioms():
    report = run_suite("ring-axioms", triples=1000)
    passed, count = _suite_passed(report)
    # a faster product must not check fewer triples: pin every count; the
    # identity laws are checked on at most 50 sampled labels
    assert _counts(report) == [
        (name % (n, r), c)
        for n in (1, 2, 3)
        for r in (1, 2, 3)
        for name, c in (
            ("associativity-n%d-r%d", 1000),
            ("identity-laws-n%d-r%d", min(len(basis_indices(n, r, 1)), 50)),
            ("orthogonal-idempotents-n%d-r%d", math.comb(n + r - 1, r) ** 2),
        )
    ]
    _report(3, "ring axioms, %d checks" % count, passed)


def test_criterion_4_homomorphism_laws():
    passed = True
    count = 0
    for (n, r) in [(1, 2), (2, 2), (3, 2)]:
        report = run_suite("hom-laws", n=n, r=r)
        ok, c = _suite_passed(report)
        passed = passed and ok
        count += c
    _report(4, "homomorphism laws, %d checks" % count, passed)


def test_criterion_5_transfer_compatibilities():
    ok = True
    # commuting square on the full offset-one windows
    for (n, r) in [(2, 1), (2, 2), (3, 1)]:
        for idx in basis_indices(n, n + r, 1):
            el = AlgebraElement(n, n + r, {idx: 1})
            if psi_a(det_tilde_sharp(el)) != det_star(psi_a(el)):
                ok = False
                break
    # the transfer restricted to offset-free labels is the finite transfer
    for (n, r) in [(2, 1), (2, 2), (3, 1)]:
        for idx in basis_indices(n, n + r, 0):
            el = AlgebraElement(n, n + r, {idx: 1})
            if det_tilde_sharp(el) != det_star(el):
                ok = False
                break
    # transfer-of-evaluation on random determinant-one matrices
    rng = random.Random(20240607)
    n, r = 2, 1
    done = 0
    for a0 in (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3)):
        for _ in range(5):
            g = _random_sl_matrix(rng, n, a0)
            if not membership(g, "SL-at", a0):
                ok = False
                continue
            done += 1
            lhs = det_tilde_sharp(evaluate(g, n + r)).specialize(a0)
            if lhs != evaluate(g, r):
                ok = False
    ok = ok and done == 20
    _report(5, "determinant transfer compatibilities", ok)


def test_criterion_6_semigroup_laws():
    report = run_suite("semigroup-laws", count=50)
    passed, count = _suite_passed(report)
    _report(6, "periodic-matrix semigroup laws, %d checks" % count, passed)


def test_criterion_7_loop_algebra_suite():
    report = run_suite("lie", offset=2)
    passed, count = _suite_passed(report)
    assert _counts(report) == [
        ("bracket-n%d-r%d" % (n, r), pairs)
        for n, pairs in ((2, 400), (3, 2025))
        for r in (1, 2, 3)
    ] + [
        ("det-transfer-of-generator-images", 20),
        ("det-transfer-of-image-products", 104),
        ("collapse-of-generator-images", 114),
        ("images-centralize-right-action", 150),
    ]
    gen_report = run_suite("generators", window=1)
    gpassed, gcount = _suite_passed(gen_report)
    assert _counts(gen_report) == [
        ("y-decomposition-n%d-r%d" % (n, r), len(basis_indices(n, r, 1)))
        for n in (1, 2, 3)
        for r in (1, 2, 3)
    ] + [
        ("x-decomposition-n%d-r%d" % (n, r), len(basis_indices(n, r, 1)))
        for n, r in ((2, 1), (3, 1), (3, 2))
    ] + [("generator-families", 2)]
    _report(
        7,
        "loop-algebra bracket/transfer + generator decompositions, %d checks"
        % (count + gcount),
        passed and gpassed,
    )


def test_criterion_8_appendix_suites():
    from affine_schur.transfer import (
        OperatorSum,
        is_invariant,
        mackey_product,
        transfer,
        zero_shift,
    )
    from affine_schur.weyl import all_perms, refines, young_subgroup

    report = run_suite("mackey")
    passed, count = _suite_passed(report)

    # exhaustive over all Young subgroup pairs of the rank-three group, with
    # systematic seed operators over a two-letter alphabet
    S3 = zero_shift(all_perms(3))
    partitions = [
        ((1,), (2,), (3,)),
        ((1, 2), (3,)),
        ((1, 3), (2,)),
        ((1,), (2, 3)),
        ((1, 2, 3),),
    ]
    seeds = [
        (i, j)
        for i in itertools.product((1, 2), repeat=3)
        for j in itertools.product((1, 2), repeat=3)
    ][::8]
    checked = 0
    ok = True
    for p1 in partitions:
        H1 = zero_shift(young_subgroup(p1))
        for p2 in partitions:
            H2 = zero_shift(young_subgroup(p2))
            for (i, j) in seeds:
                a = OperatorSum.zero(2)
                b = OperatorSum.zero(2)
                for g in H1:
                    a = a + OperatorSum.unit(2, i, j).translate(g)
                for g in H2:
                    b = b + OperatorSum.unit(2, j, i).translate(g)
                expected = transfer(a, H1, S3) * transfer(b, H2, S3)
                try:
                    coset_sum = mackey_product(a, H1, b, H2, S3)
                except ValueError:
                    continue
                except ArithmeticError:
                    ok = False
                    continue
                checked += 1
                if coset_sum != expected:
                    ok = False
                # transitivity through every intermediate Young subgroup
                for p_mid in partitions:
                    if not refines(p1, p_mid):
                        continue
                    Hm = zero_shift(young_subgroup(p_mid))
                    mid = transfer(a, H1, Hm)
                    if not is_invariant(mid, Hm):
                        continue
                    if transfer(mid, Hm, S3) != transfer(a, H1, S3):
                        ok = False
    _report(
        8,
        "double-coset/transfer identities, %d suite + %d exhaustive checks"
        % (count, checked),
        passed and ok and checked > 100,
    )


def test_criterion_9_witness_generator():
    rng = random.Random(20240608)
    ok = True
    produced = 0
    for trial in range(50):
        n = rng.choice((1, 2))
        degree = rng.choice((1, 2))
        labels = basis_indices(n, degree, 2)
        terms = {}
        for _ in range(rng.randint(1, 3)):
            terms[rng.choice(labels)] = Fraction(rng.randint(-3, 3))
        poly = [(pairs, c) for pairs, c in terms.items() if c]
        if not poly:
            poly = [(labels[0], Fraction(1))]
        special = trial % 2 == 1
        a0 = rng.choice((Fraction(1), Fraction(2), Fraction(1, 2)))
        g, value = nonvanishing_witness(poly, n, special=special, a0=a0)
        # self-verification by direct evaluation
        if evaluate_combination(poly, g) != value or value.is_zero():
            ok = False
        if special and not membership(g, "SL-at", a0):
            ok = False
        if not special and not membership(g, "GL-generic"):
            ok = False
        produced += 1
    _report(9, "nonvanishing witnesses, %d searched" % produced, ok and produced == 50)
