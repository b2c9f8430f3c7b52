import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from affine_schur.combination import accumulate
from affine_schur.laurent import Laurent, height_at
from affine_schur.schur import (
    AlgebraElement,
    canonicalize,
    multiply,
    transpose_antiauto,
)
from affine_schur.homs import det_tilde_sharp
from affine_schur.semigroup import (
    PeriodicMatrix,
    coord_value,
    det_tilde,
    eta_a,
    eta_as,
    evaluate,
    evaluate_combination,
    matrix_mul,
    membership,
    nonvanishing_witness,
    weyl_conjugate,
)
from affine_schur.weyl import AffineWeylElement

from oracles import from_laurent_matrix, to_laurent_matrix


def rand_matrix(rng, n, k=4):
    entries = {}
    for _ in range(rng.randint(1, k)):
        entries[(rng.randint(1, n), rng.randint(1 - n, 3 * n))] = Fraction(
            rng.randint(-3, 3)
        )
    return PeriodicMatrix(n, entries)


def test_matrix_mul_examples():
    assert PeriodicMatrix.unit(2, 1, 2) * PeriodicMatrix.unit(2, 2, 1) == PeriodicMatrix.unit(2, 1, 1)
    g = PeriodicMatrix(1, {(1, 1): 2, (1, 2): 3})
    assert g * g == PeriodicMatrix(1, {(1, 1): 4, (1, 2): 12, (1, 3): 9})
    assert g * PeriodicMatrix.identity(1) == g


def test_periodicity_of_entries():
    g = PeriodicMatrix(2, {(3, 4): 5})  # row 3 normalizes to row 1
    assert g.entry(1, 2) == Laurent.const(5)
    assert g.entry(3, 4) == Laurent.const(5)
    assert g.entry(-1, 0) == Laurent.const(5)


def test_laurent_matrix_transport():
    rng = random.Random(22)
    for _ in range(40):
        g, h = rand_matrix(rng, 2), rand_matrix(rng, 2)
        prod = matrix_mul(g, h)
        gm, hm = to_laurent_matrix(g), to_laurent_matrix(h)
        via = [
            [sum((gm[i][k] * hm[k][j] for k in range(2)), Laurent.zero()) for j in range(2)]
            for i in range(2)
        ]
        assert from_laurent_matrix(via) == prod


def test_eta_examples():
    e13 = PeriodicMatrix.unit(2, 1, 3)
    assert eta_as(e13, 1) == e13.scale(Laurent.gen(1))
    g = PeriodicMatrix(1, {(1, 1): 2, (1, 2): 3})
    assert eta_a(g) == PeriodicMatrix(1, {(1, 1): Laurent({0: 2, 1: 3})})
    assert eta_as(PeriodicMatrix.unit(2, 1, 2), 5) == PeriodicMatrix.unit(2, 1, 2)


def test_eta_composition_law():
    rng = random.Random(23)
    for _ in range(40):
        m = rand_matrix(rng, 2)
        for s, s2 in [(-1, 1), (0, 2), (2, -1), (1, 0), (0, 0), (2, 2)]:
            for a0, a1 in [(Fraction(2), Fraction(3)), (Fraction(1, 2), Fraction(-2))]:
                inner = eta_as(m, s2, height_scalar=height_at(a1))
                assert eta_as(inner, s, height_scalar=height_at(a0)) == eta_as(
                    m, s * s2, height_scalar=height_at(a1 * a0 ** s2)
                )


def test_eta_transpose_law():
    rng = random.Random(24)
    for _ in range(40):
        m = rand_matrix(rng, 2)
        for s in (-1, 0, 1, 2):
            lhs = eta_as(m, s).transpose()
            rhs = PeriodicMatrix(
                2,
                {k: v.substitute_inverse() for k, v in eta_as(m.transpose(), s).terms.items()},
            )
            assert lhs == rhs


def test_det_examples():
    g = PeriodicMatrix(1, {(1, 1): 2, (1, 2): 3})
    assert det_tilde(g) == Laurent({0: 2, 1: 3})
    b = Fraction(5)
    gb = PeriodicMatrix(
        2, {(1, 1): 1, (2, 2): 1, (1, -1): -b, (2, 0): -b}
    )
    one_minus = Laurent({0: 1, -1: -b})
    assert det_tilde(gb) == one_minus * one_minus
    assert not det_tilde(gb).is_zero()
    assert det_tilde(gb).evaluate(b) == 0


def test_det_multiplicative():
    rng = random.Random(25)
    for _ in range(50):
        g, h = rand_matrix(rng, 2), rand_matrix(rng, 2)
        assert det_tilde(g * h) == det_tilde(g) * det_tilde(h)


def test_membership_examples():
    assert membership(PeriodicMatrix.identity(2))
    assert membership(PeriodicMatrix.identity(2), "SL-at", 7)
    swap = PeriodicMatrix(2, {(1, 2): 1, (2, 1): 1})
    assert membership(swap) and not membership(swap, "SL-at", 1)
    t = PeriodicMatrix(1, {(1, 2): 1})
    assert det_tilde(t) == Laurent.gen(1)
    assert membership(t, "SL-at", 1) and not membership(t, "SL-at", 2)
    with pytest.raises(ValueError):
        membership(t, "SL-at", 0)


def test_weyl_conjugation():
    rho = AffineWeylElement.rho(2)
    assert weyl_conjugate(rho, PeriodicMatrix.unit(2, 1, 2)) == PeriodicMatrix.unit(2, 2, 3)
    g = PeriodicMatrix(2, {(1, 2): 3, (2, -1): Fraction(1, 2)})
    assert weyl_conjugate(AffineWeylElement.identity(2), g) == g
    s1 = AffineWeylElement.s(2, 1)
    lhs = weyl_conjugate(rho.compose(s1), g)
    rhs = weyl_conjugate(rho, weyl_conjugate(s1, g))
    assert lhs == rhs
    assert membership(g, "GL-generic") == membership(weyl_conjugate(rho, g), "GL-generic")


def test_evaluate_examples():
    g = PeriodicMatrix(1, {(1, 1): 2, (1, 2): 3})
    ev = evaluate(g, 1)
    assert ev == AlgebraElement.basis(1, (1,), (1,), 2) + AlgebraElement.basis(1, (1,), (2,), 3)
    both = evaluate(g * g, 1)
    assert both == multiply(ev, ev)
    finite = PeriodicMatrix(2, {(1, 1): 1, (2, 2): 1, (1, 2): 1})
    assert evaluate(finite, 2).is_finite_support()


def test_evaluate_homomorphism():
    rng = random.Random(26)
    for _ in range(30):
        g, h = rand_matrix(rng, 2, 3), rand_matrix(rng, 2, 3)
        for r in (1, 2):
            assert evaluate(g * h, r) == multiply(evaluate(g, r), evaluate(h, r))


def test_evaluate_transpose_compatibility():
    rng = random.Random(27)
    for _ in range(30):
        g = rand_matrix(rng, 2, 3)
        for r in (1, 2):
            assert evaluate(g.transpose(), r) == transpose_antiauto(evaluate(g, r))


def _random_sl(rng, n):
    out = PeriodicMatrix.identity(n)
    eye = PeriodicMatrix.identity(n)
    for _ in range(3):
        u = rng.randint(1, n)
        v = u
        while v == u:
            v = rng.randint(1, n)
        out = out * (
            eye + PeriodicMatrix.unit(n, u, v + n * rng.randint(-1, 1), Fraction(rng.randint(1, 3)))
        )
    return out


def test_det_transfer_compatible_with_evaluation():
    rng = random.Random(28)
    n, r = 2, 1
    for a0 in (Fraction(1), Fraction(2), Fraction(1, 3)):
        for _ in range(7):
            g = _random_sl(rng, n)
            assert membership(g, "SL-at", a0)
            lhs = det_tilde_sharp(evaluate(g, n + r)).specialize(a0)
            rhs = evaluate(g, r)
            assert lhs == rhs


def test_witness_examples():
    # the seeded sampler draws entries from 1..2(r+n); these are its first points
    poly = [(((1, 3),), Fraction(1))]
    g, value = nonvanishing_witness(poly, 1)
    assert g == PeriodicMatrix(1, {(1, 1): 1, (1, 3): 4}) and value == Laurent.const(4)

    # the first point (4, 4) is a root of a_11 - a_12; the second is not
    poly2 = [(((1, 1),), Fraction(1)), (((1, 2),), Fraction(-1))]
    g2, value2 = nonvanishing_witness(poly2, 1)
    assert g2 == PeriodicMatrix(1, {(1, 1): 1, (1, 2): 3}) and value2 == Laurent.const(-2)

    # 1 + 4a^2 + x a^3 at a = 2 is 1 for the solved entry x = -2
    g3, value3 = nonvanishing_witness(poly, 1, special=True, a0=Fraction(2))
    assert g3 == PeriodicMatrix(1, {(1, 1): 1, (1, 3): 4, (1, 4): -2})
    assert membership(g3, "SL-at", 2) and value3 == Laurent.const(4)

    # degree 0: the empty label is the constant coordinate
    for special in (False, True):
        g4, value4 = nonvanishing_witness([((), Fraction(3))], 2, special=special)
        assert g4 == PeriodicMatrix.identity(2) and value4 == Laurent.const(3)


def test_witness_rejects_zero():
    with pytest.raises(ValueError):
        nonvanishing_witness([], 1)
    with pytest.raises(ValueError):
        nonvanishing_witness([(((1, 1),), Fraction(0))], 1)
    with pytest.raises(ValueError):  # two terms that cancel
        nonvanishing_witness([(((1, 0),), 1), (((1, 0),), Fraction(-1))], 1)


def test_witness_search_budget_raises_value_error():
    # a witness exists (test_witness_examples), but the first seeded point is
    # a root of a_11 - a_12
    poly = [(((1, 1),), Fraction(1)), (((1, 2),), Fraction(-1))]
    with pytest.raises(ValueError, match=r"^witness search exhausted after 1 trials$"):
        nonvanishing_witness(poly, 1, max_tries=1)
    with pytest.raises(ValueError, match=r"^witness search exhausted after 0 trials$"):
        nonvanishing_witness([(((1, 3),), Fraction(1))], 1, max_tries=0)


@st.composite
def _combinations(draw):
    """A nonzero combination of canonical labels at n <= 3, r <= 3, offsets -1..1.

    Half of them hold a binomial: a monomial minus the one with its offsets
    permuted, so both have the same residues and the same offset content.
    """
    n, r = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    cell = st.tuples(st.integers(1, n), st.integers(1, n), st.integers(-1, 1))

    def label(cells, offsets):
        bottoms = [col + n * off for (_, col, _), off in zip(cells, offsets)]
        return canonicalize([top for top, _, _ in cells], bottoms, n)

    terms = []
    if draw(st.booleans()):
        cells = draw(st.lists(cell, min_size=r, max_size=r))
        offsets = [off for _, _, off in cells]
        terms.append((label(cells, offsets), Fraction(1)))
        terms.append((label(cells, draw(st.permutations(offsets))), Fraction(-1)))
    for _ in range(draw(st.integers(0, 2))):
        cells = draw(st.lists(cell, min_size=r, max_size=r))
        coeff = Fraction(draw(st.integers(-3, 3)))
        terms.append((label(cells, [off for _, _, off in cells]), coeff))
    assume(accumulate(terms))
    return n, terms


@given(_combinations(), st.sampled_from([None, Fraction(1), Fraction(2), Fraction(1, 2)]))
def test_witness_is_always_found(case, a0):
    n, poly = case
    special = a0 is not None
    g, value = nonvanishing_witness(poly, n, special=special, a0=a0 or 1)
    assert not value.is_zero() and evaluate_combination(poly, g) == value
    assert membership(g, "SL-at" if special else "GL-generic", a0)


def test_coord_value():
    g = PeriodicMatrix(2, {(1, 2): 3, (2, 2): 5})
    assert coord_value(((1, 2), (2, 2)), g) == Laurent.const(15)
    assert coord_value(((1, 1),), g).is_zero()


def test_matrix_json_round_trip():
    g = PeriodicMatrix(2, {(1, 3): 1, (2, 2): Fraction(1, 2)})
    data = g.to_json()
    assert data == {"n": 2, "entries": [[1, 3, "1"], [2, 2, "1/2"]]}
    assert PeriodicMatrix.from_json(data) == g
