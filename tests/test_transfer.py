import itertools
import random

import pytest

from affine_schur.transfer import (
    OperatorSum,
    affine_mackey_window,
    affine_stabilizer,
    affine_transfer_column,
    affine_transfer_window,
    conjugate_subgroup,
    double_coset_reps,
    is_invariant,
    mackey_product,
    transfer,
    zero_shift,
)
from affine_schur.weyl import AffineWeylElement, all_perms, apply_perm, young_subgroup

# The points 1 and 2 of S_2 as the place of the entry 2 in a tuple over {1, 2}:
# place permutation moves them as S_2 moves points.
P1, P2 = (2, 1), (1, 2)


def _x(i, j):
    return OperatorSum.unit(2, i, j)


def test_operator_algebra():
    x12 = _x(P1, P2)
    x21 = _x(P2, P1)
    assert x12 * x21 == _x(P1, P1)
    assert (x12 * x12).is_zero()
    assert x12 + x12 == x12.scale(2)
    assert (x12 - x12).is_zero()
    with pytest.raises(ValueError):
        x12 * OperatorSum.unit(3, P2, P1)


def test_zero_shift_translate_is_place_permutation():
    tuples = list(itertools.product((1, 2, 3), repeat=3))
    for sigma, g in zip(all_perms(3), zero_shift(all_perms(3))):
        for n in (1, 3):
            for i, j in zip(tuples, reversed(tuples)):
                want = OperatorSum.unit(n, apply_perm(i, sigma), apply_perm(j, sigma))
                assert OperatorSum.unit(n, i, j).translate(g) == want


def test_transfer_point_examples():
    S2 = zero_shift(all_perms(2))
    triv = S2[:1]
    assert transfer(_x(P1, P1), triv, S2) == _x(P1, P1) + _x(P2, P2)
    t12 = transfer(_x(P1, P2), triv, S2)
    t21 = transfer(_x(P2, P1), triv, S2)
    assert t12 * t21 == _x(P1, P1) + _x(P2, P2)
    inv = _x(P1, P1) + _x(P2, P2)
    assert transfer(inv, S2, S2) == inv


def test_transfer_requires_invariance():
    S2 = zero_shift(all_perms(2))
    with pytest.raises(ValueError):
        transfer(_x(P1, P1), S2, S2)


def test_mackey_point_example():
    S2 = zero_shift(all_perms(2))
    triv = S2[:1]
    out = mackey_product(_x(P1, P2), triv, _x(P2, P1), triv, S2)
    assert out == _x(P1, P1) + _x(P2, P2)
    out = mackey_product(OperatorSum.zero(2), triv, _x(P2, P1), triv, S2)
    assert out.is_zero()


def test_mackey_product_raises_when_its_own_check_fails(monkeypatch):
    # a wrong inverse conjugates H2 wrongly, so the coset sum is wrong; the
    # mismatch must not pass for a hypothesis violation (ValueError)
    monkeypatch.setattr(AffineWeylElement, "inverse", lambda self: self)
    S3 = zero_shift(all_perms(3))
    a = OperatorSum.unit(1, (1, 1, 1), (1, 1, 1))
    H1 = zero_shift(young_subgroup(((1, 2), (3,))))
    H2 = zero_shift(young_subgroup(((1,), (2, 3))))
    with pytest.raises(ArithmeticError, match="^double-coset sum disagrees"):
        mackey_product(a, H1, a, H2, S3)


def _sym(base, H):
    return sum((base.translate(g) for g in H), OperatorSum(base.n))


def test_lemmas_on_sigma3():
    rng = random.Random(30)
    S3 = zero_shift(all_perms(3))
    triv = S3[:1]
    H1 = zero_shift(young_subgroup(((1, 2), (3,))))
    H2 = zero_shift(young_subgroup(((1,), (2, 3))))
    for _ in range(30):
        t = lambda: tuple(rng.randint(1, 3) for _ in range(3))
        a0 = OperatorSum.unit(3, t(), t())
        # transitivity
        mid = transfer(a0, triv, H1)
        assert transfer(mid, H1, S3) == transfer(a0, triv, S3)
        # move
        a = _sym(a0, H1)
        b = _sym(OperatorSum.unit(3, t(), t()), S3)
        if is_invariant(a * b, H1):
            assert transfer(a * b, H1, S3) == transfer(a, H1, S3) * b
        # compare, over H1\G/H2
        lhs = transfer(a, H1, S3)
        rhs = OperatorSum(3)
        for w in double_coset_reps(H1, S3, H2):
            inter = [g for g in conjugate_subgroup(H1, w) if g in set(H2)]
            rhs = rhs + transfer(a.translate(w), inter, H2)
        assert lhs == rhs
        # mackey
        bb = _sym(OperatorSum.unit(3, t(), t()), H2)
        try:
            out = mackey_product(a, H1, bb, H2, S3)
        except ValueError:
            continue
        assert out == transfer(a, H1, S3) * transfer(bb, H2, S3)


def test_double_coset_reps_partition_the_group():
    S3 = zero_shift(all_perms(3))
    H1 = zero_shift(young_subgroup(((1, 2), (3,))))
    H2 = zero_shift(young_subgroup(((1,), (2, 3))))
    # without a right side, or with a trivial one: the right cosets H1 w
    right_cosets = double_coset_reps(H1, S3)
    assert right_cosets == double_coset_reps(H1, S3, S3[:1])
    assert len(right_cosets) * len(H1) == len(S3)
    # two-sided: the double cosets H1 w H2 are disjoint and cover S_3
    reps = double_coset_reps(H1, S3, H2)
    cosets = [{x.compose(w).compose(y) for x in H1 for y in H2} for w in reps]
    assert len(reps) == 2
    assert sum(map(len, cosets)) == len(S3)
    assert set().union(*cosets) == set(S3)


def test_affine_stabilizer_is_finite_group():
    H = affine_stabilizer([(1, 3)], 2)
    assert len(H) == 2  # identity and the swap-with-shift
    for w in H:
        assert w.apply((1, 3), 2) == (1, 3)
    with pytest.raises(ValueError):
        affine_stabilizer([(1, 3), (1,)], 2)


def test_affine_window_mackey_and_transitivity():
    n = 2
    i, j, l = (1, 1), (1, 2), (2, 1)
    a = OperatorSum.unit(n, i, j)
    b = OperatorSum.unit(n, j, l)
    h1 = affine_stabilizer([i, j], n)
    h2 = affine_stabilizer([j, l], n)
    window = list(itertools.product(range(-3, 6), repeat=2))
    lhs, rhs = affine_mackey_window(a, h1, b, h2, window)
    assert lhs == rhs and not lhs.is_zero()

    hj = affine_stabilizer([j], n)
    mid = transfer(a, h1, hj)
    assert affine_transfer_window(mid, hj, window) == affine_transfer_window(
        a, h1, window
    )


def test_affine_column_is_row_finite():
    n = 2
    a = OperatorSum.unit(n, (1, 1), (1, 2))
    h = affine_stabilizer([(1, 1), (1, 2)], n)
    col = affine_transfer_column(a, h, (3, 2))
    assert col and all(c == 1 for _, c in col)
