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
    make_affine_action,
    perm_inv,
    perm_mul,
    point_action,
    right_cosets,
    transfer,
    tuple_action,
)
from affine_schur.weyl import all_perms, young_subgroup


def test_operator_algebra():
    x12 = OperatorSum.unit(1, 2)
    x21 = OperatorSum.unit(2, 1)
    assert x12 * x21 == OperatorSum.unit(1, 1)
    assert (x12 * x12).is_zero()
    assert x12 + x12 == x12.scale(2)
    assert (x12 - x12).is_zero()


def test_transfer_point_examples():
    S2 = all_perms(2)
    triv = [S2[0]]
    assert transfer(OperatorSum.unit(1, 1), triv, S2, point_action) == OperatorSum.unit(
        1, 1
    ) + OperatorSum.unit(2, 2)
    t12 = transfer(OperatorSum.unit(1, 2), triv, S2, point_action)
    t21 = transfer(OperatorSum.unit(2, 1), triv, S2, point_action)
    assert t12 * t21 == OperatorSum.unit(1, 1) + OperatorSum.unit(2, 2)
    inv = OperatorSum.unit(1, 1) + OperatorSum.unit(2, 2)
    assert transfer(inv, S2, S2, point_action) == inv


def test_transfer_requires_invariance():
    S2 = all_perms(2)
    with pytest.raises(ValueError):
        transfer(OperatorSum.unit(1, 1), S2, S2, point_action)


def test_mackey_point_example():
    S2 = all_perms(2)
    triv = [S2[0]]
    out = mackey_product(
        OperatorSum.unit(1, 2), triv, OperatorSum.unit(2, 1), triv, S2, point_action
    )
    assert out == OperatorSum.unit(1, 1) + OperatorSum.unit(2, 2)
    z = OperatorSum.zero()
    out = mackey_product(z, triv, OperatorSum.unit(2, 1), triv, S2, point_action)
    assert out.is_zero()


def test_mackey_product_raises_when_its_own_check_fails():
    # a wrong inverse conjugates H2 wrongly, so the coset sum is wrong; the
    # mismatch must not pass for a hypothesis violation (ValueError)
    S3 = all_perms(3)
    a = OperatorSum.unit((1, 1, 1), (1, 1, 1))
    H1, H2 = young_subgroup(((1, 2), (3,))), young_subgroup(((1,), (2, 3)))
    with pytest.raises(ArithmeticError, match="^double-coset sum disagrees"):
        mackey_product(a, H1, a, H2, S3, tuple_action, inv=lambda g: g)


def _sym(base, H):
    out = OperatorSum.zero()
    for g in H:
        out = out + base.translate(g, tuple_action)
    return out


def test_lemmas_on_sigma3():
    rng = random.Random(30)
    S3 = all_perms(3)
    triv = [S3[0]]
    H1 = list(young_subgroup(((1, 2), (3,))))
    H2 = list(young_subgroup(((1,), (2, 3))))
    for _ in range(30):
        t = lambda: tuple(rng.randint(1, 3) for _ in range(3))
        a0 = OperatorSum.unit(t(), t())
        # transitivity
        mid = transfer(a0, triv, H1, tuple_action)
        assert transfer(mid, H1, S3, tuple_action) == transfer(a0, triv, S3, tuple_action)
        # move
        a = _sym(a0, H1)
        b = _sym(OperatorSum.unit(t(), t()), S3)
        if is_invariant(a * b, H1, tuple_action):
            assert transfer(a * b, H1, S3, tuple_action) == transfer(
                a, H1, S3, tuple_action
            ) * b
        # compare, over H1\G/H2
        lhs = transfer(a, H1, S3, tuple_action)
        rhs = OperatorSum.zero()
        for w in double_coset_reps(H2, S3, H1, perm_mul):
            h1w = conjugate_subgroup(H1, w, perm_mul, perm_inv)
            inter = [g for g in h1w if g in set(H2)]
            rhs = rhs + transfer(a.translate(w, tuple_action), inter, H2, tuple_action)
        assert lhs == rhs
        # mackey
        bb = _sym(OperatorSum.unit(t(), t()), H2)
        try:
            out = mackey_product(a, H1, bb, H2, S3, tuple_action)
        except ValueError:
            continue
        assert out == transfer(a, H1, S3, tuple_action) * transfer(
            bb, H2, S3, tuple_action
        )


def test_affine_stabilizer_is_finite_group():
    H = affine_stabilizer([(1, 3)], 2, 2)
    assert len(H) == 2  # identity and the swap-with-shift
    for w in H:
        assert w.apply((1, 3), 2) == (1, 3)


def test_affine_window_mackey_and_transitivity():
    n, r = 2, 2
    i, j, l = (1, 1), (1, 2), (2, 1)
    a = OperatorSum.unit(i, j)
    b = OperatorSum.unit(j, l)
    h1 = affine_stabilizer([i, j], n, r)
    h2 = affine_stabilizer([j, l], n, r)
    window = list(itertools.product(range(-3, 6), repeat=2))
    lhs, rhs = affine_mackey_window(a, h1, b, h2, n, window)
    assert lhs == rhs and not lhs.is_zero()

    hj = affine_stabilizer([j], n, r)
    mid = transfer(a, h1, hj, make_affine_action(n), lambda x, y: x.compose(y))
    assert affine_transfer_window(mid, hj, n, window) == affine_transfer_window(
        a, h1, n, window
    )


def test_affine_column_is_row_finite():
    n, r = 2, 2
    a = OperatorSum.unit((1, 1), (1, 2))
    h = affine_stabilizer([(1, 1), (1, 2)], n, r)
    col = affine_transfer_column(a, h, n, (3, 2))
    assert col and all(c == 1 for _, c in col)


def test_right_cosets_partition():
    S3 = all_perms(3)
    H = list(young_subgroup(((1, 2), (3,))))
    reps = right_cosets(H, S3, perm_mul)
    assert len(reps) * len(H) == len(S3)
