import random

import pytest

from affine_schur.homs import det_tilde_sharp, psi_as
from affine_schur.laurent import Laurent
from affine_schur.schur import (
    AlgebraElement,
    basis_indices,
    canonicalize,
    identity,
    multiply,
    split_offsets,
    transpose_antiauto,
)
from affine_schur.dual import (
    RowFiniteMap,
    delta_pair,
    det_multiplication_map,
    multiply_schur_oracle,
    pair,
    phi_as_map,
    sharp_compose_check,
)


def test_pair_examples():
    x = canonicalize((1, 2), (3, 0), 2)
    assert pair(x, x) == 1
    # n=1: (1,1|1,2) and (1,1|2,1) label the same orbit
    a = canonicalize((1, 1), (1, 2), 1)
    b = canonicalize((1, 1), (2, 1), 1)
    assert pair(a, b) == 1
    c = canonicalize((1, 1), (1, 1), 1)
    d = canonicalize((1, 1), (1, 2), 1)
    assert pair(c, d) == 0


def test_delta_pair_examples():
    # idempotent law transcribed
    n = 2
    i_i = canonicalize((1, 1), (1, 1), n)
    i_j = canonicalize((1, 1), (1, 4), n)
    assert delta_pair(i_i, i_j, i_j, n) == 1
    # finite case: only one middle tuple works
    x = canonicalize((1, 2), (1, 1), 2)
    y = canonicalize((1, 1), (1, 2), 2)
    c = canonicalize((1, 2), (1, 2), 2)
    assert delta_pair(x, y, c, 2) == 1
    # degree-two affine case: two middle tuples
    x = canonicalize((1, 1), (1, 2), 1)
    c = canonicalize((1, 1), (2, 2), 1)
    assert delta_pair(x, x, c, 1) == 2


def test_delta_pair_transpose_symmetry():
    rng = random.Random(11)
    n, r = 2, 2
    idxs = basis_indices(n, r, 1)
    for _ in range(150):
        x, y, c = (rng.choice(idxs) for _ in range(3))
        jx = next(iter(transpose_antiauto(AlgebraElement(n, r, {x: 1})).terms))
        jy = next(iter(transpose_antiauto(AlgebraElement(n, r, {y: 1})).terms))
        jc = next(iter(transpose_antiauto(AlgebraElement(n, r, {c: 1})).terms))
        assert delta_pair(x, y, c, n) == delta_pair(jy, jx, jc, n)


def test_pair_separates_points():
    idxs = basis_indices(2, 2, 1)
    for a in idxs[:40]:
        for b in idxs[:40]:
            assert pair(a, b) == (1 if a == b else 0)


def test_oracle_reproduces_worked_values():
    x = AlgebraElement.basis(1, (1, 1), (1, 2))
    want = AlgebraElement.basis(1, (1, 1), (1, 3)) + AlgebraElement.basis(
        1, (1, 1), (2, 2)
    ).scale(2)
    assert multiply_schur_oracle(x, x) == want
    e = identity(2, 2)
    y = AlgebraElement.basis(2, (1, 2), (3, 2))
    assert multiply_schur_oracle(y, e) == y
    z = AlgebraElement.basis(2, (1, 1), (1, 1))
    w = AlgebraElement.basis(2, (1, 2), (1, 2))
    assert multiply_schur_oracle(z, w).is_zero()


def test_oracle_matches_double_coset_engine():
    rng = random.Random(12)
    for (n, r) in [(1, 2), (2, 1), (2, 2), (3, 2)]:
        idxs = basis_indices(n, r, 1)
        for _ in range(60):
            x = AlgebraElement(n, r, {rng.choice(idxs): 1})
            y = AlgebraElement(n, r, {rng.choice(idxs): 1})
            assert multiply_schur_oracle(x, y) == multiply(x, y)


def test_sharp_compose_identity_and_sparse():
    win = basis_indices(2, 1, 1)
    ident = RowFiniteMap(lambda idx: [(idx, Laurent.one())])
    assert sharp_compose_check(ident, ident, win, win)
    rng = random.Random(13)
    table = {idx: [(rng.choice(win), Laurent.gen(1))] for idx in win}
    f = RowFiniteMap(lambda idx: table.get(idx, []))
    assert sharp_compose_check(f, f, win, win)


@pytest.mark.parametrize("n, r", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)])
def test_det_tilde_sharp_is_dual_to_det_multiplication(n, r):
    # S~(n,r) is the dual of the coordinate coalgebra, so the algebra-side
    # det~^# is the transpose of multiplication by the determinant:
    # <det~^#(xi_z), c_w> = <xi_z, det * c_w>.  The algebra side splits z into
    # sub-multisets, the coalgebra side forms Leibniz products.  A label z
    # reached from window 2 at det window 1 has its offsets in [-2, 2], so its
    # column at det window 2 over input window 2 is all of it.
    inputs = basis_indices(n, r, 2)
    det_1 = det_multiplication_map(n, 1)
    reached = {z for w in inputs for z in det_1.apply(w)}
    columns = det_multiplication_map(n, 2).sharp(inputs)
    for z in reached:
        xi_z = AlgebraElement(n, n + r, {z: 1})
        assert columns.apply(z) == det_tilde_sharp(xi_z).terms


@pytest.mark.parametrize("s", [-1, 2, 3])
@pytest.mark.parametrize("n, r", [(1, 2), (2, 1), (2, 2), (3, 1), (3, 2)])
def test_psi_as_is_dual_to_phi_as_map(n, r, s):
    # <psi_as(xi_z), c_w> = <xi_z, phi_as(c_w)>: psi_as(xi_z) has the one term
    # s*z, which lies in window 3 when z is reached from it
    inputs = basis_indices(n, r, 3)
    phi = phi_as_map(n, s)
    columns = phi.sharp(inputs)
    for z in {z for w in inputs for z in phi.apply(w)}:
        assert columns.apply(z) == psi_as(AlgebraElement(n, r, {z: 1}), s).terms


def test_phi_as_map_leaves_the_shared_split_memo_alone():
    # the map memoizes its image of each label itself, so splitting through
    # the process-wide split_offsets memo as well would only grow that memo
    inputs = basis_indices(2, 2, 3)
    split_offsets.cache_clear()
    phi = phi_as_map(2, 2)
    for w in inputs:
        phi.apply(w)
    assert split_offsets.cache_info().currsize == 0
