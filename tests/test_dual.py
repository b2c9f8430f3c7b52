import itertools
import random

import pytest

from affine_schur import dual
from affine_schur.homs import det_tilde_sharp, psi_as
from affine_schur.schur import (
    AlgebraElement,
    basis_indices,
    canonicalize,
    identity,
    index_bottoms,
    index_tops,
    multiply,
    split_offsets,
    structure_constants,
    transpose_antiauto,
)
from affine_schur.dual import (
    _schur_basis_product,
    det_multiplication_map,
    multiply_schur_oracle,
    phi_as_map,
)
from affine_schur.weyl import affine_images, bar_tuple


# -- the coalgebra's pairings at the level of the definition ----------------------
#
# The reference the one-middle product is checked against: the coefficient of
# xi_c in xi_x * xi_y is delta_pair(x, y, c), the number of middle tuples s
# that split c into an x-compatible and a y-compatible part, taken over every
# middle and every candidate c.

def pair(xi_pairs, c_pairs):
    """Evaluation pairing of a basis element against a coordinate monomial."""
    return 1 if tuple(xi_pairs) == tuple(c_pairs) else 0


def _middles_matching(x_pairs, p, n):
    """Distinct s with (p, s) in the orbit of x = (i, j), p a permutation of i:
    s = j.w for a w with i.w = p, so s_k = p_k + j_m - i_m when w sends k to m."""
    return set(affine_images(index_tops(x_pairs), p, index_bottoms(x_pairs), n))


def delta_pair(x_pairs, y_pairs, c_pairs, n):
    """Number of middle tuples s splitting c as (x-compatible, y-compatible)."""
    p = index_tops(c_pairs)
    q = index_bottoms(c_pairs)
    if sorted(p) != sorted(index_tops(x_pairs)):
        return 0
    return sum(1 for s in _middles_matching(x_pairs, p, n)
               if canonicalize(s, q, n) == tuple(y_pairs))


def all_middles_product(x_pairs, y_pairs, n):
    """xi_x * xi_y as {c: delta_pair(x, y, c)}: the candidates c are collected
    over every middle s and every alignment of y onto s, and each is counted
    by rescanning every middle."""
    i = index_tops(x_pairs)
    k, l = index_tops(y_pairs), index_bottoms(y_pairs)
    middles = _middles_matching(x_pairs, i, n)
    candidates = {canonicalize(i, bottom, n)
                  for s in middles for bottom in affine_images(k, s, l, n)}
    out = {}
    for c in candidates:
        q = index_bottoms(c)
        z = sum(1 for s in middles if canonicalize(s, q, n) == y_pairs)
        if z:
            out[c] = z
    return out


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


def test_one_middle_product_matches_all_middles_on_every_small_pair():
    # every composable basis pair at n <= 2, r <= 3, window 1: the right
    # factor's tops are the left factor's bottom residues
    count = 0
    for n, r in itertools.product((1, 2), (1, 2, 3)):
        idxs = basis_indices(n, r, 1)
        by_tops = {}
        for y in idxs:
            by_tops.setdefault(index_tops(y), []).append(y)
        for x in idxs:
            for y in by_tops.get(tuple(sorted(bar_tuple(index_bottoms(x), n))), ()):
                assert _schur_basis_product(x, y, n) == all_middles_product(x, y, n)
                count += 1
    assert count == 40419


def _seeded_composable_pair(rng, n, r):
    """Labels x, y at n with offsets in {-1, 0, 1}, y's tops x's bottom residues."""
    x = canonicalize([rng.randint(1, n) for _ in range(r)],
                     [rng.randint(1 - n, 2 * n) for _ in range(r)], n)
    y = canonicalize(bar_tuple(index_bottoms(x), n),
                     [rng.randint(1 - n, 2 * n) for _ in range(r)], n)
    return x, y


def test_one_middle_product_matches_all_middles_on_seeded_pairs():
    rng = random.Random(13)
    for n, r in itertools.product((1, 2, 3), (3, 4, 5)):
        for _ in range(12):
            x, y = _seeded_composable_pair(rng, n, r)
            want = all_middles_product(x, y, n)
            assert want
            assert _schur_basis_product(x, y, n) == want


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("r", [7, 8])
def test_oracle_matches_greens_engine_at_degree_seven_and_eight(n, r):
    # beyond the tensor oracle's reach: Green's values against the one-middle
    # count on ten seeded composable pairs per cell
    rng = random.Random("one-middle:%d:%d" % (n, r))
    for _ in range(10):
        x, y = _seeded_composable_pair(rng, n, r)
        want = structure_constants(x, y, n)
        assert want
        assert _schur_basis_product(x, y, n) == want


def test_oracle_matches_greens_engine_on_the_heavy_degree_seven_product():
    x = AlgebraElement.basis(1, (1,) * 7, (-3, -1, 0, 1, 2, 3, 4))
    y = AlgebraElement.basis(1, (1,) * 7, (-3, -2, 0, 1, 2, 3, 5))
    want = multiply(x, y)
    assert len(want.terms) > 1000
    assert multiply_schur_oracle(x, y) == want


def test_oracle_rejects_a_non_integral_count(monkeypatch):
    # x = [(1,1)|(1,1)] times [(1,1)|(1,2)] at n = 1 meets two bottoms q that
    # both give the one output; a stabilizer order of 3 for x and of 1 for
    # every other label leaves it 2 / 3
    x = ((1, 1), (1, 1))
    monkeypatch.setattr(dual, "stabilizer_order", lambda pairs: 3 if pairs == x else 1)
    with pytest.raises(ArithmeticError, match="non-integral middle-tuple count"):
        dual._schur_basis_product(x, ((1, 1), (1, 2)), 1)


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
