import importlib.util
import itertools
import random
from collections import Counter, defaultdict
from fractions import Fraction
from math import factorial, prod
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from affine_schur import schur
from affine_schur.dual import multiply_schur_oracle
from affine_schur.homs import psi_a
from affine_schur.laurent import Laurent
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
    weyl_act,
)
from affine_schur.tensor import multiply_via_action
from affine_schur.weyl import (
    AffineWeylElement,
    all_perms,
    apply_perm,
    bar,
    bar_tuple,
    double_cosets,
    equivalent_middle,
    meet,
    partition_of,
    young_order,
)


def test_canonicalize_examples():
    assert canonicalize((3, 2), (5, 0), 2) == ((1, 3), (2, 0))
    assert canonicalize((1, 1), (2, 4), 2) == ((1, 2), (1, 4))
    # normalization identity: top 3 over n=2 slides both entries down by 2
    assert canonicalize((3,), (2,), 2) == ((1, 0),)


def test_canonicalize_rejects_mismatch():
    with pytest.raises(ValueError):
        canonicalize((1, 2), (1,), 2)


perm2 = st.sampled_from(all_perms(2))
eps2 = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
weyl2 = st.builds(AffineWeylElement, perm2, eps2)
tup2 = st.tuples(st.integers(-4, 4), st.integers(-4, 4))


@given(tup2, tup2, weyl2)
def test_canonicalize_orbit_invariant(i, j, w):
    n = 2
    assert canonicalize(w.apply(i, n), w.apply(j, n), n) == canonicalize(i, j, n)


def test_canonicalize_exhaustive_small_window():
    n, r = 2, 2
    entries = range(-2 * n, 2 * n + 1)
    elems = [
        AffineWeylElement(s, e)
        for s in all_perms(r)
        for e in itertools.product((-1, 0, 1), repeat=r)
    ]
    for i in itertools.product(entries, repeat=r):
        for j in itertools.product((-2, 0, 1, 3), repeat=r):
            base = canonicalize(i, j, n)
            # idempotent
            assert canonicalize(index_tops(base), index_bottoms(base), n) == base
            for w in elems:
                assert canonicalize(w.apply(i, n), w.apply(j, n), n) == base


def test_multiply_worked_examples():
    x = AlgebraElement.basis(1, (1, 1), (1, 2))
    want = AlgebraElement.basis(1, (1, 1), (1, 3)) + AlgebraElement.basis(
        1, (1, 1), (2, 2)
    ).scale(2)
    assert multiply(x, x) == want

    a = AlgebraElement.basis(2, (1, 2), (1, 1))
    b = AlgebraElement.basis(2, (1, 1), (1, 2))
    assert multiply(a, b) == AlgebraElement.basis(2, (1, 2), (1, 2)) + AlgebraElement.basis(
        2, (1, 2), (2, 1)
    )

    ii = AlgebraElement.basis(2, (1, 1), (1, 1))
    ij = AlgebraElement.basis(2, (1, 1), (1, 4))
    assert multiply(ii, ij) == ij


def test_vanishing_rule():
    # zero exactly when the middle residue orbits differ
    x = AlgebraElement.basis(2, (1, 1), (1, 1))
    y = AlgebraElement.basis(2, (1, 2), (1, 2))
    assert multiply(x, y).is_zero()
    y2 = AlgebraElement.basis(2, (1, 1), (1, 2))
    assert not multiply(x, y2).is_zero()


def test_multiply_skips_non_composable_pairs():
    # bottom residues (1, 1) against tops (1, 2): the product is zero and is
    # decided without a structure-constant lookup
    x = AlgebraElement.basis(2, (1, 2), (1, 3))
    y = AlgebraElement.basis(2, (1, 2), (1, 2))
    before = structure_constants.cache_info()
    assert multiply(x, y).is_zero()
    after = structure_constants.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)
    assert multiply_schur_oracle(x, y).is_zero()
    assert multiply_via_action(x, y).is_zero()


def _mixed_elements(rng, n, r):
    """Seeded x, y with Laurent coefficients; some pairs of terms compose."""
    idxs = basis_indices(n, r, 1)
    by_tops = defaultdict(list)
    for p in idxs:
        by_tops[index_tops(p)].append(p)

    def coeff():
        return Laurent.gen(rng.randint(-2, 2), rng.choice((1, 2, 3, -1)))

    xs = rng.sample(idxs, 3)
    partners = [by_tops[tuple(sorted(bar_tuple(index_bottoms(p), n)))] for p in xs[:2]]
    ys = rng.sample(idxs, 2) + [rng.choice(ps) for ps in partners]
    return (
        AlgebraElement(n, r, [(p, coeff()) for p in xs]),
        AlgebraElement(n, r, [(p, coeff()) for p in ys]),
    )


@pytest.mark.parametrize("n", [2, 3])
def test_multiply_looks_up_only_composable_pairs(n):
    rng = random.Random(20261018 + n)
    for r in (1, 2, 3):
        mixed = 0
        for _ in range(4):
            x, y = _mixed_elements(rng, n, r)
            pairs = [(xp, yp) for xp in x.terms for yp in y.terms]
            composable = sum(
                sorted(bar_tuple(index_bottoms(xp), n)) == list(index_tops(yp))
                for xp, yp in pairs
            )
            mixed += 0 < composable < len(pairs)
            before = structure_constants.cache_info()
            product = multiply(x, y)
            after = structure_constants.cache_info()
            assert after.hits + after.misses == before.hits + before.misses + composable
            assert product == multiply_schur_oracle(x, y) == multiply_via_action(x, y)
        assert mixed, "no sampled product mixed composable and non-composable pairs"


_VALUES = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 2))


def _several_exponents(rng, scale=1):
    """A seeded Laurent coefficient with one to three exponents and some
    Fraction values."""
    exps = rng.sample(range(-2, 3), rng.randint(1, 3))
    return Laurent({e: scale * rng.choice(_VALUES) for e in exps})


@pytest.mark.parametrize("n", [1, 2, 3])
def test_multiply_matches_the_generic_bilinear_path(n):
    # x = p E_i + p A + c/2, y = p A - p E_j + 2d, with A from i to j and the
    # idempotents E_i, E_j: E_i A and A (-E_j) cancel on the label A exactly
    rng = random.Random("bilinear:%d" % n)
    cancelled = 0
    for r in range(1, 5):
        for _ in range(8):
            a, _ = _seeded_composable(rng, n, r)
            c, d = _seeded_composable(rng, n, r)
            e_i = tuple((t, t) for t in index_tops(a))
            e_j = tuple((v, v) for v in sorted(split_offsets(a, n)[0]))
            p = _several_exponents(rng)
            x = AlgebraElement(n, r, [(e_i, p), (a, p), (c, _several_exponents(rng, Fraction(1, 2)))])
            y = AlgebraElement(n, r, [(a, p), (e_j, -p), (d, _several_exponents(rng, 2))])
            got = multiply(x, y)
            want = schur.bilinear(x, y, structure_constants)
            assert got == want
            assert list(got.terms) == list(want.terms)
            cancelled += a not in got.terms
            for coeff in got.terms.values():
                assert coeff, "a zero-sum label is stored"
                for value in coeff.terms.values():
                    assert value != 0
                    assert type(value) is int or value.denominator != 1, value
    assert cancelled


def test_multiply_copies_a_shared_coefficient_on_write():
    # xi_A xi_C reaches L2 and L1 with z = 1, so both labels get one shared
    # coefficient; xi_B xi_C reaches L1 again, which must copy, not mutate
    n, r = 1, 2
    a, b, c = ((1, 0), (1, 2)), ((1, 1), (1, 1)), ((1, 0), (1, 1))
    l1, l2 = ((1, 0), (1, 1)), ((1, -1), (1, 2))
    assert structure_constants(a, c, n) == {l2: 1, l1: 1}
    assert structure_constants(b, c, n) == {l1: 1}
    memo = {(xp, c): dict(structure_constants(xp, c, n)) for xp in (a, b)}
    p, q, s = Laurent({1: 2, 0: 1}), Laurent({-1: 3}), Laurent({0: Fraction(1, 2)})
    y = AlgebraElement(n, r, {c: q})
    earlier = multiply(AlgebraElement(n, r, {a: p}), y)
    assert earlier.terms[l1] is earlier.terms[l2]
    before = {label: dict(coeff.terms) for label, coeff in earlier.terms.items()}
    x = AlgebraElement(n, r, {a: p, b: s})
    got = multiply(x, y)
    assert got.terms[l2].terms == (p * q).terms == {0: 6, -1: 3}
    assert got.terms[l1] == p * q + s * q
    assert {label: coeff.terms for label, coeff in earlier.terms.items()} == before
    assert {key: structure_constants(*key, n) for key in memo} == memo
    want = schur.bilinear(x, y, structure_constants)
    assert got == want
    assert list(got.terms) == list(want.terms) == [l2, l1]


def test_multiply_stores_cancelled_exponents_and_integral_fractions_normalized():
    # xi_x^2 = xi_{(1,1)|(1,3)} + 2 xi_{(1,1)|(2,2)}; (a + 1)(a - 1) has no a^1 term
    x = ((1, 1), (1, 2))
    zs = {((1, 1), (1, 3)): 1, ((1, 2), (1, 2)): 2}
    for left, right in [
        (Laurent({1: 1, 0: 1}), Laurent({1: 1, 0: -1})),
        (Laurent({1: Fraction(1, 2), 0: Fraction(1, 2)}), Laurent({1: 2, 0: -2})),
    ]:
        got = multiply(AlgebraElement(1, 2, {x: left}), AlgebraElement(1, 2, {x: right}))
        assert list(got.terms) == list(zs)
        for label, z in zs.items():
            coeff = got.terms[label].terms
            assert coeff == {2: z, 0: -z} and 1 not in coeff
            assert all(type(v) is int for v in coeff.values()), coeff
    half = multiply(AlgebraElement(1, 2, {x: Fraction(1, 2)}), AlgebraElement(1, 2, {x: 1}))
    assert half.terms[((1, 1), (1, 3))].terms == {0: Fraction(1, 2)}
    assert type(half.terms[((1, 2), (1, 2))].terms[0]) is int


def test_structure_constants_positive_integers():
    rng = random.Random(5)
    idxs = basis_indices(2, 2, 1)
    for _ in range(200):
        xp, yp = rng.choice(idxs), rng.choice(idxs)
        for coeff in structure_constants(xp, yp, 2).values():
            assert isinstance(coeff, int) and coeff > 0


def test_identity_examples():
    assert identity(1, 2) == AlgebraElement.basis(1, (1, 1), (1, 1))
    e22 = identity(2, 2)
    assert set(e22.terms) == {
        ((1, 1), (1, 1)),
        ((1, 1), (2, 2)),
        ((2, 2), (2, 2)),
    }
    rng = random.Random(6)
    idxs = basis_indices(2, 2, 2)
    for _ in range(30):
        x = AlgebraElement(2, 2, {rng.choice(idxs): Laurent.gen(1, 3)})
        assert multiply(e22, x) == x and multiply(x, e22) == x


def test_associativity_random():
    rng = random.Random(7)
    idxs = basis_indices(2, 2, 1)
    for _ in range(150):
        a, b, c = (AlgebraElement(2, 2, {rng.choice(idxs): 1}) for _ in range(3))
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_weyl_act_examples():
    rho = AffineWeylElement.rho(2)
    x = AlgebraElement.basis(2, (1, 2), (1, 4))
    assert weyl_act(rho, x) == AlgebraElement.basis(2, (1, 2), (3, 2))
    assert weyl_act(AffineWeylElement.identity(2), x) == x
    y = x
    for _ in range(2):
        y = weyl_act(rho, y)
    assert y == x


def test_weyl_act_is_automorphism():
    rng = random.Random(8)
    idxs = basis_indices(2, 2, 1)
    syms = [AffineWeylElement.rho(2), AffineWeylElement.s(2, 1), AffineWeylElement.s(2, 2)]
    for w in syms:
        for _ in range(40):
            x = AlgebraElement(2, 2, {rng.choice(idxs): 1})
            y = AlgebraElement(2, 2, {rng.choice(idxs): 1})
            assert weyl_act(w, multiply(x, y)) == multiply(weyl_act(w, x), weyl_act(w, y))
        assert weyl_act(w, identity(2, 2)) == identity(2, 2)


def test_weyl_symmetry_window_validation():
    with pytest.raises(ValueError):
        AffineWeylElement.from_window((1, 3))  # residues collide mod 2
    w = AffineWeylElement.from_window((0, 1))
    assert w(1) == 0 and w(2) == 1 and w(3) == 2
    assert w.inverse()(0) == 1 and w.inverse().compose(w).window == (1, 2)


def test_transpose_examples():
    x = AlgebraElement.basis(2, (1, 1), (1, 3))
    assert transpose_antiauto(x) == AlgebraElement.basis(2, (1, 1), (-1, 1))
    e = identity(2, 2)
    assert transpose_antiauto(e) == e
    rng = random.Random(9)
    idxs = basis_indices(2, 2, 2)
    for _ in range(40):
        y = AlgebraElement(2, 2, {rng.choice(idxs): Laurent.gen(-1)})
        assert transpose_antiauto(transpose_antiauto(y)) == y


def test_transpose_antimultiplicative():
    rng = random.Random(10)
    idxs = basis_indices(2, 2, 1)
    for _ in range(60):
        x = AlgebraElement(2, 2, {rng.choice(idxs): 1})
        y = AlgebraElement(2, 2, {rng.choice(idxs): 1})
        assert transpose_antiauto(multiply(x, y)) == multiply(
            transpose_antiauto(y), transpose_antiauto(x)
        )


def test_text_and_json_forms():
    x = AlgebraElement(2, 2, {((1, 3), (2, 0)): Laurent.one()})
    assert str(x) == "xi[(1,2)|(3,0)]"
    data = x.to_json()
    assert data == {"n": 2, "r": 2, "terms": [{"coeff": [[0, "1"]], "pairs": [[1, 3], [2, 0]]}]}
    assert AlgebraElement.from_json(data) == x
    y = x.scale(Laurent.gen(1, 2)) + AlgebraElement.basis(2, (1, 1), (1, 1))
    assert AlgebraElement.from_json(y.to_json()) == y


def test_context_mismatch():
    x = AlgebraElement.basis(2, (1,), (1,))
    y = AlgebraElement.basis(2, (1, 1), (1, 1))
    with pytest.raises(ValueError):
        multiply(x, y)


def test_specialize():
    x = AlgebraElement.basis(2, (1,), (3,)).scale(Laurent.gen(2))
    assert x.specialize(3) == AlgebraElement.basis(2, (1,), (3,)).scale(9)


# -- the double-coset formula as a reference ------------------------------------

def _double_coset_product(x_pairs, y_pairs, n):
    """xi_x * xi_y by brute force: Young-subgroup indices summed over the
    double cosets H2\\G/H1 that ``double_cosets`` lists element by element."""
    i = index_tops(x_pairs)
    j, eps = split_offsets(x_pairs, n)
    k = index_tops(y_pairs)
    if sorted(j) != sorted(k):
        return {}
    w = equivalent_middle(k, j, n)
    l_aligned = apply_perm(index_bottoms(y_pairs), w.sigma)
    l = bar_tuple(l_aligned, n)
    eps2 = tuple((b - v) // n for b, v in zip(l_aligned, l))
    part_i, part_j, part_eps = partition_of(i), partition_of(j), partition_of(eps)
    h2 = meet(part_j, partition_of(l), partition_of(eps2))
    h1 = meet(part_i, part_j, part_eps)
    out = {}
    for delta in double_cosets(h2, part_j, h1):
        l_d = apply_perm(l, delta)
        eps2_d = apply_perm(eps2, delta)
        eps_out = tuple(a + b for a, b in zip(eps2_d, eps))
        numer = young_order(meet(part_i, partition_of(l_d), partition_of(eps_out)))
        denom = young_order(
            meet(part_i, part_j, partition_of(l_d), partition_of(eps2_d), part_eps)
        )
        assert numer % denom == 0
        idx = canonicalize(i, tuple(v + n * e for v, e in zip(l_d, eps_out)), n)
        out[idx] = out.get(idx, 0) + numer // denom
    return out


def _composable_sample(n, r, window, count):
    """`count` distinct seeded pairs (x, y) whose right factor's tops are the
    left factor's bottom residues."""
    idxs = basis_indices(n, r, window)
    by_tops = defaultdict(list)
    for y in idxs:
        by_tops[index_tops(y)].append(y)
    rng = random.Random("%d:%d:%d" % (n, r, window))
    pairs = set()
    while len(pairs) < count:
        x = rng.choice(idxs)
        pairs.add((x, rng.choice(by_tops[tuple(sorted(bar_tuple(index_bottoms(x), n)))])))
    return sorted(pairs)


@pytest.mark.parametrize("n,r", [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (3, 1)])
def test_product_matches_double_cosets_exhaustive(n, r):
    idxs = basis_indices(n, r, 1)
    for x in idxs:
        for y in idxs:
            assert structure_constants(x, y, n) == _double_coset_product(x, y, n)


@pytest.mark.parametrize(
    "n,r,count", [(2, 3, 1000), (2, 4, 1000), (3, 2, 1000), (3, 3, 600), (3, 4, 400)]
)
def test_product_matches_double_cosets_sampled(n, r, count):
    for x, y in _composable_sample(n, r, 1, count):
        assert structure_constants(x, y, n) == _double_coset_product(x, y, n)


def _n1_label(offsets):
    return tuple(sorted((1, 1 + e) for e in offsets))


_TYPED_R7 = [
    ((-2, -2, 0, 0, 1, 2, -1), (1, 1, -1, -1, 0, 2, -2)),
    ((1, 1, 1, 0, -1, 2, -2), (0, 0, 2, 2, -1, 1, -2)),
    ((0, 0, 0, 1, 1, -1, 2), (1, 1, 1, 0, -1, 2, -2)),
    ((0, 1, 2, 3, -1, -2, -3), (0, 0, 0, 0, 1, 1, 1)),
]


@pytest.mark.parametrize("left,right", _TYPED_R7)
def test_product_matches_double_cosets_typed_r7(left, right):
    x, y = _n1_label(left), _n1_label(right)
    assert structure_constants(x, y, 1) == _double_coset_product(x, y, 1)


# -- n = 1 beyond the brute-force cap -------------------------------------------

def _n1_grid(r):
    """Every n = 1 label of degree r with offsets in {-1, 0, 1}."""
    return [
        AlgebraElement(1, r, {_n1_label(offsets): 1})
        for offsets in itertools.combinations_with_replacement((-1, 0, 1), r)
    ]


@pytest.mark.parametrize("r", [9, 10, 11, 12])
def test_large_rank_associativity(r):
    grid = _n1_grid(r)
    rng = random.Random(r)
    for _ in range(15):
        a, b, c = (rng.choice(grid) for _ in range(3))
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


@pytest.mark.parametrize("r", [9, 10, 11, 12])
def test_large_rank_identity_and_psi_a(r):
    grid = _n1_grid(r)
    one = identity(1, r)
    rng = random.Random(100 + r)
    for x in grid:
        assert multiply(one, x) == x and multiply(x, one) == x
    for _ in range(80):
        x, y = rng.choice(grid), rng.choice(grid)
        assert psi_a(multiply(x, y)) == multiply(psi_a(x), psi_a(y))


# -- the table enumeration as a reference -----------------------------------------

def _table_dfs_product(x_pairs, y_pairs, n):
    """xi_x * xi_y by visiting every contingency table depth first, one
    recursive call per node: the reference for both the values and the key
    order of ``structure_constants``."""
    i, (j, eps) = index_tops(x_pairs), split_offsets(x_pairs, n)
    k, (l, eps2) = index_tops(y_pairs), split_offsets(y_pairs, n)
    if sorted(j) != sorted(k):
        return {}
    rows, cols = defaultdict(Counter), defaultdict(Counter)
    for c, top, e in zip(j, i, eps):
        rows[c][top, e] += 1
    for c, res, e in zip(k, l, eps2):
        cols[c][res, e] += 1

    fact = [factorial(m) for m in range(len(x_pairs) + 1)]
    plan = []
    for c, row_types in rows.items():
        caps = list(cols[c].values())
        for (top, e), need in row_types.items():
            outs = [(top, res + n * (e + e2)) for res, e2 in cols[c]]
            plan.append((need, caps, outs))

    out = {}
    counts = {}
    chosen = []

    def fill(row, col, left, numer, denom):
        if not left:
            row += 1
            if row == len(plan):
                idx = tuple(sorted(chosen))
                out[idx] = out.get(idx, 0) + numer // denom
                return
            col, left = 0, plan[row][0]
        _, caps, outs = plan[row]
        for b in range(col, len(caps)):
            cap = caps[b]
            if not cap:
                continue
            pair = outs[b]
            had = counts.get(pair, 0)
            for m in range(1, min(left, cap) + 1):
                caps[b] = cap - m
                counts[pair] = had + m
                chosen.extend([pair] * m)
                fill(row, b + 1, left - m, numer * fact[had + m] // fact[had], denom * fact[m])
                del chosen[-m:]
            caps[b] = cap
            counts[pair] = had

    fill(-1, 0, 0, 1, 1)
    return out


def _bench_module(name):
    """A module of the benchmark directory, loaded by path and never modified."""
    path = Path(__file__).resolve().parents[1] / "bench" / ("%s.py" % name)
    spec = importlib.util.spec_from_file_location("bench_%s" % name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_inputs = _bench_module("inputs")
symfunc = _bench_module("symfunc")


def _assert_matches_table_dfs(x, y, n):
    got, want = structure_constants(x, y, n), _table_dfs_product(x, y, n)
    assert got == want
    assert list(got) == list(want), "same terms, different key order"


def test_green_matches_table_dfs():
    # the benchmark's products at seed 1: the n = 2, 3 grid (r = 4-7, window
    # 1) and the typed and all-distinct n = 1, r = 7, 8 products
    for n, _, x, y in bench_inputs.grid_pairs(1) + bench_inputs.heavy_pairs(1):
        _assert_matches_table_dfs(x, y, n)
    for left, right in _TYPED_R7:
        _assert_matches_table_dfs(_n1_label(left), _n1_label(right), 1)


def test_green_division_is_checked(monkeypatch):
    # With m! replaced by m + 1 the table sum of xi[(1,1)|(1,1)] *
    # xi[(1,1)|(1,2)] comes out as 8/3, which must raise, not floor to 2.
    monkeypatch.setattr(schur, "factorial", lambda m: m + 1)
    with pytest.raises(ArithmeticError, match="non-integral"):
        schur._green_product(_n1_label((0, 0)), _n1_label((0, 1)), 1)
    # Repeated row types and an output pair reached from two (row, column)
    # cells: many states per row reach the final division.
    x = _n1_label((0, 0, 1, 1, 2))
    with pytest.raises(ArithmeticError, match="non-integral"):
        schur._green_product(x, x, 1)


@pytest.mark.parametrize("y", [
    # block 2 emits block 1's four output pairs, and two of its tables meet
    ((1, 1), (1, 3), (2, 1), (2, 3)),
    # block 2 emits two of block 1's output pairs after a new one
    ((1, 1), (1, 3), (2, -1), (2, 1)),
])
def test_green_carries_states_across_blocks(y):
    _assert_matches_table_dfs(((1, 1), (1, 2), (2, 1), (2, 2)), y, 2)


@pytest.mark.parametrize("r", [255, 256, 257])
def test_green_digits_one_byte_and_wider(r):
    # At r = 256 an output multiplicity and a column capacity no longer fit
    # in one byte.
    one = identity(1, r)
    assert multiply(one, one) == one
    x = AlgebraElement(1, r, {((1, 1),) * (r - 1) + ((1, 2),): 1})
    assert multiply(x, one) == x == multiply(one, x)


# -- independent checks: n = 1 symmetric functions and orbit counts ---------------

def test_green_matches_symmetric_functions_n1():
    # S(1, r) is the ring of symmetric Laurent polynomials (bench/symfunc.py)
    rng = random.Random("symfunc")
    pairs = [(symfunc.label_of(range(-4, 5)),) * 2]  # all distinct, 26231 terms
    for r in (8, 9, 10):
        for _ in range(3):
            left = [rng.randint(-1, 1) for _ in range(r)]
            right = [rng.randint(-2, 2) for _ in range(r)]
            pairs.append((symfunc.label_of(left), symfunc.label_of(right)))
    for x, y in pairs:
        assert structure_constants(x, y, 1) == symfunc.label_product(x, y)


def _stabilizer_order(values):
    return prod(factorial(m) for m in Counter(values).values())


def _row_count(pairs):
    """|Stab(tops) / Stab(pairs)|."""
    return _stabilizer_order(index_tops(pairs)) // _stabilizer_order(pairs)


def _column_count(pairs, n):
    """|Stab(bottom residues) / Stab(pairs)|."""
    residues = tuple(bar(b, n) for b in index_bottoms(pairs))
    return _stabilizer_order(residues) // _stabilizer_order(pairs)


@st.composite
def composable_labels(draw):
    """(n, x, y) with y's tops a rearrangement of x's bottom residues."""
    n = draw(st.integers(1, 3))
    r = draw(st.integers(1, 8))
    bottoms = st.lists(
        st.builds(lambda res, e: res + n * e, st.integers(1, n), st.integers(-1, 1)),
        min_size=r,
        max_size=r,
    )
    x_tops = draw(st.lists(st.integers(1, n), min_size=r, max_size=r))
    x_bottoms = draw(bottoms)
    y_tops = draw(st.permutations([bar(b, n) for b in x_bottoms]))
    x = canonicalize(tuple(x_tops), tuple(x_bottoms), n)
    return n, x, canonicalize(tuple(y_tops), tuple(draw(bottoms)), n)


@given(composable_labels())
def test_green_preserves_orbit_counts(labels):
    # sum_z c_z R(z) = R(x) R(y) and sum_z c_z C(z) = C(x) C(y)
    n, x, y = labels
    product = structure_constants(x, y, n)
    assert product
    assert sum(c * _row_count(z) for z, c in product.items()) == _row_count(x) * _row_count(y)
    assert sum(c * _column_count(z, n) for z, c in product.items()) == (
        _column_count(x, n) * _column_count(y, n)
    )


# -- symmetries of the product beyond the oracles' reach --------------------------

def _seeded_composable(rng, n, r):
    """Labels (x, y) with offsets in -1..1 and y's tops a rearrangement of x's
    bottom residues."""
    def bottoms():
        return tuple(rng.randint(1, n) + n * rng.randint(-1, 1) for _ in range(r))

    x_bottoms = bottoms()
    y_tops = [bar(b, n) for b in x_bottoms]
    rng.shuffle(y_tops)
    x = canonicalize(tuple(rng.randint(1, n) for _ in range(r)), x_bottoms, n)
    return x, canonicalize(tuple(y_tops), bottoms(), n)


@pytest.mark.parametrize("n,r", [(2, 7), (2, 8), (3, 7), (3, 8)])
def test_transpose_reverses_products_at_high_rank(n, r):
    # (xy)^T = y^T x^T where neither oracle can follow (30-60 s a pair at r = 8)
    rng = random.Random("transpose:%d:%d" % (n, r))
    for _ in range(30):
        x, y = (AlgebraElement(n, r, {label: 1}) for label in _seeded_composable(rng, n, r))
        xy = multiply(x, y)
        assert not xy.is_zero()
        assert transpose_antiauto(xy) == multiply(transpose_antiauto(y), transpose_antiauto(x))


@pytest.mark.parametrize("r", [8, 9, 10])
def test_n1_products_commute_at_high_rank(r):
    # S(1, r) is commutative: it is the ring of symmetric Laurent polynomials
    rng = random.Random("commute:%d" % r)
    for _ in range(10):
        x, y = (
            AlgebraElement(1, r, {_n1_label(rng.randint(-2, 2) for _ in range(r)): 1})
            for _ in range(2)
        )
        xy = multiply(x, y)
        assert not xy.is_zero()
        assert xy == multiply(y, x)
