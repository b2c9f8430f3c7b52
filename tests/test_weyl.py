import itertools
import random
from collections import Counter
from math import factorial, prod

import pytest
from hypothesis import given, strategies as st

from affine_schur import dual, tensor, weyl
from affine_schur.verify import run_suite
from affine_schur.weyl import (
    AffineWeylElement,
    affine_images,
    affine_matchings,
    all_perms,
    bar,
    double_cosets,
    equivalent_middle,
    meet,
    partition_of,
    refines,
    stabilizer,
    stabilizer_order,
    tuple_orbit_rep,
    young_order,
    young_subgroup,
)


def test_apply_examples():
    shift = AffineWeylElement((1, 2), (1, 0))
    assert shift.apply((1, 4), 2) == (3, 4)
    swap = AffineWeylElement((2, 1), (0, 0))
    assert swap.apply((1, 4), 2) == (4, 1)
    w = AffineWeylElement((2, 1), (-1, 1))
    # direct evaluation: (2,1) + (-1,1) over n=1; this element fixes (1,2)
    assert w.apply((1, 2), 1) == (1, 2)


def test_compose_examples():
    e1 = AffineWeylElement((1, 2), (1, 2))
    e2 = AffineWeylElement((1, 2), (3, -1))
    assert e1.compose(e2) == AffineWeylElement((1, 2), (4, 1))
    s1 = AffineWeylElement((2, 1), (0, 0))
    assert s1.compose(s1) == AffineWeylElement.identity(2)


perm3 = st.sampled_from(all_perms(3))
eps3 = st.tuples(*[st.integers(-2, 2)] * 3)
weyl3 = st.builds(AffineWeylElement, perm3, eps3)
tuple3 = st.tuples(*[st.integers(-4, 4)] * 3)


@given(tuple3, weyl3, weyl3, st.integers(1, 3))
def test_right_action_law(t, w1, w2, n):
    assert w1.compose(w2).apply(t, n) == w2.apply(w1.apply(t, n), n)


@given(weyl3, st.integers(1, 3), tuple3)
def test_inverse(w, n, t):
    assert w.compose(w.inverse()).is_identity()
    assert w.inverse().apply(w.apply(t, n), n) == t


def test_exhaustive_action_law_r2():
    n = 2
    tuples = list(itertools.product(range(-2 * n, 2 * n + 1), repeat=2))
    elems = [
        AffineWeylElement(s, e)
        for s in all_perms(2)
        for e in itertools.product((-1, 0, 1), repeat=2)
    ]
    for t in tuples:
        for w1 in elems:
            for w2 in elems:
                assert w1.compose(w2).apply(t, n) == w2.apply(w1.apply(t, n), n)


def test_value_action_is_the_place_action_read_on_z():
    # (sigma, eps) is the affine permutation W(k) = sigma(k) + r*eps_k of Z;
    # the place action t.w is T o W with T(k + r*q) = t_k + n*q
    rng = random.Random(18)
    for _ in range(300):
        r, n = rng.randint(1, 5), rng.randint(1, 5)
        w, v = (AffineWeylElement(rng.choice(all_perms(r)),
                                  [rng.randint(-2, 2) for _ in range(r)])
                for _ in range(2))
        t = [rng.randint(-6, 6) for _ in range(r)]

        def T(z):
            return t[bar(z, r) - 1] + n * ((z - bar(z, r)) // r)

        assert w.apply(t, n) == tuple(T(w(k)) for k in range(1, r + 1))
        assert AffineWeylElement.from_window(w.window) == w
        for z in range(-2 * r, 2 * r + 1):
            assert w.compose(v)(z) == w(v(z))
            assert w.inverse()(w(z)) == z
    assert AffineWeylElement.rho(3).window == (0, 1, 2)
    assert AffineWeylElement.s(3, 1).window == (2, 1, 3)
    assert AffineWeylElement.s(3, 3).window == (0, 2, 4)
    assert AffineWeylElement.s(1, 1).window == (0,)


def test_stabilizer_examples():
    assert stabilizer((1, 1, 2), 2) == ((1, 2), (3,))
    assert stabilizer((1, 2, 3), 3) == ((1,), (2,), (3,))
    assert stabilizer((1, 1, 1), 1) == ((1, 2, 3),)
    with pytest.raises(ValueError):
        stabilizer((0, 1), 2)


def test_meet_examples():
    assert meet(((1, 2), (3,)), ((1,), (2, 3))) == ((1,), (2,), (3,))
    p = ((1, 3), (2,))
    assert meet(p, p) == p
    assert meet(((1, 2, 3),), ((1, 2), (3,))) == ((1, 2), (3,))


def test_young_order():
    assert young_order(((1, 2), (3,))) == 2
    assert young_order(((1,), (2,), (3,))) == 1
    assert young_order(((1, 2, 3, 4),)) == 24


def test_double_cosets_examples():
    r2 = ((1,), (2,))
    assert double_cosets(r2, ((1, 2),), r2) == ((1, 2), (2, 1))
    h1 = partition_of((1, 1, 2))  # <s1>
    h2 = partition_of((1, 2, 2))  # <s2>
    reps = double_cosets(h2, ((1, 2, 3),), h1)
    assert len(reps) == 2
    g = ((1, 2), (3,))
    assert double_cosets(g, g, g) == ((1, 2, 3),)


def test_double_cosets_partition_property():
    # the union of the double cosets is the whole group, counted exactly
    for h1_tuple in [(1, 1, 2), (1, 2, 2), (1, 2, 3), (1, 1, 1)]:
        for h2_tuple in [(1, 1, 2), (1, 2, 3)]:
            h1 = partition_of(h1_tuple)
            h2 = partition_of(h2_tuple)
            g = ((1, 2, 3),)
            reps = double_cosets(h2, g, h1)
            seen = set()
            from affine_schur.weyl import compose_perm

            for d in reps:
                coset = {
                    compose_perm(compose_perm(a, d), b)
                    for a in young_subgroup(h2)
                    for b in young_subgroup(h1)
                }
                assert not (coset & seen)
                seen |= coset
            assert len(seen) == 6


def test_double_cosets_precondition():
    with pytest.raises(ValueError):
        double_cosets(((1, 2, 3),), partition_of((1, 1, 2)), ((1,), (2,), (3,)))
    trivial9 = tuple((k,) for k in range(1, 10))
    with pytest.raises(ValueError):
        double_cosets(trivial9, (tuple(range(1, 10)),), trivial9)


def test_refines():
    assert refines(((1,), (2,), (3,)), ((1, 2, 3),))
    assert not refines(((1, 2, 3),), ((1,), (2,), (3,)))


def test_equivalent_middle():
    w = equivalent_middle((1, 2), (3, 4), 2)
    assert w is not None and w.apply((1, 2), 2) == (3, 4)
    w = equivalent_middle((1, 2), (2, 3), 2)
    assert w is not None and w.apply((1, 2), 2) == (2, 3)
    assert equivalent_middle((1, 1), (1, 2), 2) is None


@given(tuple3, weyl3)
def test_equivalent_middle_finds_orbit_moves(t, w):
    n = 2
    img = w.apply(t, n)
    found = equivalent_middle(t, img, n)
    assert found is not None and found.apply(t, n) == img


def _brute_matchings(b, u, n):
    """Every w with b.w = u, by filtering all r! permutations."""
    out = set()
    for sigma in all_perms(len(b)):
        diff = [uk - b[s - 1] for uk, s in zip(u, sigma)]
        if all(d % n == 0 for d in diff):
            out.add(AffineWeylElement(sigma, [d // n for d in diff]))
    return out


def test_affine_matchings_brute_force():
    rng = random.Random(41)
    for n in (1, 2, 3):
        for r in range(6):
            for trial in range(24):
                b = tuple(rng.randint(-n - 1, n + 1) for _ in range(r))
                if trial % 2:
                    u = tuple(rng.randint(-n - 1, 2 * n) for _ in range(r))
                else:
                    sigma = rng.choice(all_perms(r))
                    w = AffineWeylElement(sigma, [rng.randint(-2, 2) for _ in range(r)])
                    u = w.apply(b, n)
                got = list(affine_matchings(b, u, n))
                assert len(got) == len(set(got))
                assert set(got) == _brute_matchings(b, u, n)
                assert all(w.apply(b, n) == u for w in got)
                if sorted(bar(v, n) for v in b) == sorted(bar(v, n) for v in u):
                    classes = [bar(v, n) for v in b]
                    want = prod(factorial(classes.count(c)) for c in set(classes))
                    assert len(got) == want
                else:
                    assert got == []


def test_affine_matchings_examples():
    # repeated and negative entries: the two -1s swap freely, the 2 is forced
    got = set(affine_matchings((-1, 2, -1), (1, -1, 4), 2))
    assert got == {
        AffineWeylElement((1, 3, 2), (1, 0, 1)),
        AffineWeylElement((3, 1, 2), (1, 0, 1)),
    }
    assert list(affine_matchings((1, 1), (1, 2), 2)) == []
    assert list(affine_matchings((), (), 3)) == [AffineWeylElement.identity(0)]
    with pytest.raises(ValueError):
        affine_matchings((1, 2), (1, 2, 3), 2)


def test_affine_images_are_the_matchings_applied():
    # every b and u over a small window, t seeded: the image form yields
    # w.apply(t, n) once per w with b.w = u, found by brute force over all
    # permutations, and in the order of affine_matchings
    rng = random.Random(43)
    for n in (1, 2, 3):
        for r in range(4):
            for b in itertools.product(range(-1, 3), repeat=r):
                for u in itertools.product(range(-1, 3), repeat=r):
                    t = tuple(rng.randint(-3, 5) for _ in range(r))
                    got = list(affine_images(b, u, t, n))
                    brute = Counter(w.apply(t, n) for w in _brute_matchings(b, u, n))
                    assert Counter(got) == brute
                    assert got == [w.apply(t, n) for w in affine_matchings(b, u, n)]
                    if sorted(v % n for v in b) != sorted(v % n for v in u):
                        assert got == []


def test_affine_images_examples():
    # the two -1s of b swap freely: t.w has u_k + t_p - b_p at place k
    assert sorted(affine_images((-1, 2, -1), (1, -1, 4), (10, 20, 30), 2)) == [
        (12, 30, 22),
        (32, 10, 22),
    ]
    assert list(affine_images((1, 1), (1, 2), (5, 6), 2)) == []
    assert list(affine_images((), (), (), 3)) == [()]
    with pytest.raises(ValueError):
        affine_images((1, 2), (1, 2, 3), (1, 2), 2)
    with pytest.raises(ValueError):
        affine_images((1, 2), (1, 2), (1, 2, 3), 2)


def test_orbit_rep():
    assert tuple_orbit_rep((5, -1, 2), 2) == (1, 1, 2)
    assert bar(0, 2) == 2 and bar(-1, 2) == 1 and bar(4, 2) == 2


@given(st.lists(st.integers(-3, 3), max_size=7), st.booleans())
def test_stabilizer_order_is_the_product_of_factorials(entries, distinct):
    # with and without repeats, from a tuple and from a zip iterator
    t = tuple(dict.fromkeys(entries)) if distinct else tuple(entries)
    want = prod(factorial(m) for m in Counter(t).values())
    assert stabilizer_order(t) == want
    assert stabilizer_order(zip(t, t)) == want
    assert stabilizer_order(iter(t)) == want


def test_place_map_memo_is_keyed_on_residue_patterns():
    # at n = 2, r = 2 every key is a pair of residue tuples in {0, 1}^2; the
    # oracles' own memos are cleared too, so that the suite reaches the kernel
    for memo in (weyl._place_maps, dual._schur_basis_product, tensor._action_basis_product):
        memo.cache_clear()
    assert run_suite("oracle-equivalence", n=2, r=2)["passed"]
    info = weyl._place_maps.cache_info()
    assert info.misses and info.hits >= info.misses
    assert info.currsize <= 16
