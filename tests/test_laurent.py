from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from affine_schur.laurent import Laurent, format_rational, parse_rational


def L(d):
    return Laurent(d)


def test_addition_examples():
    assert L({1: 2}) + L({1: 3}) == L({1: 5})
    assert L({1: 1, 0: -1}) + L({0: 1}) == L({1: 1})
    assert L({2: 1, 0: Fraction(1, 2)}) + L({2: -1}) == L({0: Fraction(1, 2)})


def test_multiplication_examples():
    assert Laurent.gen(1) * Laurent.gen(-1) == Laurent.one()
    assert (Laurent.one() + Laurent.gen(1)) * (Laurent.one() - Laurent.gen(1)) == L(
        {0: 1, 2: -1}
    )
    sq = L({0: 2, 1: 3}) * L({0: 2, 1: 3})
    assert sq == L({0: 4, 1: 12, 2: 9})


def test_eval_examples():
    assert Laurent.gen(2).evaluate(2) == 4
    assert L({0: 2, 1: 3}).evaluate(1) == 5
    assert Laurent.gen(-1).evaluate(Fraction(1, 2)) == 2
    with pytest.raises(ValueError):
        Laurent.gen(-1).evaluate(0)


coeffs = st.builds(
    Fraction, st.integers(-30, 30), st.integers(1, 6)
)
laurents = st.dictionaries(st.integers(-4, 4), coeffs, max_size=4).map(Laurent)


@given(laurents, laurents, laurents)
def test_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z


@given(laurents, laurents, st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)))
def test_eval_is_ring_homomorphism(x, y, a0):
    if a0 == 0:
        a0 = Fraction(1, 3)
    assert (x * y).evaluate(a0) == x.evaluate(a0) * y.evaluate(a0)
    assert (x + y).evaluate(a0) == x.evaluate(a0) + y.evaluate(a0)


@given(laurents)
def test_inverse_substitution_is_involutive_hom(x):
    assert x.substitute_inverse().substitute_inverse() == x


def test_format_and_parse():
    x = L({0: 4, 1: 12, 2: 9})
    assert x.format() == "4 + 12*a + 9*a^2"
    assert Laurent.parse("4 + 12*a + 9*a^2") == x
    y = L({-1: Fraction(1, 2)})
    assert y.format() == "1/2*a^-1"
    assert Laurent.parse("1/2*a^-1") == y
    assert Laurent.parse("0").is_zero()
    assert L({1: -1, 0: 1}).format() == "1 - a"


def test_json_round_trip():
    x = L({-2: Fraction(3, 7), 0: -1, 5: 2})
    assert Laurent.from_json(x.to_json()) == x


def test_rational_text():
    assert parse_rational("3/6") == Fraction(1, 2)
    assert format_rational(Fraction(-4, 2)) == "-2"
    assert format_rational(Fraction(1, 2)) == "1/2"


def test_constants_hash_as_their_values():
    # a constant equals its value, so a set or dict key must not tell them apart
    for c in (0, 2, -3, Fraction(1, 2)):
        assert Laurent.const(c) == c
        assert hash(Laurent.const(c)) == hash(c)
        assert len({Laurent.const(c), c}) == 1


@pytest.mark.parametrize("exp", [0, -2])
@pytest.mark.parametrize("coeff", [0, 3, -2, Fraction(4, 2), Fraction(1, 3), True, "1/2"])
def test_gen_stores_what_the_constructor_stores(exp, coeff):
    # exact ints and Fractions take a direct path; bool and str are coerced
    got, want = Laurent.gen(exp, coeff).terms, Laurent({exp: coeff}).terms
    assert got == want
    assert [(type(e), type(c)) for e, c in got.items()] == [
        (type(e), type(c)) for e, c in want.items()
    ]
    assert Laurent.const(coeff).terms == Laurent({0: coeff}).terms


def test_power_and_zero():
    assert Laurent.gen(1) ** 3 == Laurent.gen(3)
    assert Laurent.zero() * Laurent.gen(5) == Laurent.zero()
    assert not Laurent.zero()
    assert Laurent.one().is_one()


# -- int-first storage against an all-Fraction reference ------------------------

mixed = st.one_of(
    st.integers(-20, 20), st.booleans(), st.fractions(-20, 20, max_denominator=3)
)
mixed_polys = st.dictionaries(st.integers(-2, 2), mixed, max_size=3)
nonzero = st.fractions(-9, 9, max_denominator=4).filter(bool)


def _ref(d):
    return {e: Fraction(c) for e, c in d.items() if c}


def _ref_add(p, q):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def _ref_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _ref_format(p):
    out = "0"
    for k, e in enumerate(sorted(p)):
        c = p[e]
        power = "a" if e == 1 else "a^%d" % e
        if e == 0:
            body = str(abs(c))
        else:
            body = power if abs(c) == 1 else "%s*%s" % (abs(c), power)
        if k == 0:
            out = ("-" if c < 0 else "") + body
        else:
            out += (" - " if c < 0 else " + ") + body
    return out


def _ref_hash(p):
    """A constant hashes as its value, any other polynomial as its term set."""
    return hash(p.get(0, 0)) if set(p) <= {0} else hash(frozenset(p.items()))


def _stored(c):
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


@given(mixed_polys, mixed_polys, mixed, st.integers(0, 3), nonzero)
@example({0: Fraction(1, 2)}, {0: Fraction(3, 2)}, 2, 2, Fraction(1, 2))
@example({1: Fraction(2, 3)}, {1: Fraction(3, 2)}, Fraction(3, 2), 1, Fraction(-2))
def test_int_first_storage_matches_fraction_reference(p, q, k, m, a0):
    x, y, P, Q = Laurent(p), Laurent(q), _ref(p), _ref(q)
    K = {0: Fraction(k)} if k else {}
    power = {0: Fraction(1)}
    for _ in range(m):
        power = _ref_mul(power, P)
    cases = [
        (x, P),
        (x + y, _ref_add(P, Q)),
        (x - y, _ref_add(P, _ref_mul(Q, {0: Fraction(-1)}))),
        (-x, _ref_mul(P, {0: Fraction(-1)})),
        (x * y, _ref_mul(P, Q)),
        (x * k, _ref_mul(P, K)),
        (k * x, _ref_mul(P, K)),
        (x + k, _ref_add(P, K)),
        (k - x, _ref_add(K, _ref_mul(P, {0: Fraction(-1)}))),
        (x ** m, power),
        (x.substitute_inverse(), {-e: c for e, c in P.items()}),
    ]
    for got, want in cases:
        assert got.terms == want
        assert all(_stored(c) for c in got.terms.values()), got.terms
        assert hash(got) == _ref_hash(want)
        assert got.format() == _ref_format(want)
        assert got.to_json() == [[e, str(c)] for e, c in sorted(want.items())]
        assert got.evaluate(a0) == sum(
            (c * a0 ** e for e, c in want.items()), Fraction(0)
        )
    assert (x == y) == (P == Q)
    assert (x == k) == (P == K)
