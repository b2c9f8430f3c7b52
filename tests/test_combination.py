from fractions import Fraction

import pytest

from affine_schur.combination import accumulate, read
from affine_schur.laurent import Laurent
from affine_schur.schur import AlgebraElement
from affine_schur.semigroup import PeriodicMatrix
from affine_schur.tensor import TensorVector
from affine_schur.transfer import OperatorSum


def test_accumulate_adds_equal_keys_and_drops_zero_sums():
    items = [("b", 1), ("a", 2), ("b", -1), ("c", Fraction(1, 2)), ("a", 1)]
    got = accumulate(items)
    assert got == {"a": 3, "c": Fraction(1, 2)}
    assert list(got) == ["a", "c"]


def test_read_converts_json_and_ignores_unknown_keys():
    spec = {"a": [(int, Fraction)], "b?": int, "c?": int}
    got = read({"a": [[1, "1/2"], [0, -3]], "c": 2, "z": 2.7}, spec)
    assert got == {"a": ((1, Fraction(1, 2)), (0, Fraction(-3))), "c": 2}


@pytest.mark.parametrize(
    "data, spec, message",
    [
        (2.7, int, "$: expected an integer, got 2.7"),
        (True, int, "$: expected an integer, got true"),
        ("3", int, '$: expected an integer, got "3"'),
        (float("inf"), int, "$: expected an integer, got Infinity"),
        (0.5, Fraction, '$: expected an integer or a "p/q" string, got 0.5'),
        (False, Fraction, '$: expected an integer or a "p/q" string, got false'),
        ("0.5", Fraction, '$: expected an integer or a "p/q" string, got "0.5"'),
        ("1/0", Fraction, '$: expected an integer or a "p/q" string, got "1/0"'),
        ({"a": 1}, [int], '$: expected a list, got {"a": 1}'),
        ([[1, 2], [3]], [(int, int)], "$[1]: expected a list of 2, got [3]"),
        ([], {"n": int}, "$: expected an object, got []"),
        ({"n": 1}, {"n": int, "r": int}, "$.r: expected an integer, got nothing"),
        (
            {"terms": [{"pairs": [[1, 2], [1, 2.7]]}]},
            {"terms": [{"pairs": [(int, int)]}]},
            "$.terms[0].pairs[1][1]: expected an integer, got 2.7",
        ),
        (
            list(range(40)),
            int,
            "$: expected an integer, got [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, "
            "14, 15, 16...",
        ),
    ],
)
def test_read_rejects_naming_the_json_path(data, spec, message):
    # integers and rationals stay exact: no bool, float or decimal string
    with pytest.raises(ValueError) as ex:
        read(data, spec)
    assert str(ex.value) == message


def test_trusted_constructor_accumulates_without_checks():
    x = AlgebraElement._from_items(
        (1, 1), [(((1, 2),), Laurent.one()), (((1, 2),), Laurent.gen(0, -1))]
    )
    assert x.is_zero() and x == AlgebraElement.zero(1, 1)


def test_zero_combinations_are_falsy():
    for zero, nonzero in [
        (AlgebraElement.zero(1, 1), AlgebraElement.basis(1, (1,), (2,))),
        (TensorVector.zero(1, 2), TensorVector.basis(1, (1, 2))),
        (PeriodicMatrix.zero(1), PeriodicMatrix.identity(1)),
        (OperatorSum.zero(2), OperatorSum.unit(2, (1,), (2,))),
    ]:
        assert not zero and zero.is_zero()
        assert nonzero and not nonzero.is_zero()
        assert not nonzero - nonzero


def test_add_across_contexts_raises():
    with pytest.raises(ValueError):
        TensorVector.basis(1, (1, 2)) + TensorVector.basis(2, (1, 2))
    with pytest.raises(ValueError):
        TensorVector.basis(1, (1, 2)) + TensorVector.basis(1, (1, 2, 3))
    with pytest.raises(ValueError):
        PeriodicMatrix.identity(1) + PeriodicMatrix.identity(2)
    with pytest.raises(ValueError):
        PeriodicMatrix.identity(1) * PeriodicMatrix.identity(2)
    with pytest.raises(TypeError):
        PeriodicMatrix.identity(1) + TensorVector.basis(1, (1,))


@pytest.mark.parametrize(
    "build",
    [
        lambda: AlgebraElement(1, 3, {((1, 1), (1, 2)): 1}),  # length is not r
        lambda: AlgebraElement(2, 1, {((3, 1),): 1}),  # top outside 1..n
        lambda: AlgebraElement(2, 2, {((2, 1), (1, 1)): 1}),  # not sorted
        lambda: AlgebraElement(0, 1),
        lambda: AlgebraElement(1, -1),
        lambda: AlgebraElement.from_json(
            {"n": 1, "r": 3, "terms": [{"coeff": [[0, "1"]], "pairs": [[1, 1], [1, 2]]}]}
        ),
        lambda: AlgebraElement.from_json(
            {"n": 1, "r": 1, "terms": [{"coeff": [[0, "1"]], "pairs": [1, 2]}]}
        ),
        lambda: TensorVector(1, 3, {(1, 2): 1}),
        lambda: TensorVector.from_json(
            {"n": 1, "r": 2, "terms": [{"coeff": [[0, "1"]], "tuple": 7}]}
        ),
        lambda: PeriodicMatrix(0, {(1, 1): 1}),
        lambda: PeriodicMatrix(1, {(1, 1, 1): 1}),
        lambda: OperatorSum(2, {(1, 2, 3): 1}),
        lambda: OperatorSum(2, {(1, 2): 1}),  # indices are not tuples
        lambda: OperatorSum(2, {((1,), (1, 2)): 1}),  # lengths differ
        lambda: AlgebraElement(1, 3, {((1, 1), (1, 3), (1, 2)): 1}),  # last pair unsorted
        lambda: AlgebraElement(2, 1, {((0, 1),): 1}),  # top 0
        lambda: AlgebraElement(2, 1, {((1, 1, 1),): 1}),  # a three-entry pair
    ],
)
def test_public_constructors_reject_malformed_input(build):
    with pytest.raises(ValueError):
        build()


def test_public_constructors_normalize_and_add():
    # (3, 3) is (1, 1) shifted by the period
    assert PeriodicMatrix(2, {(1, 1): 1, (3, 3): 2}) == PeriodicMatrix(2, {(1, 1): 3})
    assert OperatorSum(2, [(((1,), (2,)), 1), (((1,), (2,)), Fraction(1, 2))]) == (
        OperatorSum.unit(2, (1,), (2,), Fraction(3, 2))
    )
    x = AlgebraElement.from_json(
        {
            "n": 1,
            "r": 1,
            "terms": [
                {"coeff": [[0, "1"]], "pairs": [[2, 3]]},
                {"coeff": [[0, "-1"]], "pairs": [[1, 2]]},
            ],
        }
    )
    assert x.is_zero()


def test_values_are_immutable_and_hashable():
    x = TensorVector.basis(1, (1, 2), 3)
    with pytest.raises(AttributeError):
        x.terms = {}
    assert hash(x) == hash(TensorVector.basis(1, (1, 2), Laurent.const(3)))
    assert x - x == TensorVector.zero(1, 2)
    assert x.scale(0).is_zero()


@pytest.mark.parametrize(
    "make, key",
    [
        (lambda terms: AlgebraElement(1, 1, terms), lambda k: ((1, k),)),
        (lambda terms: PeriodicMatrix(1, terms), lambda k: (1, k)),
        (lambda terms: OperatorSum(2, terms), lambda k: ((1,), (k,))),
    ],
    ids=["algebra-element", "periodic-matrix", "operator-sum"],
)
def test_arithmetic_keeps_key_order_and_drops_zero_sums(make, key):
    k1, k2, k3, k4 = map(key, (4, 1, 3, 2))
    x = make({k1: 1, k2: 2, k3: Fraction(3, 2)})
    y = make({k2: 2, k4: 5, k1: Fraction(1, 2)})
    x_terms, y_terms = dict(x.terms), dict(y.terms)

    diff = x - y  # k2 cancels
    assert diff == make({k1: Fraction(1, 2), k3: Fraction(3, 2), k4: -5})
    assert list(diff.terms) == [k1, k3, k4]
    total = x + y  # k4 is new
    assert total == make({k1: Fraction(3, 2), k2: 4, k3: Fraction(3, 2), k4: 5})
    assert list(total.terms) == [k1, k2, k3, k4]
    neg = -x
    assert neg == make({k1: -1, k2: -2, k3: Fraction(-3, 2)})
    assert list(neg.terms) == [k1, k2, k3]
    assert x.scale(0) == make({}) and not x.scale(0).terms
    assert x.scale(2) == x + x and list(x.scale(2).terms) == [k1, k2, k3]
    assert x - x == make({}) and (x - y) + y == x
    assert x.terms == x_terms and y.terms == y_terms
    for value in (diff, total, neg, x.scale(2)):
        for c in value.terms.values():
            assert c and type(c) is type(next(iter(x.terms.values())))

    def typed(value):
        # keys in order, coefficients with their types and stored entry types
        return [
            (k, c, type(c), [(e, v, type(v)) for e, v in getattr(c, "terms", {}).items()])
            for k, c in value.terms.items()
        ]

    half = make({k1: Fraction(1, 2), k2: 1, k3: Fraction(3, 4)})
    assert typed(x.scale(Fraction(1, 2))) == typed(half)
    assert typed(x.scale(True)) == typed(x) == typed(x.scale(1))
    assert typed(x.scale(2)) == typed(make({k1: 2, k2: 4, k3: 3}))
