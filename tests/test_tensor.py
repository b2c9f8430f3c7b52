import random
from fractions import Fraction

import pytest

from affine_schur import tensor
from affine_schur.dual import multiply_schur_oracle
from affine_schur.laurent import Laurent
from affine_schur.schur import (
    AlgebraElement,
    basis_indices,
    canonicalize,
    identity,
    middle_orbit_rep,
    multiply,
    structure_constants,
)
from affine_schur.tensor import (
    ReconstructionError,
    TensorVector,
    act,
    multiply_via_action,
    weyl_right_act,
)
from affine_schur.weyl import AffineWeylElement, all_perms, bar_tuple


def test_act_worked_examples():
    x = AlgebraElement.basis(1, (1, 1), (1, 2))
    assert act(x, TensorVector.basis(1, (1, 2))) == TensorVector.basis(
        1, (1, 1)
    ) + TensorVector.basis(1, (0, 2))
    assert act(x, TensorVector.basis(1, (1, 3))) == TensorVector.basis(
        1, (1, 2)
    ) + TensorVector.basis(1, (0, 3))


def test_identity_acts_trivially():
    rng = random.Random(14)
    for (n, r) in [(1, 2), (2, 2), (3, 1)]:
        e = identity(n, r)
        for _ in range(25):
            v = TensorVector.basis(n, tuple(rng.randint(-n, 2 * n) for _ in range(r)))
            assert act(e, v) == v


def test_right_action_examples():
    v = TensorVector.basis(2, (1, 2))
    swap = AffineWeylElement((2, 1), (0, 0))
    assert weyl_right_act(v, swap) == TensorVector.basis(2, (2, 1))
    assert weyl_right_act(v, AffineWeylElement.identity(2)) == v


def test_actions_commute():
    rng = random.Random(15)
    n, r = 2, 2
    idxs = basis_indices(n, r, 1)
    for _ in range(80):
        x = AlgebraElement(n, r, {rng.choice(idxs): 1})
        v = TensorVector.basis(n, tuple(rng.randint(-2, 4) for _ in range(r)))
        w = AffineWeylElement(
            rng.choice(all_perms(r)), tuple(rng.randint(-1, 1) for _ in range(r))
        )
        assert weyl_right_act(act(x, v), w) == act(x, weyl_right_act(v, w))


def test_action_is_module_structure():
    rng = random.Random(16)
    n, r = 2, 2
    idxs = basis_indices(n, r, 1)
    for _ in range(50):
        x = AlgebraElement(n, r, {rng.choice(idxs): 1})
        y = AlgebraElement(n, r, {rng.choice(idxs): 1})
        v = TensorVector.basis(n, tuple(rng.randint(-1, 3) for _ in range(r)))
        assert act(multiply(x, y), v) == act(x, act(y, v))


def test_faithful_on_window():
    # distinct canonical labels act differently on their middle representative
    n, r = 2, 2
    seen = {}
    for idx in basis_indices(n, r, 1):
        u = middle_orbit_rep(idx, n)
        action = act(
            AlgebraElement(n, r, {idx: 1}), TensorVector.basis(n, u)
        )
        key = (u, frozenset(action.terms.items()))
        assert key not in seen, (idx, seen[key])
        seen[key] = idx


def test_multiply_via_action_examples():
    x = AlgebraElement.basis(1, (1, 1), (1, 2))
    want = AlgebraElement.basis(1, (1, 1), (1, 3)) + AlgebraElement.basis(
        1, (1, 1), (2, 2)
    ).scale(2)
    assert multiply_via_action(x, x) == want
    e = identity(2, 2)
    y = AlgebraElement.basis(2, (1, 2), (3, 0)).scale(Laurent.gen(1))
    assert multiply_via_action(e, y) == y


def test_multiply_via_action_matches_engine():
    rng = random.Random(17)
    for (n, r) in [(1, 3), (2, 2), (3, 1)]:
        idxs = basis_indices(n, r, 1)
        for _ in range(50):
            x = AlgebraElement(n, r, {rng.choice(idxs): 1})
            y = AlgebraElement(n, r, {rng.choice(idxs): 1})
            assert multiply_via_action(x, y) == multiply(x, y)


@pytest.mark.parametrize("n,r", [(2, 5), (2, 6), (3, 5), (3, 6)])
def test_three_way_oracle_degree_five_and_six(n, r):
    # seeded composable pairs with offsets in {-1, 0, 1}: the right factor's
    # tops are the left factor's bottom residues, so every product is nonzero
    rng = random.Random("three-way:%d:%d" % (n, r))

    def bottoms():
        return [rng.randint(1 - n, 2 * n) for _ in range(r)]

    for _ in range(30):
        j = bottoms()
        x = AlgebraElement.basis(n, [rng.randint(1, n) for _ in range(r)], j)
        y = AlgebraElement.basis(n, bar_tuple(j, n), bottoms())
        want = multiply(x, y)
        assert not want.is_zero()
        assert multiply_schur_oracle(x, y) == want
        assert multiply_via_action(x, y) == want


@pytest.mark.parametrize("n,r", [(1, 3), (2, 2), (2, 3), (3, 2)])
def test_three_way_oracle_multi_term_laurent(n, r):
    # seeded elements of four terms, each coefficient with two powers of a
    rng = random.Random("multi-term:%d:%d" % (n, r))
    idxs = basis_indices(n, r, 1)

    def element():
        return AlgebraElement(n, r, {
            rng.choice(idxs): Laurent({
                0: rng.choice([-2, -1, 1, 3]),
                rng.choice([-2, -1, 1, 2]): Fraction(rng.choice([-1, 1]), rng.randint(1, 3)),
            })
            for _ in range(4)
        })

    nonzero = 0
    for _ in range(10):
        x, y = element(), element()
        want = multiply(x, y)
        nonzero += not want.is_zero()
        assert multiply_schur_oracle(x, y) == want
        assert multiply_via_action(x, y) == want
    assert nonzero


def test_basis_product_memo():
    x = canonicalize((1, 2), (2, 3), 2)
    y = canonicalize((2, 1), (1, 4), 2)
    first = structure_constants(x, y, 2)
    hits = structure_constants.cache_info().hits
    assert structure_constants(x, y, 2) is first
    assert structure_constants.cache_info().hits == hits + 1
    structure_constants.cache_clear()
    assert structure_constants.cache_info().currsize == 0


def test_tensor_json_round_trip():
    v = TensorVector(2, 2, {(1, -3): Laurent.gen(2, 3), (0, 5): Laurent.one()})
    assert TensorVector.from_json(v.to_json()) == v


def _reconstruct(monkeypatch, x_image, candidate_action):
    """The product of x = [(1)|(2)] and y = [(2)|(2)] at n = 2 over a faked
    action: y sends v_u to v_(7), x sends v_(7) to x_image, and the candidate
    label of v_(5) acts on v_u as ``candidate_action``."""
    x, y = ((1, 2),), ((2, 2),)
    cand = canonicalize((5,), middle_orbit_rep(y, 2), 2)
    table = {y: {(7,): 1}, x: x_image, cand: candidate_action}
    monkeypatch.setattr(tensor, "_basis_action_on_tuple", lambda pairs, u, n: table[pairs])
    return cand, tensor._action_basis_product(x, y, 2)


def test_reconstruction_divides_exactly_in_integers(monkeypatch):
    cand, out = _reconstruct(monkeypatch, {(5,): 6}, {(5,): 2})
    assert out == {cand: 3} and type(out[cand]) is int


@pytest.mark.parametrize(
    "x_image, candidate_action, message",
    [
        ({(5,): 3}, {}, r"candidate \(\(1, -2\),\) misses \(5,\)"),
        ({(5,): 3}, {(5,): 2}, r"non-integral coefficient 3/2 for \(\(1, -2\),\)"),
        ({(5,): -3}, {(5,): 1}, r"non-integral coefficient -3 for \(\(1, -2\),\)"),
        ({(5,): 3}, {(5,): 1, (9,): 1}, r"inconsistent system at \(9,\)"),
    ],
    ids=["candidate-misses", "non-integral", "non-positive", "negative-residual"],
)
def test_reconstruction_rejects_an_inconsistent_action(
    monkeypatch, x_image, candidate_action, message
):
    with pytest.raises(ReconstructionError, match=message):
        _reconstruct(monkeypatch, x_image, candidate_action)


def test_action_rejects_a_count_off_the_stabilizer(monkeypatch):
    # [(1,1),(1,1)] has a pair stabilizer of order 2, so a single matching
    # onto an image cannot come from the true action
    monkeypatch.setattr(tensor, "affine_images", lambda b, u, t, n: iter([(5, 5)]))
    message = r"1 matchings onto \(5, 5\), not a multiple of 2"
    with pytest.raises(ReconstructionError, match=message):
        tensor._basis_action_on_tuple(((1, 1), (1, 1)), (1, 1), 1)
