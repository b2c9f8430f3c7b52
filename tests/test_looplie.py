import random
from fractions import Fraction

import pytest

from affine_schur import expr
from affine_schur.dual import multiply_schur_oracle
from affine_schur.schur import AlgebraElement, basis_indices
from affine_schur.homs import det_tilde_sharp, psi_a
from affine_schur.laurent import Laurent
from affine_schur.looplie import (
    decompose_x,
    decompose_y,
    generator_set,
    label_index,
    lie_bracket_check,
    pi_tilde,
)
from affine_schur.semigroup import PeriodicMatrix, eta_as

E = PeriodicMatrix.unit  # the periodic elementary matrix E_{s,t}


def test_pi_tilde_examples():
    assert pi_tilde(E(2, 1, 2), 2) == AlgebraElement.basis(
        2, (1, 1), (1, 2)
    ) + AlgebraElement.basis(2, (1, 2), (2, 2))
    assert pi_tilde(E(2, 1, 1), 2) == AlgebraElement.basis(
        2, (1, 1), (1, 1), 2
    ) + AlgebraElement.basis(2, (1, 2), (1, 2))
    assert pi_tilde(E(2, 1, 3), 1) == AlgebraElement.basis(2, (1,), (3,))


def test_pi_tilde_finite_restriction():
    # generators with column in 1..n land in the finite subalgebra, fixed by collapse
    for n in (2, 3):
        for s in range(1, n + 1):
            for t in range(1, n + 1):
                img = pi_tilde(E(n, s, t), 2)
                assert img.is_finite_support()
                assert psi_a(img) == img


def test_pi_tilde_is_memoized():
    units = [
        (n, s, t)
        for n in (1, 2, 3)
        for s in range(1, n + 1)
        for t in (s, s + 1, s - n - 1, s + 2 * n)
    ]
    cached = {}
    for n, s, t in units:
        for r in (1, 2, 3):
            cached[E(n, s, t), r] = pi_tilde(E(n, s, t), r)
            before = pi_tilde.cache_info()
            assert pi_tilde(E(n, s, t), r) is cached[E(n, s, t), r]
            after = pi_tilde.cache_info()
            assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    pi_tilde.cache_clear()
    for (m, r), image in cached.items():
        assert pi_tilde(m, r) == image


def test_pi_tilde_rejects_degree_zero_every_time():
    for m in (E(2, 1, 2), PeriodicMatrix.zero(2)):
        for _ in range(3):
            with pytest.raises(ValueError, match="at least 1"):
                pi_tilde(m, 0)


def test_bracket_examples():
    assert lie_bracket_check(E(2, 1, 2), E(2, 2, 1), 2)
    assert lie_bracket_check(E(2, 1, 2), E(2, 1, 2), 2)
    assert lie_bracket_check(E(2, 1, 4), E(2, 2, 1), 2)


def test_bracket_random_offsets():
    rng = random.Random(29)
    for _ in range(40):
        n = rng.choice((2, 3))
        g1 = E(n, rng.randint(1, n), rng.randint(1 - n, 3 * n))
        g2 = E(n, rng.randint(1, n), rng.randint(1 - n, 3 * n))
        r = rng.randint(1, 3)
        assert lie_bracket_check(g1, g2, r)


def _laurent_matrix(rng, n):
    """A seeded periodic matrix of two or three terms with Laurent entries."""
    entries = {}
    for _ in range(rng.randint(2, 3)):
        s = rng.randint(1, n)
        t = rng.choice((s, rng.randint(s - 2 * n, s + 2 * n)))
        entries[s, t] = Laurent({rng.randint(-1, 1): rng.choice((1, -2, Fraction(1, 3)))})
    return PeriodicMatrix(n, entries)


def _laurent_cases(seed):
    rng = random.Random(seed)
    for n in (1, 2, 3):
        for r in (1, 2, 3):
            for _ in range(4):
                yield n, r, _laurent_matrix(rng, n), _laurent_matrix(rng, n)


def test_pi_tilde_is_linear():
    scalars = (Laurent.const(2), Laurent({1: 1, -1: Fraction(-1, 2)}), Laurent.const(-1))
    for k, (n, r, x, y) in enumerate(_laurent_cases(31)):
        c = scalars[k % len(scalars)]
        assert pi_tilde(x + y.scale(c), r) == pi_tilde(x, r) + pi_tilde(y, r).scale(c)


def test_pi_tilde_reads_the_unit_on_its_orbit():
    for n in (1, 2, 3):
        for r in (1, 2, 3):
            for s in range(1, n + 1):
                for t in range(s - 2 * n, s + 2 * n + 1):
                    for k in (-1, 1, 2):
                        shifted = E(n, s + k * n, t + k * n)
                        assert pi_tilde(shifted, r) == pi_tilde(E(n, s, t), r)


def test_bracket_on_laurent_matrices():
    for n, r, x, y in _laurent_cases(37):
        assert lie_bracket_check(x, y, r)


def test_bracket_of_two_periods_raises():
    with pytest.raises(ValueError, match="context mismatch"):
        lie_bracket_check(E(1, 1, 2), E(2, 1, 2), 1)
    with pytest.raises(ValueError, match="context mismatch"):
        lie_bracket_check(PeriodicMatrix.identity(3), E(2, 2, 2), 2)


def test_det_transfer_of_generators():
    for n in (2, 3):
        for r in (1, 2):
            for s in range(1, n + 1):
                for t in (s + 1, s - 1):
                    lhs = det_tilde_sharp(pi_tilde(E(n, s, t), n + r))
                    assert lhs == pi_tilde(E(n, s, t), r)


def test_collapse_of_generator_images():
    for n in (2, 3):
        for s in range(1, n + 1):
            for t in range(s - 2 * n, s + 2 * n + 1):
                lhs = psi_a(pi_tilde(E(n, s, t), 2))
                rhs = pi_tilde(eta_as(E(n, s, t), 0), 2)
                assert lhs == rhs


def test_generator_sets():
    labels = {tuple(e.terms)[0] for e in generator_set("X", 3, 1)}
    assert ((1, 2),) in labels and ((2, 3),) in labels and ((3, 4),) in labels
    y = {tuple(e.terms)[0] for e in generator_set("Y", 2, 2, window=1)}
    x = {tuple(e.terms)[0] for e in generator_set("X", 2, 2)}
    assert x <= y
    with pytest.raises(ValueError):
        generator_set("Z", 2, 2)


def test_label_index():
    assert label_index(((1, 1), (2, 2))) == 0
    assert label_index(((1, 1), (2, 4))) == 1
    assert label_index(((1, 0), (2, 4))) == 2


def test_decompose_index_at_most_one_is_atomic():
    tree = decompose_y(((1, 1), (1, 4)), 2)
    assert tree.kind == "atom"
    tree = decompose_y(((1, 1), (2, 2)), 2)
    assert tree.kind == "atom"


def test_decompose_worked_example():
    pairs = ((1, 2), (1, 2))  # xi[(1,1)|(2,2)], two moved coordinates
    tree = decompose_y(pairs, 2)
    assert expr.evaluate(tree, 2) == AlgebraElement(2, 2, {pairs: 1})
    assert all(label_index(a) <= 1 for a in expr.atoms(tree))


def test_decompose_window():
    for (n, r) in [(2, 2), (2, 3), (3, 2)]:
        for idx in basis_indices(n, r, 1):
            tree = decompose_y(idx, n)
            assert all(label_index(a) <= 1 for a in expr.atoms(tree))


def test_decompose_x_cases():
    for (n, r) in [(2, 1), (3, 1), (3, 2)]:
        for idx in basis_indices(n, r, 1):
            tree = decompose_x(idx, n)
            for atom in expr.atoms(tree):
                moved = [(t, b) for t, b in atom if t != b]
                assert len(moved) <= 1
                if moved:
                    t, b = moved[0]
                    assert abs(b - t) == 1


def test_decompose_x_requires_small_degree():
    with pytest.raises(ValueError):
        decompose_x(((1, 1), (2, 2)), 2)


def _evaluate_json(data, n):
    """A decomposition in its JSON form, multiplied out by the dual engine."""
    op = data["op"]
    if op == "atom":
        return AlgebraElement.from_pairs(n, data["pairs"])
    if op == "scale":
        return _evaluate_json(data["child"], n).scale(Fraction(data["coeff"]))
    children = [_evaluate_json(c, n) for c in data["children"]]
    out = children[0]
    for child in children[1:]:
        out = out + child if op == "add" else multiply_schur_oracle(out, child)
    return out


@pytest.mark.parametrize(
    "pairs, n, decompose",
    [
        (((1, 2), (1, 2)), 2, decompose_y),
        (((1, 2), (2, 3), (3, 1)), 3, decompose_y),
        (((1, 2), (1, 2)), 3, decompose_x),
        (((1, 5),), 3, decompose_x),
    ],
    ids=["Y-n2-r2", "Y-n3-r3", "X-n3-r2", "X-n3-r1"],
)
def test_decomposition_json_evaluates_under_the_oracle(pairs, n, decompose):
    tree = decompose(pairs, n)
    got = _evaluate_json(expr.to_json(tree), n)
    assert got == AlgebraElement(n, len(pairs), {pairs: 1})
