import json
import random
from fractions import Fraction

import pytest

from affine_schur.laurent import Laurent, height_at
from affine_schur.schur import (
    AlgebraElement,
    basis_indices,
    index_tops,
    multiply,
    split_offsets,
)
from affine_schur.homs import (
    collapse_index,
    det_star,
    det_tilde_sharp,
    psi_a,
    psi_a0,
    psi_as,
)

from oracles import meet, partition_of, young_order


def _at(x, s, a0):
    return psi_as(x, s, height_scalar=height_at(a0))


def test_psi_as_examples():
    x = AlgebraElement.basis(2, (1, 2), (4, -1))
    assert psi_as(x, 2) == AlgebraElement.basis(2, (1, 2), (6, -3))
    y = AlgebraElement.basis(2, (1, 1), (3, 1))
    assert psi_as(y, 1) == y.scale(Laurent.gen(1))
    finite = AlgebraElement.basis(2, (1, 2), (2, 1))
    for s in (-2, 1, 3):
        assert psi_as(finite, s) == finite
    assert psi_a(finite) == finite


def test_psi_a_examples():
    y = AlgebraElement.basis(2, (1, 1), (3, 1))
    assert psi_a(y) == AlgebraElement.basis(2, (1, 1), (1, 1)).scale(Laurent.gen(1, 2))
    assert psi_a0(y) == psi_as(y, 0)
    assert psi_a(y).is_finite_support()


def test_collapse_index_is_subgroup_index():
    pairs = ((1, 3), (1, 1))  # i=j=(1,1), offsets (1,0): index 2
    assert collapse_index(pairs, 2) == 2
    for n, r in ((1, 5), (2, 3), (3, 3)):
        for pairs in basis_indices(n, r, 1):
            i = index_tops(pairs)
            j, eps = split_offsets(pairs, n)
            pij = meet(partition_of(i), partition_of(j))
            index = young_order(pij) // young_order(meet(pij, partition_of(eps)))
            assert collapse_index(pairs, n) == index


def test_psi_multiplicative():
    rng = random.Random(18)
    idxs = basis_indices(2, 2, 1)
    for _ in range(60):
        x = AlgebraElement(2, 2, {rng.choice(idxs): 1})
        y = AlgebraElement(2, 2, {rng.choice(idxs): 1})
        assert psi_a(multiply(x, y)) == multiply(psi_a(x), psi_a(y))
        assert psi_as(multiply(x, y), 2) == multiply(psi_as(x, 2), psi_as(y, 2))


def test_psi_composition_law_concrete():
    rng = random.Random(19)
    idxs = basis_indices(2, 2, 2)
    for a0, a1 in [(Fraction(2), Fraction(3)), (Fraction(1, 2), Fraction(5)),
                   (Fraction(-2), Fraction(2, 3))]:
        for s in (-2, -1, 0, 1, 2):
            for s2 in (-2, -1, 0, 1, 2):
                for _ in range(6):
                    x = AlgebraElement(2, 2, {rng.choice(idxs): 1})
                    lhs = _at(_at(x, s2, a1), s, a0)
                    rhs = _at(x, s * s2, a1 * a0 ** s2)
                    assert lhs == rhs


def test_psi_injective_on_window():
    # distinct labels map to distinct nonzero multiples of distinct labels
    n, r, s = 2, 2, 2
    images = {}
    for idx in basis_indices(n, r, 1):
        out = psi_as(AlgebraElement(n, r, {idx: 1}), s)
        assert len(out.terms) == 1
        label = next(iter(out.terms))
        assert label not in images
        images[label] = idx


def test_det_transfer_examples():
    d = AlgebraElement.basis(2, (1, 1, 2), (2, 1, 2))
    assert det_tilde_sharp(d) == AlgebraElement.basis(2, (1,), (2,))
    zero = AlgebraElement.basis(2, (1, 1, 1), (1, 1, 1))
    assert det_tilde_sharp(zero).is_zero()
    assert det_star(d) == AlgebraElement.basis(2, (1,), (2,))


def test_det_star_requires_finite_support():
    x = AlgebraElement.basis(2, (1, 1, 2), (2, 1, 4))
    with pytest.raises(ValueError):
        det_star(x)


def test_det_sharp_degree_check():
    with pytest.raises(ValueError):
        det_tilde_sharp(AlgebraElement.basis(3, (1, 2), (1, 2)))


def test_det_sharp_homomorphism():
    rng = random.Random(20)
    idxs = basis_indices(2, 3, 1)
    for _ in range(40):
        x = AlgebraElement(2, 3, {rng.choice(idxs): 1})
        y = AlgebraElement(2, 3, {rng.choice(idxs): 1})
        assert det_tilde_sharp(multiply(x, y)) == multiply(
            det_tilde_sharp(x), det_tilde_sharp(y)
        )


def test_commuting_square():
    for (n, r) in [(2, 1), (2, 2)]:
        for idx in basis_indices(n, n + r, 1)[:300]:
            el = AlgebraElement(n, n + r, {idx: 1})
            assert psi_a(det_tilde_sharp(el)) == det_star(psi_a(el))


def test_rescale_then_transfer():
    # psi_{a,1} o det_a^# = det_1^# o psi_{a,1}
    rng = random.Random(21)
    idxs = basis_indices(2, 3, 1)
    for _ in range(60):
        el = AlgebraElement(2, 3, {rng.choice(idxs): 1})
        assert psi_as(det_tilde_sharp(el), 1) == det_tilde_sharp(
            psi_as(el, 1), height_scalar=height_at(1))


def test_det_sharp_restriction_is_det_star():
    # on finite labels the symbolic transfer carries no parameter
    for idx in basis_indices(2, 3, 0):
        el = AlgebraElement(2, 3, {idx: 1})
        assert det_tilde_sharp(el) == det_star(el)


def test_apply_hom_dispatch(capsys):
    # ``hom apply`` sends each kind to its map, and a missing option or an
    # element outside a map's domain to an error line
    from affine_schur.cli import main
    from affine_schur.schur import transpose_antiauto, weyl_act
    from affine_schur.weyl import AffineWeylElement

    x = AlgebraElement.basis(2, (1, 1), (3, 1))
    given = ["hom", "apply", "--element", "xi[(1,1)|(3,1)]", "-n", "2", "--kind"]
    for kind, want in [
        (["psi_a"], psi_a(x)),
        (["psi_a0"], psi_a(x)),
        (["psi_as", "--s", "2"], psi_as(x, 2)),
        (["det_sharp"], det_tilde_sharp(x)),
        (["weyl", "--window", "(0,1)"], weyl_act(AffineWeylElement.from_window((0, 1)), x)),
        (["transpose"], transpose_antiauto(x)),
    ]:
        assert main(given + kind) == 0
        assert AlgebraElement.from_json(json.loads(capsys.readouterr().out)) == want
    for kind, message in [
        ("psi_as", "psi_as needs --s"),
        ("weyl", "weyl needs --window"),
        ("det_star", "det_star needs an element of the finite subalgebra"),
    ]:
        assert main(given + [kind]) == 1
        assert capsys.readouterr().err == "error: %s\n" % message
    with pytest.raises(SystemExit) as exc:
        main(given + ["nope"])
    assert exc.value.code == 1


def test_two_variable_check_rejects_heights_at_the_packing_bound():
    from affine_schur.verify import (
        _PACK,
        _psi_composition_failure,
        _psi_inner,
        _psi_substituted,
    )

    below = AlgebraElement(2, 1, {((1, 1 + 2 * (_PACK // 2 - 1)),): 1})
    assert _psi_composition_failure(_psi_inner, (1, 1, below, None)) is None
    at = AlgebraElement(2, 1, {((1, 1 + 2 * (_PACK // 2)),): 1})
    for check in (lambda x: _psi_inner(1, x, None), lambda x: _psi_substituted(x, 1, 1)):
        with pytest.raises(ValueError):
            check(at)
