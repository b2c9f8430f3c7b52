"""Operational coordinate-coalgebra machinery: the evaluation pairing, the
comultiplication pairing, and the middle-tuple-counting product oracle.

The comultiplication of a coordinate monomial is an infinite formal sum, so it
is never materialized; every use here factors through finite pairings against
dual basis vectors.  The product oracle counts, for each candidate output
label, the middle tuples s compatible with both factors.  It shares nothing
with the double-coset engine except the canonical labelling itself.
"""

from __future__ import annotations

from functools import lru_cache

from .combination import accumulate
from .laurent import Laurent
from .schur import (
    bilinear,
    canonicalize,
    index_bottoms,
    index_tops,
    split_offsets,
)
from .weyl import affine_matchings


def pair(xi_pairs, c_pairs):
    """Evaluation pairing of a basis element against a coordinate monomial."""
    return 1 if tuple(xi_pairs) == tuple(c_pairs) else 0


def _first_factor_middles(i, j, n):
    """Distinct s with (i, s) in the orbit of (i, j), for i in I(n,r).

    Top-normalized tops force the shift part to vanish, so s runs over the
    images of j under the stabilizer of i.
    """
    return {w.apply(j, n) for w in affine_matchings(i, i, n)}


def delta_pair(x_pairs, y_pairs, c_pairs, n):
    """Number of middle tuples s splitting c as (x-compatible, y-compatible)."""
    p = index_tops(c_pairs)
    q = index_bottoms(c_pairs)
    i = index_tops(x_pairs)
    if sorted(p) != sorted(i):
        return 0
    count = 0
    for s in _middles_matching(x_pairs, p, n):
        if canonicalize(s, q, n) == tuple(y_pairs):
            count += 1
    return count


def _middles_matching(x_pairs, p, n):
    """Distinct s with (p, s) in the orbit of x, for p a permutation of x's tops."""
    j = index_bottoms(x_pairs)
    return {w.apply(j, n) for w in affine_matchings(index_tops(x_pairs), p, n)}


def multiply_schur_oracle(x, y):
    """Product by middle-tuple counting."""
    return bilinear(x, y, _schur_basis_product)


@lru_cache(maxsize=None)
def _schur_basis_product(x_pairs, y_pairs, n):
    i = index_tops(x_pairs)
    j = index_bottoms(x_pairs)
    k = index_tops(y_pairs)
    l = index_bottoms(y_pairs)

    middles = _first_factor_middles(i, j, n)

    # Collect candidate output labels constructively: for every admissible
    # middle s, every alignment w of the second factor onto s produces one.
    candidates = set()
    for s in middles:
        for w in affine_matchings(k, s, n):
            candidates.add(canonicalize(i, w.apply(l, n), n))

    out = {}
    for cand in candidates:
        q_star = index_bottoms(cand)
        assert index_tops(cand) == tuple(sorted(i))
        z = sum(1 for s in middles if canonicalize(s, q_star, n) == y_pairs)
        if z:
            out[cand] = z
    return out


# -- row-finite formal maps and the transpose-duality check --------------------

class RowFiniteMap:
    """A formal linear map between based spaces, given by a coefficient rule.

    ``apply(idx)`` returns the finite list of (output index, Laurent
    coefficient) pairs for a source basis index.
    """

    def __init__(self, apply_fn):
        self._apply = apply_fn

    def apply(self, idx):
        return [(o, c) for o, c in self._apply(idx) if not c.is_zero()]

    def matrix(self, in_window, out_window):
        """Dense {(out, in): coeff} matrix over the given finite windows."""
        out_set = set(out_window)
        return accumulate(
            ((o, idx), c)
            for idx in in_window
            for o, c in self.apply(idx)
            if o in out_set
        )


def compose_maps(g, f, in_window, out_window, mid_window):
    """Matrix of g-bar o f over windows, with the middle window declared."""
    return _mat_mul(g.matrix(mid_window, out_window), f.matrix(in_window, mid_window))


def _transpose(mat):
    return {(b, a): c for (a, b), c in mat.items()}


def _mat_mul(m1, m2):
    by_col = {}
    for (a, b), c in m2.items():
        by_col.setdefault(a, []).append((b, c))
    return accumulate(
        ((u, v), c1 * c2) for (u, w), c1 in m1.items() for v, c2 in by_col.get(w, [])
    )


def sharp_compose_check(f, g, in_window, mid_window, out_window):
    """Verify that dualizing reverses composition on the given windows.

    The windows must be closed enough that f maps the input window into the
    middle window and g maps the middle window into the output window; the
    check is exact.
    """
    for idx in in_window:
        for o, c in f.apply(idx):
            if o not in set(mid_window) and not c.is_zero():
                raise ValueError("window not closed under f at %s -> %s" % (idx, o))
    f_mat, g_mat = f.matrix(in_window, mid_window), g.matrix(mid_window, out_window)
    lhs = _transpose(_mat_mul(g_mat, f_mat))
    rhs = _mat_mul(_transpose(f_mat), _transpose(g_mat))
    return lhs == rhs


# -- coalgebra-side maps used by the duality tests ------------------------------

def phi_as_map(n, s):
    """The coordinate-side map dual to the offset-rescaling endomorphism."""
    if s == 0:
        raise ValueError("the offset multiplier s must be nonzero")

    def apply_fn(pairs):
        j, eps = split_offsets(pairs, n)
        if any(e % s for e in eps):
            return []
        new_eps = tuple(e // s for e in eps)
        ht = sum(new_eps)
        i = index_tops(pairs)
        bottom = tuple(v + n * e for v, e in zip(j, new_eps))
        return [(canonicalize(i, bottom, n), Laurent.gen(ht))]

    return RowFiniteMap(apply_fn)


def det_multiplication_map(n, r, window, height_scalar=None):
    """Multiplication by the affine determinant function, windowed.

    Sends a degree-r coordinate monomial to the terms of its product with the
    determinant sum whose det-block offsets have absolute value <= window.
    """
    import itertools

    from .weyl import all_perms as _perms, perm_sign

    if height_scalar is None:
        height_scalar = Laurent.gen
    base = tuple(range(1, n + 1))

    def items(pairs):
        for sigma in _perms(n):
            sign = perm_sign(sigma)
            for eps in itertools.product(range(-window, window + 1), repeat=n):
                tops = base + index_tops(pairs)
                bottoms = (
                    tuple(sigma[m] + n * eps[m] for m in range(n))
                    + index_bottoms(pairs)
                )
                yield canonicalize(tops, bottoms, n), height_scalar(sum(eps)) * sign

    def apply_fn(pairs):
        return accumulate(items(pairs)).items()

    return RowFiniteMap(apply_fn)
