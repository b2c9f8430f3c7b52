"""Operational coordinate-coalgebra machinery: the middle-tuple product
oracle and the coalgebra-side maps of the duality checks.

The comultiplication of a coordinate monomial is an infinite formal sum, so it
is never materialized; every use here factors through finite pairings against
dual basis vectors.  The coefficient of xi_c in xi_x * xi_y counts the middle
tuples s that split c into an x-compatible and a y-compatible part.  For a
canonical x = (i, j) the middles form one orbit under the place permutations
fixing i, and the count is constant on the orbits of the bottoms, so one
middle suffices: with stab the order of a label's stabilizer (``weyl``'s
``stabilizer_order`` of its pairs),

    z_c = stab(c) / stab(x) * #{q : (j, q) in the orbit of y, (i, q) ~ c},

the q being the distinct images l.w over every w with k.w = j, y = (k, l).
The division is exact; a remainder raises ``ArithmeticError``.  The oracle
shares nothing with the double-coset engine except the canonical labelling
and the matching kernel.

The coalgebra-side maps are row-finite and compose one label at a time.  The
algebra is the dual of this coalgebra, so each algebra-side map is the
transpose (``sharp``) of a coalgebra-side one, taken over a window of inputs.
"""

from __future__ import annotations

import itertools
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
from .weyl import affine_images, all_perms, perm_sign, stabilizer_order


def multiply_schur_oracle(x, y):
    """Product by middle-tuple counting."""
    return bilinear(x, y, _schur_basis_product)


def _schur_basis_product(x_pairs, y_pairs, n):
    """xi_x * xi_y for canonical labels x, y, from the one middle j of x."""
    i, j = index_tops(x_pairs), index_bottoms(x_pairs)
    counts = {}
    for q in set(affine_images(index_tops(y_pairs), j, index_bottoms(y_pairs), n)):
        c = canonicalize(i, q, n)
        counts[c] = counts.get(c, 0) + 1
    stab_x = stabilizer_order(x_pairs)
    out = {}
    for c, count in counts.items():
        z, rem = divmod(stabilizer_order(c) * count, stab_x)
        if rem:
            raise ArithmeticError("non-integral middle-tuple count for %s * %s (n=%d)"
                                  % (x_pairs, y_pairs, n))
        out[c] = z
    return out


# -- row-finite maps, composed label by label, and their transposes ----------

class RowFiniteMap:
    """A formal linear map between based spaces, given by a coefficient rule.

    ``apply(idx)`` returns the image of a source basis index as a dict
    {output index: nonzero Laurent coefficient}, computed once per index and
    shared by every caller, so it is read-only.  Maps compose one source
    label at a time (``after``), so no output window is ever enumerated.
    """

    def __init__(self, apply_fn):
        self.apply = lru_cache(maxsize=None)(lambda idx: accumulate(apply_fn(idx)))

    def after(self, f):
        """The composite self o f: apply f, then self to each term of the image."""
        return RowFiniteMap(lambda idx: (
            (o, c1 * c2) for m, c1 in f.apply(idx).items()
            for o, c2 in self.apply(m).items()
        ))

    def sharp(self, sources):
        """The dual map xi_o -> sum <xi_o, self(c_idx)> xi_idx over idx in sources."""
        columns = {}
        for idx in sources:
            for o, c in self.apply(idx).items():
                columns.setdefault(o, []).append((idx, c))
        return RowFiniteMap(lambda o: columns.get(o, ()))


# -- coalgebra-side maps used by the duality checks -----------------------------

def phi_as_map(n, s):
    """The coordinate-side map dual to the offset-rescaling endomorphism."""
    if s == 0:
        raise ValueError("the offset multiplier s must be nonzero")

    def apply_fn(pairs):
        # unmemoized: RowFiniteMap asks once per label, so the shared memo
        # would only grow
        j, eps = split_offsets.__wrapped__(pairs, n)
        if any(e % s for e in eps):
            return []
        new_eps = tuple(e // s for e in eps)
        ht = sum(new_eps)
        i = index_tops(pairs)
        bottom = tuple(v + n * e for v, e in zip(j, new_eps))
        return [(canonicalize(i, bottom, n), Laurent.gen(ht))]

    return RowFiniteMap(apply_fn)


def det_multiplication_map(n, window, height_scalar=Laurent.gen):
    """Multiplication by the affine determinant function, windowed.

    Sends a coordinate monomial of any degree to the terms of its product with
    the determinant sum whose det-block offsets have absolute value <= window.
    """
    base = tuple(range(1, n + 1))
    # the determinant's terms: (det-block bottoms, signed height coefficient)
    blocks = [
        (tuple(sigma[m] + n * eps[m] for m in range(n)),
         height_scalar(sum(eps)) * perm_sign(sigma))
        for sigma in all_perms(n)
        for eps in itertools.product(range(-window, window + 1), repeat=n)
    ]

    def image(pairs):
        tops, rest = base + index_tops(pairs), index_bottoms(pairs)
        for block, c in blocks:
            yield canonicalize(tops, block + rest, n), c

    return RowFiniteMap(image)
