"""Maps between Schur algebras: the offset-rescaling endomorphisms, the
collapse onto the finite subalgebra, and the determinant transfer maps.

All maps are computed with the parameter symbolic, so identities like the
composition law can be checked generically; specialization is layered on top.
"""

from __future__ import annotations

import itertools

from .laurent import Laurent
from .schur import (
    AlgebraElement,
    canonicalize,
    index_tops,
    split_offsets,
)
from .weyl import bar, stabilizer_order


def collapse_index(pairs, n):
    """[Sigma_{i,j} : Sigma_{i,j,eps}] for a canonical label split as (i, j+n*eps).

    Both are stabilizers of tuples, so each order is the product of the
    factorials of the multiplicities of the tuple's entries.
    """
    i = index_tops(pairs)
    j, eps = split_offsets(pairs, n)
    return stabilizer_order(zip(i, j)) // stabilizer_order(zip(i, j, eps))


def psi_as(x, s, height_scalar=Laurent.gen):
    """Rescale bottom offsets by s, weighting by the parameter to the height.

    For s = 0 this is the collapse onto the finite subalgebra followed by the
    embedding (the index-weighted formula with the Kronecker exponent).
    """
    n = x.n

    def items():
        for pairs, c in x.terms.items():
            j, eps = split_offsets(pairs, n)
            coeff = c * height_scalar(sum(eps))
            if s == 0:
                coeff = coeff * collapse_index(pairs, n)
            bottom = tuple(v + n * s * e for v, e in zip(j, eps))
            yield canonicalize(index_tops(pairs), bottom, n), coeff

    return AlgebraElement._from_items(x.context, items())


def psi_a(x, height_scalar=Laurent.gen):
    """Surjection onto the finite subalgebra: offsets collapsed with index weights."""
    return psi_as(x, 0, height_scalar)


# The collapse followed by the finite embedding: the same map on the same
# carrier algebra.
psi_a0 = psi_a


def _det_patterns(pairs, n):
    """Distinct size-n sub-multisets of a label usable as a determinant block.

    Yields (pattern, remainder) where the pattern holds exactly one pair per
    top value 1..n and the bottom residues are pairwise distinct.
    """
    by_top = {}
    for p in set(pairs):
        by_top.setdefault(p[0], []).append(p)
    choices = [by_top.get(t, []) for t in range(1, n + 1)]
    for combo in itertools.product(*choices):
        residues = [bar(p[1], n) for p in combo]
        if len(set(residues)) != n:
            continue
        # one pair per top, so the n pairs are distinct members of the label
        rest = list(pairs)
        for p in combo:
            rest.remove(p)
        yield combo, tuple(rest)


def det_tilde_sharp(x, height_scalar=Laurent.gen):
    """The determinant transfer from degree n+r down to degree r.

    The coefficient of an output label collects, over all determinant-shaped
    sub-multisets of each input label, the permutation sign times the
    parameter raised to the total block offset.
    """
    from .weyl import perm_sign

    n = x.n
    if x.r < n:
        raise ValueError("source degree must be at least n")

    def items():
        for pairs, c in x.terms.items():
            for pattern, rest in _det_patterns(pairs, n):
                # pattern entry for top m is (m, sigma(m) + n*eps_m)
                sigma = tuple(bar(p[1], n) for p in pattern)
                eps = tuple((p[1] - bar(p[1], n)) // n for p in pattern)
                yield rest, c * height_scalar(sum(eps)) * perm_sign(sigma)

    # The remainder of a canonical label is sorted with tops in 1..n.
    return AlgebraElement._from_items((n, x.r - n), items())


def det_star(x):
    """The finite determinant transfer; requires finite support."""
    if not x.is_finite_support():
        raise ValueError("det_star needs an element of the finite subalgebra")
    out = det_tilde_sharp(x)
    assert out.is_finite_support()
    return out
