"""The faithful action on the infinite tensor space and the multiplication
oracle it yields.

A basis element with top tuple i and bottom tuple b acts on a tensor basis
vector v_u through the matchings of b onto u: a w with b.w = u sending place
k to place p emits v_{i.w}, whose entry at place k is u_k + i_p - b_p.  Each
image is counted once per w and divided by the order of the pair stabilizer,
which permutes those w without moving the image.  Products are reconstructed
from the composite action on one representative per middle-tuple orbit; a
basis element can hit a single output vector with multiplicity, so
coefficients are recovered by an exact integer division with a consistency
check rather than read off.
"""

from __future__ import annotations

from fractions import Fraction

from .combination import Combination, checked_int, read
from .laurent import Laurent
from .schur import (
    bilinear,
    canonicalize,
    index_bottoms,
    index_tops,
    middle_orbit_rep,
)
from .weyl import affine_images, stabilizer_order


class TensorVector(Combination):
    """A finite combination of tensor basis vectors v_u, u an integer tuple."""

    __slots__ = ()

    def __init__(self, n, r, terms=None):
        super().__init__((checked_int(n, "n", 1), checked_int(r, "r", 0)), terms)

    n = property(lambda self: self.context[0])
    r = property(lambda self: self.context[1])

    def _key(self, t):
        if not isinstance(t, (list, tuple)):
            raise ValueError("a tensor index is a tuple of integers, got %r" % (t,))
        t = tuple(int(v) for v in t)
        if len(t) != self.r:
            raise ValueError(
                "tuple %s has length %d, the vector has r=%d" % (t, len(t), self.r)
            )
        return t

    @classmethod
    def basis(cls, n, t, coeff=1):
        return cls(n, len(t), {tuple(t): coeff})

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for t in sorted(self.terms):
            c = self.terms[t]
            body = "v(%s)" % ",".join(str(v) for v in t)
            chunks.append(body if c.is_one() else "%s*%s" % (c.format(), body))
        return " + ".join(chunks)

    __repr__ = __str__

    def to_json(self):
        return {
            "n": self.n,
            "r": self.r,
            "terms": [
                {"coeff": c.to_json(), "tuple": list(t)}
                for t, c in sorted(self.terms.items())
            ],
        }

    @classmethod
    def from_json(cls, data):
        data = read(data, {"n": int, "r": int, "terms?": [
            {"coeff": Laurent.from_json, "tuple": [int]}
        ]})
        return cls(data["n"], data["r"], (
            (t["tuple"], t["coeff"]) for t in data.get("terms", ())
        ))


def _basis_action_on_tuple(pairs, u, n):
    """Action of a canonical basis element on v_u: dict {tuple: multiplicity}."""
    i = index_tops(pairs)
    b = index_bottoms(pairs)
    counts = {}
    for image in affine_images(b, u, i, n):
        counts[image] = counts.get(image, 0) + 1
    # The tops lie in 1..n, so the pair stabilizer is finite: it permutes
    # the positions of each repeated (top, bottom) pair.
    stab = stabilizer_order(pairs)
    out = {}
    for image, count in counts.items():
        if count % stab:
            raise ReconstructionError(
                "%d matchings onto %s, not a multiple of %d" % (count, image, stab)
            )
        out[image] = count // stab
    return out


def act(x, v):
    """Left action of an algebra element on a tensor vector."""
    if x.context != v.context:
        raise ValueError("context mismatch: %s vs %s" % (x.context, v.context))
    n = x.n

    def items():
        for pairs, xc in x.terms.items():
            for u, vc in v.terms.items():
                coeff = xc * vc
                for t, mult in _basis_action_on_tuple(pairs, u, n).items():
                    yield t, coeff * mult

    return TensorVector._from_items(v.context, items())


def weyl_right_act(v, w):
    """Right relabelling action v_u -> v_{u.w}."""
    return TensorVector._from_items(
        v.context, ((w.apply(u, v.n), c) for u, c in v.terms.items())
    )


class ReconstructionError(RuntimeError):
    """The composite action is not the action of any candidate combination."""


def _action_basis_product(x_pairs, y_pairs, n):
    """Structure constants recovered from the composite tensor action."""
    u = middle_orbit_rep(y_pairs, n)
    first = _basis_action_on_tuple(y_pairs, u, n)
    composite = {}
    for t, m1 in first.items():
        for p, m2 in _basis_action_on_tuple(x_pairs, t, n).items():
            composite[p] = composite.get(p, 0) + m1 * m2

    residual = {p: m for p, m in composite.items() if m}
    out = {}
    while residual:
        p = next(iter(residual))
        cand = canonicalize(p, u, n)
        action = _basis_action_on_tuple(cand, u, n)
        mult = action.get(p)
        if not mult:
            raise ReconstructionError("candidate %s misses %s" % (cand, p))
        z, rem = divmod(residual[p], mult)
        if rem or z <= 0:
            raise ReconstructionError("non-integral coefficient %s for %s"
                                      % (Fraction(residual[p], mult), cand))
        for q, m in action.items():
            new = residual.get(q, 0) - z * m
            if new < 0:
                raise ReconstructionError("inconsistent system at %s" % (q,))
            if new:
                residual[q] = new
            else:
                residual.pop(q, None)
        out[cand] = z
    return out


def multiply_via_action(x, y):
    """Product reconstructed from the composite action on orbit representatives."""
    return bilinear(x, y, _action_basis_product)
