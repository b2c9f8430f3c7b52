"""Periodic matrices: the shift-periodic matrix algebra, its Laurent-matrix
realization, offset-rescaling endomorphisms, the affine determinant and the
semigroup memberships it cuts out, conjugation by Weyl symmetries, evaluation
into the algebra, and the constructive nonvanishing witness.

A periodic matrix stores entries on rows 1..n only; the entry at (i, j) for
arbitrary integer i is read off by shifting both indices by a multiple of n.
Semigroup elements have rational entries; the images under the rescaling maps
pick up powers of the parameter and are stored with Laurent entries.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .combination import Combination, accumulate, checked_int, read
from .laurent import Laurent, format_rational
from .weyl import all_perms, bar, perm_sign


class PeriodicMatrix(Combination):
    """A row-finite matrix with m[i, j] == m[i+n, j+n], finitely supported.

    ``terms`` maps each (row, column) with the row in 1..n to its entry.
    """

    __slots__ = ()

    def __init__(self, n, entries=None):
        super().__init__((checked_int(n, "n", 1),), entries)

    n = property(lambda self: self.context[0])

    def _key(self, key):
        i, j = map(int, key)
        row = bar(i, self.n)
        return (row, j + row - i)

    @classmethod
    def identity(cls, n):
        return cls(n, {(i, i): 1 for i in range(1, n + 1)})

    @classmethod
    def unit(cls, n, i, j, coeff=1):
        """The periodic elementary matrix supported on the orbit of (i, j)."""
        return cls(n, {(i, j): coeff})

    def entry(self, i, j):
        return self.terms.get(self._key((i, j)), Laurent.zero())

    def __mul__(self, other):
        if isinstance(other, PeriodicMatrix):
            return matrix_mul(self, other)
        return self.scale(other)

    __rmul__ = Combination.scale

    def transpose(self):
        return PeriodicMatrix(self.n, (((j, i), v) for (i, j), v in self.terms.items()))

    def to_laurent_matrix(self):
        """The n x n matrix over Q[t, t^-1]: entry (i,j) collects offsets."""
        mat = [[Laurent.zero() for _ in range(self.n)] for _ in range(self.n)]
        for (i, j), v in self.terms.items():
            col = bar(j, self.n)
            off = (j - col) // self.n
            mat[i - 1][col - 1] = mat[i - 1][col - 1] + Laurent.gen(
                off, v.constant_value()
            )
        return mat

    @classmethod
    def from_laurent_matrix(cls, mat):
        n = len(mat)
        if any(len(row) != n for row in mat):
            raise ValueError("a Laurent matrix is square")
        return cls(n, (
            ((i, j + n * off), c)
            for i, row in enumerate(mat, 1)
            for j, entry in enumerate(row, 1)
            for off, c in entry.terms.items()
        ))

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for (i, j) in sorted(self.terms):
            v = self.terms[(i, j)]
            txt = v.format()
            if not v.is_one():
                if ("+" in txt[1:]) or ("-" in txt[1:]):
                    txt = "(%s)" % txt
                chunks.append("%s*E[%d,%d]" % (txt, i, j))
            else:
                chunks.append("E[%d,%d]" % (i, j))
        return " + ".join(chunks)

    __repr__ = __str__

    def to_json(self):
        out = {"n": self.n, "entries": []}
        for (i, j), v in sorted(self.terms.items()):
            if v.is_constant():
                out["entries"].append([i, j, format_rational(v.constant_value())])
            else:
                out["entries"].append([i, j, v.to_json()])
        return out

    @classmethod
    def from_json(cls, data):
        data = read(data, {"n": int, "entries?": [(int, int, _entry_from_json)]})
        return cls(data["n"], (((i, j), v) for i, j, v in data.get("entries", ())))


def _entry_from_json(data, path):
    """A matrix entry: a rational, or a Laurent polynomial in t as a list."""
    return read(data, Laurent.from_json if type(data) is list else Fraction, path)


def matrix_mul(g, h):
    """Product in the periodic matrix algebra, via direct row convolution."""
    g._check_context(h)
    n = g.n
    # E_{i,j} E_{p,q} lands at (i, q + j - p) when j = p mod n.
    return PeriodicMatrix._from_items(g.context, (
        ((i, q + j - p), v * w)
        for (i, j), v in g.terms.items()
        for (p, q), w in h.terms.items()
        if bar(j, n) == p
    ))


def eta_as(g, s, height_scalar=Laurent.gen):
    """The endomorphism substituting t -> a t^s in the Laurent realization.

    Sends the basis matrix with offset l to a^l times the one with offset s*l;
    for s = 0 all offsets collapse onto the finite block.
    """
    n = g.n

    def items():
        for (i, j), v in g.terms.items():
            col = bar(j, n)
            off = (j - col) // n
            yield (i, col + n * s * off), v * height_scalar(off)

    return PeriodicMatrix._from_items(g.context, items())


def eta_a(g):
    """The collapse onto the finite matrix algebra (s = 0)."""
    return eta_as(g, 0)


def det_tilde(g):
    """Determinant of the offset-collapsed matrix, exact in the parameter."""
    n = g.n
    collapsed = eta_a(g)
    total = Laurent.zero()
    for sigma in all_perms(n):
        term = Laurent.const(perm_sign(sigma))
        for row in range(1, n + 1):
            term = term * collapsed.entry(row, sigma[row - 1])
            if term.is_zero():
                break
        total = total + term
    return total


def membership(g, mode="GL-generic", a0=None):
    """Semigroup membership: generic nonvanishing or determinant one at a0."""
    d = det_tilde(g)
    if mode == "GL-generic":
        return not d.is_zero()
    if mode == "SL-at":
        if a0 is None or Fraction(a0) == 0:
            raise ValueError("SL membership needs a nonzero a0")
        return d.evaluate(a0) == 1
    raise ValueError("unknown membership mode %r" % mode)


def weyl_conjugate(w, g):
    """Conjugation by an affine Weyl element of rank n: (i,j) moves to (w(i), w(j))."""
    if w.r != g.n:
        raise ValueError("symmetry is for n=%d, matrix has n=%d" % (w.r, g.n))
    return PeriodicMatrix(
        g.n, {(w(i), w(j)): v for (i, j), v in g.terms.items()}
    )


def evaluate(g, r):
    """The image of a semigroup element in the degree-r algebra.

    The coefficient of a basis label is the product of the matrix entries over
    its coordinate pairs; the sum over canonical labels is finite because each
    row has finite support.
    """
    from .schur import AlgebraElement  # not at the top: `det` needs no algebra

    context = (g.n, checked_int(r, "r", 0))
    atoms = sorted(g.terms.items())

    def items():
        for combo in itertools.combinations_with_replacement(atoms, r):
            coeff = Laurent.one()
            for _, v in combo:
                coeff = coeff * v
            yield tuple(sorted(k for k, _ in combo)), coeff

    return AlgebraElement._from_items(context, items())


# -- nonvanishing witness --------------------------------------------------------

def coord_value(pairs, g):
    """The coordinate monomial of a canonical label evaluated at a matrix."""
    out = Laurent.one()
    for (i, j) in pairs:
        out = out * g.entry(i, j)
        if out.is_zero():
            break
    return out


def evaluate_combination(poly, g):
    """Evaluate a rational combination of coordinate monomials at a matrix."""
    total = Laurent.zero()
    for pairs, coeff in poly:
        total = total + coord_value(pairs, g) * coeff
    return total


def nonvanishing_witness(poly, n, special=False, a0=Fraction(1), max_tries=64):
    """A semigroup element at which a nonzero coordinate combination is nonzero.

    ``poly`` is a list of (canonical label, rational coefficient) pairs, all of
    one degree r.  Distinct labels are distinct monomials in independent
    matrix entries, so the combination is a nonzero polynomial of degree r in
    the entries it reads.  Each trial draws those entries from 1..2(r+n) off a
    fixed random stream and sets every other diagonal entry to 1; the affine
    determinant is then a nonzero polynomial of degree at most n in the drawn
    entries (one choice of them gives the identity).  By Schwartz-Zippel a
    trial fails with probability at most 1/2, so the default budget of 64
    trials misses with probability at most 2^-64.

    With ``special`` one more entry, at (1, 1 + n*L) with L past every offset
    the labels use, is solved for: the determinant at ``a0`` is affine in it,
    so two evaluations give the entry that makes it 1, and the combination
    does not read it.  A zero slope is a root of the (1, 1) cofactor, which
    the same bound covers, and moves on to the next trial.  Every witness is
    verified by direct evaluation and a membership test.  After ``max_tries``
    trials without one it raises ``ValueError``.
    """
    poly = accumulate((tuple(map(tuple, p)), Fraction(c)) for p, c in poly)
    poly = list(poly.items())
    if not poly:
        raise ValueError("the zero combination has no nonvanishing witness")
    degrees = {len(pairs) for pairs, _ in poly}
    if len(degrees) != 1:
        raise ValueError("the terms must all have one degree, got %s" % sorted(degrees))
    r = degrees.pop()
    a0 = Fraction(a0)
    if a0 == 0:
        raise ValueError("the specialization point a0 must be nonzero")

    support = sorted({ij for pairs, _ in poly for ij in pairs})
    last = max(((j - bar(j, n)) // n for _, j in support), default=0)
    free = PeriodicMatrix.unit(n, 1, 1 + n * max(1, last + 1))
    mode = "SL-at" if special else "GL-generic"
    rng = random.Random(0)  # a fixed stream makes every search repeatable
    for _ in range(max_tries):
        entries = {(i, i): 1 for i in range(1, n + 1)}
        entries.update((ij, rng.randint(1, 2 * (r + n))) for ij in support)
        g = PeriodicMatrix(n, entries)
        if special:
            d0 = det_tilde(g).evaluate(a0)
            slope = det_tilde(g + free).evaluate(a0) - d0
            if slope == 0:
                continue
            g = g + free.scale((1 - d0) / slope)
        value = evaluate_combination(poly, g)
        if value.is_zero():
            continue
        if membership(g, mode, a0):
            return g, value
    raise ValueError("witness search exhausted after %d trials" % max_tries)
