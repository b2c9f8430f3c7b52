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
from fractions import Fraction

from .laurent import Laurent, format_rational, parse_rational
from .schur import AlgebraElement
from .weyl import all_perms, bar, perm_sign


class PeriodicMatrix:
    """A row-finite matrix with m[i, j] == m[i+n, j+n], finitely supported."""

    __slots__ = ("n", "entries")

    def __init__(self, n, entries=None):
        clean = {}
        if entries:
            for (i, j), v in dict(entries).items():
                if not isinstance(v, Laurent):
                    v = Laurent.const(v)
                if v.is_zero():
                    continue
                row = bar(i, n)
                col = j + row - i
                key = (row, col)
                prior = clean.get(key)
                clean[key] = v if prior is None else prior + v
        object.__setattr__(self, "n", int(n))
        object.__setattr__(
            self, "entries", {k: v for k, v in clean.items() if not v.is_zero()}
        )

    def __setattr__(self, name, value):
        raise AttributeError("immutable")

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def identity(cls, n):
        return cls(n, {(i, i): 1 for i in range(1, n + 1)})

    @classmethod
    def unit(cls, n, i, j, coeff=1):
        """The periodic elementary matrix supported on the orbit of (i, j)."""
        return cls(n, {(i, j): coeff})

    def entry(self, i, j):
        row = bar(i, self.n)
        return self.entries.get((row, j + row - i), Laurent.zero())

    def __eq__(self, other):
        return (
            isinstance(other, PeriodicMatrix)
            and self.n == other.n
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.n, frozenset(self.entries.items())))

    def __add__(self, other):
        assert self.n == other.n
        terms = dict(self.entries)
        for k, v in other.entries.items():
            terms[k] = terms.get(k, Laurent.zero()) + v
        return PeriodicMatrix(self.n, terms)

    def __neg__(self):
        return PeriodicMatrix(self.n, {k: -v for k, v in self.entries.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, coeff):
        if not isinstance(coeff, Laurent):
            coeff = Laurent.const(coeff)
        return PeriodicMatrix(self.n, {k: coeff * v for k, v in self.entries.items()})

    def __mul__(self, other):
        if isinstance(other, PeriodicMatrix):
            return matrix_mul(self, other)
        return self.scale(other)

    __rmul__ = scale

    def transpose(self):
        return PeriodicMatrix(self.n, {(j, i): v for (i, j), v in self.entries.items()})

    def to_laurent_matrix(self):
        """The n x n matrix over Q[t, t^-1]: entry (i,j) collects offsets."""
        mat = [[Laurent.zero() for _ in range(self.n)] for _ in range(self.n)]
        for (i, j), v in self.entries.items():
            col = bar(j, self.n)
            off = (j - col) // self.n
            assert v.is_constant(), "Laurent-matrix form needs rational entries"
            mat[i - 1][col - 1] = mat[i - 1][col - 1] + Laurent.gen(
                off, v.constant_value()
            )
        return mat

    @classmethod
    def from_laurent_matrix(cls, mat):
        n = len(mat)
        entries = {}
        for i in range(n):
            assert len(mat[i]) == n
            for j in range(n):
                for off, c in mat[i][j].terms.items():
                    entries[(i + 1, j + 1 + n * off)] = Laurent.const(c)
        return cls(n, entries)

    def __str__(self):
        if not self.entries:
            return "0"
        chunks = []
        for (i, j) in sorted(self.entries):
            v = self.entries[(i, j)]
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
        for (i, j), v in sorted(self.entries.items()):
            if v.is_constant():
                out["entries"].append([i, j, format_rational(v.constant_value())])
            else:
                out["entries"].append([i, j, v.to_json()])
        return out

    @classmethod
    def from_json(cls, data):
        n = int(data["n"])
        entries = {}
        for i, j, v in data.get("entries", []):
            coeff = Laurent.from_json(v) if isinstance(v, list) else Laurent.const(parse_rational(str(v)))
            entries[(int(i), int(j))] = coeff
        return cls(n, entries)


def matrix_mul(g, h):
    """Product in the periodic matrix algebra, via direct row convolution."""
    assert g.n == h.n
    n = g.n
    entries = {}
    for (i, j), v in g.entries.items():
        for (p, q), w in h.entries.items():
            # E_{i,j} E_{p,q} lands at (i, q + j - p) when j = p mod n.
            if bar(j, n) != p:
                continue
            key = (i, q + j - p)
            entries[key] = entries.get(key, Laurent.zero()) + v * w
    return PeriodicMatrix(n, entries)


def eta_as(g, s, height_scalar=None):
    """The endomorphism substituting t -> a t^s in the Laurent realization.

    Sends the basis matrix with offset l to a^l times the one with offset s*l;
    for s = 0 all offsets collapse onto the finite block.
    """
    if height_scalar is None:
        height_scalar = Laurent.gen
    n = g.n
    entries = {}
    for (i, j), v in g.entries.items():
        col = bar(j, n)
        off = (j - col) // n
        key = (i, col + n * s * off)
        term = v * height_scalar(off)
        entries[key] = entries.get(key, Laurent.zero()) + term
    return PeriodicMatrix(n, entries)


def eta_a(g):
    """The collapse onto the finite matrix algebra (s = 0)."""
    return eta_as(g, 0)


def eta_as_at(g, s, a0):
    a0 = Fraction(a0)
    assert a0 != 0
    return eta_as(g, s, height_scalar=lambda off: Laurent.const(a0 ** off))


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
    """Conjugation by a Weyl symmetry: entry (i,j) moves to (w(i), w(j))."""
    if w.n != g.n:
        raise ValueError("symmetry is for n=%d, matrix has n=%d" % (w.n, g.n))
    return PeriodicMatrix(
        g.n, {(w(i), w(j)): v for (i, j), v in g.entries.items()}
    )


def evaluate(g, r):
    """The image of a semigroup element in the degree-r algebra.

    The coefficient of a basis label is the product of the matrix entries over
    its coordinate pairs; the sum over canonical labels is finite because each
    row has finite support.
    """
    n = g.n
    atoms = sorted(g.entries.items())
    terms = {}
    for combo in itertools.combinations_with_replacement(atoms, r):
        pairs = tuple(sorted(k for k, _ in combo))
        coeff = Laurent.one()
        for _, v in combo:
            coeff = coeff * v
        terms[pairs] = terms.get(pairs, Laurent.zero()) + coeff
    return AlgebraElement(n, r, terms)


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


def _small_rationals():
    yield Fraction(1)
    yield Fraction(-1)
    yield Fraction(2)
    yield Fraction(1, 2)
    yield Fraction(-2)
    yield Fraction(3)
    yield Fraction(1, 3)
    yield Fraction(-1, 2)
    yield Fraction(2, 3)
    yield Fraction(5)


def _base_matrices(n, special):
    """Deterministic stream of invertible finite matrices (det 1 if special)."""
    from .laurent import Laurent as L

    eye = PeriodicMatrix.identity(n)
    yield eye
    offs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    for c in (1, -1, 2, -2, Fraction(1, 2)):
        for (u, v) in offs:
            yield eye + PeriodicMatrix.unit(n, u, v, c)
    for (u, v) in offs:
        for (p, q) in offs:
            for c in (1, -1):
                yield (eye + PeriodicMatrix.unit(n, u, v, c)) * (
                    eye + PeriodicMatrix.unit(n, p, q, 1)
                )
    if not special:
        # diagonal rescalings and permutation matrices
        for c in (2, Fraction(1, 2), -1, 3):
            for u in range(1, n + 1):
                m = dict(eye.entries)
                m[(u, u)] = L.const(c)
                yield PeriodicMatrix(n, m)
        for sigma in all_perms(n):
            yield PeriodicMatrix(n, {(i, sigma[i - 1]): 1 for i in range(1, n + 1)})


def nonvanishing_witness(poly, n, special=False, a0=Fraction(1), max_tries=200000):
    """A semigroup element at which a nonzero coordinate combination is nonzero.

    ``poly`` is a list of (canonical label, rational coefficient) pairs, all of
    one degree.  Follows the constructive proof: pick the offset support of the
    terms, spread block-scaled copies of a finite invertible matrix over those
    offsets, and search deterministically over small block scalars, verifying
    by direct evaluation.  With ``special`` the witness is normalized to have
    affine determinant one at ``a0``.
    """
    poly = [(tuple(tuple(p) for p in pairs), Fraction(c)) for pairs, c in poly if c]
    if not poly:
        raise ValueError("the zero combination has no nonvanishing witness")
    degrees = {len(pairs) for pairs, _ in poly}
    assert len(degrees) == 1, "terms must be homogeneous of one degree"
    r = degrees.pop()
    a0 = Fraction(a0)
    assert a0 != 0

    offsets = set()
    for pairs, _ in poly:
        for (i, j) in pairs:
            col = bar(j, n)
            offsets.add((j - col) // n)
    offsets = sorted(offsets)

    tries = 0
    for scalars in _scalar_streams(len(offsets)):
        blocks = dict(zip(offsets, scalars))
        for base in _base_matrices(n, special):
            tries += 1
            if tries > max_tries:
                raise RuntimeError("witness search exhausted")
            g = _assemble(base, blocks, n)
            if special:
                c = sum(s * a0 ** l for l, s in blocks.items())
                if c == 0:
                    continue
                g = g.scale(Fraction(1) / c)
            value = evaluate_combination(poly, g)
            if value.is_zero():
                continue
            if special:
                if not membership(g, "SL-at", a0):
                    continue
            elif not membership(g, "GL-generic"):
                continue
            return g, value
    raise RuntimeError("witness search exhausted")


def _scalar_streams(k):
    """Deterministic tuples of nonzero small rationals, all-ones first."""
    pool = list(_small_rationals())
    yield (Fraction(1),) * k
    seen = {(Fraction(1),) * k}
    for combo in itertools.product(pool[:6], repeat=k):
        if combo not in seen:
            seen.add(combo)
            yield combo


def _assemble(base, blocks, n):
    entries = {}
    for (i, j), v in base.entries.items():
        for off, scalar in blocks.items():
            entries[(i, j + n * off)] = v * Laurent.const(scalar)
    return PeriodicMatrix(n, entries)
