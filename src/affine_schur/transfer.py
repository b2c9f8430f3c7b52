"""Transfer operators between invariant subspaces of elementary-operator sums,
with the double-coset product identity and its supporting lemmas.

Operators are finite rational combinations of elementary matrix units x_{ij}
whose indices are integer tuples, in the context of a period n.  There is one
group, the extended affine Weyl group, acting on both indices on the right by
t.w = w.apply(t, n).  The finite symmetric group S_r and its Young subgroups
are the lists of their zero-shift elements (``zero_shift``), which permute
places.  T_{H1,H2} sums the translates of an H1-invariant operator over
H1\\H2 for finite listed groups.  Against the whole affine group the transfer
has infinite support, so it is evaluated entry-exactly inside an explicit
index window.
"""

from __future__ import annotations

from fractions import Fraction

from .combination import Combination, accumulate, checked_int
from .weyl import AffineWeylElement, affine_matchings


class OperatorSum(Combination):
    """A finite sum of elementary operators x_{ij} with rational coefficients."""

    __slots__ = ()

    def __init__(self, n, terms=None):
        super().__init__((checked_int(n, "n", 1),), terms)

    n = property(lambda self: self.context[0])
    _coeff = staticmethod(Fraction)

    def _key(self, key):
        """A pair (i, j) of integer tuples of one length r >= 1, else ValueError."""
        if not (type(key) is tuple and len(key) == 2 and all(
                type(t) is tuple and len(t) == len(key[0]) > 0
                and all(type(v) is int for v in t) for t in key)):
            raise ValueError(
                "an operator index is a pair of integer tuples of one length"
                " r >= 1, got %r" % (key,))
        return key

    @classmethod
    def unit(cls, n, i, j, coeff=1):
        return cls(n, {(i, j): coeff})

    def __mul__(self, other):
        """Operator composition: x_{ij} x_{kl} = [j == k] x_{il}."""
        self._check_context(other)
        by_row = {}
        for (k, l), c in other.terms.items():
            by_row.setdefault(k, []).append((l, c))
        return OperatorSum._from_items(self.context, (
            ((i, l), c1 * c2)
            for (i, j), c1 in self.terms.items()
            for l, c2 in by_row.get(j, [])
        ))

    def translate(self, w):
        """The translate a^w, both indices moved by the group element w."""
        n = self.n
        return OperatorSum._from_items(self.context, (
            ((w.apply(i, n), w.apply(j, n)), c) for (i, j), c in self.terms.items()
        ))

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for (i, j) in sorted(self.terms, key=repr):
            c = self.terms[(i, j)]
            body = "x[%s,%s]" % (i, j)
            chunks.append(body if c == 1 else "%s*%s" % (c, body))
        return " + ".join(chunks)

    __repr__ = __str__


def zero_shift(perms):
    """Permutations of 1..r as the zero-shift elements of the affine Weyl group."""
    return [AffineWeylElement._unchecked(p, (0,) * len(p)) for p in perms]


def is_invariant(a, group):
    return all(a.translate(g) == a for g in group)


# -- transfers over finite listed groups ---------------------------------------------

def transfer(a, h1, h2):
    """T_{H1,H2}(a) = sum of a^g over H1\\H2, for finite listed groups."""
    if not is_invariant(a, h1):
        raise ValueError("operator is not invariant under H1")
    return sum((a.translate(g) for g in double_coset_reps(h1, h2)), OperatorSum(a.n))


def conjugate_subgroup(h, w):
    """H^w = w^{-1} H w."""
    wi = w.inverse()
    return [wi.compose(g).compose(w) for g in h]


def double_coset_reps(left, elements, right=()):
    """Representatives of the double cosets left\\G/right that meet the listed
    elements; without a right side, of the right cosets left\\G."""
    covered = set()
    reps = []
    for g in elements:
        if g in covered:
            continue
        reps.append(g)
        gs = [g.compose(y) for y in right] or [g]
        covered.update(x.compose(z) for x in left for z in gs)
    return reps


def _coset_terms(a, h1, b, h2, candidates):
    """(a b^w, H1 meet H2^w) for each double coset H2 w H1 met by the candidates
    on which a b^w is nonzero; ``ValueError`` where a b^w is not invariant."""
    h1set = set(h1)
    for w in double_coset_reps(h2, candidates, h1):
        term = a * b.translate(w)
        if not term:
            continue
        inter = [g for g in conjugate_subgroup(h2, w) if g in h1set]
        if not is_invariant(term, inter):
            raise ValueError("a*b^w not invariant under H1 meet H2^w at w=%r" % (w,))
        yield term, inter


def mackey_product(a, h1, b, h2, h3):
    """The double-coset sum for a product of transfers, verified on the spot.

    Computes the sum of T_{H1 meet H2^w, H3}(a b^w) over the double cosets
    H2\\H3/H1 and checks that it equals T_{H1,H3}(a) T_{H2,H3}(b) before
    returning it.  Hypothesis violations raise ``ValueError`` with the failing
    coset representative; a sum that disagrees raises ``ArithmeticError``.
    """
    if not is_invariant(a, h1):
        raise ValueError("left operator not H1-invariant")
    if not is_invariant(b, h2):
        raise ValueError("right operator not H2-invariant")
    t_b = transfer(b, h2, h3)
    if not is_invariant(a * t_b, h1):
        raise ValueError("product a*T(b) not H1-invariant")
    lhs = transfer(a, h1, h3) * t_b
    rhs = sum((transfer(term, inter, h3) for term, inter in _coset_terms(a, h1, b, h2, h3)),
              OperatorSum(a.n))
    if lhs != rhs:
        raise ArithmeticError("double-coset sum disagrees with the transfer product")
    return rhs


# -- against the whole affine group, through windows -----------------------------------

def affine_stabilizer(tuples, n):
    """All group elements fixing every listed tuple; finite for nonempty input."""
    tuples = [tuple(t) for t in tuples]
    if not tuples or any(len(t) != len(tuples[0]) for t in tuples):
        raise ValueError("give at least one tuple, all of one length")
    return [
        w for w in affine_matchings(tuples[0], tuples[0], n)
        if all(w.apply(t, n) == t for t in tuples)
    ]


def affine_transfer_window(a, h1, window):
    """T_{H1, whole group}(a) restricted to a finite tuple window, entry exact.

    The full transfer has infinite support, so it is only exposed against an
    explicit window; each requested entry is an exact finite coset count.
    """
    window = [tuple(t) for t in window]
    if not is_invariant(a, h1):
        raise ValueError("operator is not invariant under H1")
    wset = set(window)
    return OperatorSum._from_items(a.context, (
        ((p, q), c)
        for q in window
        for p, c in affine_transfer_column(a, h1, q)
        if p in wset
    ))


def affine_transfer_column(a, h1, q):
    """All entries of T_{H1, whole group}(a) in the column of input index q."""

    def items():
        for (i, j), coeff in a.terms.items():
            covered = set()
            for w in affine_matchings(j, q, a.n):
                if w in covered:
                    continue
                for h in h1:
                    covered.add(h.compose(w))
                yield w.apply(i, a.n), coeff

    return list(accumulate(items()).items())


def affine_product_window(a, h1, b, h2, window):
    """(T_{H1,G}(a) T_{H2,G}(b)) restricted to a window, G the whole group.

    Row-finiteness makes each windowed entry a finite exact sum: the full
    column of the right factor is materialized, then paired against exact
    entries of the left factor.
    """
    window = [tuple(t) for t in window]
    wset = set(window)
    return OperatorSum._from_items(a.context, (
        ((p, s), ca * cb)
        for s in window
        for q, cb in affine_transfer_column(b, h2, s)
        for p, ca in affine_transfer_column(a, h1, q)
        if p in wset
    ))


def affine_mackey_window(a, h1, b, h2, window):
    """Both sides of the double-coset identity against the whole affine group.

    The coset sum runs over the finitely many double cosets where the
    translated product survives; both sides come back window-restricted.
    """
    lhs = affine_product_window(a, h1, b, h2, window)
    # Candidate representatives: group elements w with a * b^w nonzero need
    # (left index of some b-term).w = (right index of some a-term).
    candidates = [
        w for _, j in a.terms for k, _ in b.terms for w in affine_matchings(k, j, a.n)
    ]
    rhs = sum((affine_transfer_window(term, inter, window)
               for term, inter in _coset_terms(a, h1, b, h2, candidates)),
              OperatorSum(a.n))
    return lhs, rhs
