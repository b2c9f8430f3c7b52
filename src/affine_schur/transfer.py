"""Transfer operators between invariant subspaces of elementary-operator sums,
with the double-coset product identity and its supporting lemmas.

Operators are finite rational combinations of elementary matrix units x_{ij}
over an arbitrary hashable index set carrying a right group action with finite
point stabilizers.  T_{H1,H2} sums the H1-coset translates of an H1-invariant
operator over H1\\H2.  Everything is instantiated twice: for finite symmetric
groups acting on points or tuples, and for the extended affine Weyl group
acting on integer tuples, where sums against the whole group are evaluated
entry-exactly inside an explicit index window.
"""

from __future__ import annotations

from fractions import Fraction

from .combination import Combination, accumulate
from .weyl import AffineWeylElement, affine_matchings, apply_perm, invert_perm


class OperatorSum(Combination):
    """A finite sum of elementary operators x_{ij} with rational coefficients."""

    __slots__ = ()

    def __init__(self, terms=None):
        super().__init__((), terms)

    _coeff = staticmethod(Fraction)

    def _key(self, key):
        i, j = key
        return (i, j)

    @classmethod
    def unit(cls, i, j, coeff=1):
        return cls({(i, j): coeff})

    def __mul__(self, other):
        """Operator composition: x_{ij} x_{kl} = [j == k] x_{il}."""
        by_row = {}
        for (k, l), c in other.terms.items():
            by_row.setdefault(k, []).append((l, c))
        return OperatorSum._from_items((), (
            ((i, l), c1 * c2)
            for (i, j), c1 in self.terms.items()
            for l, c2 in by_row.get(j, [])
        ))

    def translate(self, g, action):
        """The translate a^g relabelling both indices by the action."""
        return OperatorSum._from_items((), (
            ((action(i, g), action(j, g)), c) for (i, j), c in self.terms.items()
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


# -- actions ---------------------------------------------------------------------

def point_action(i, g):
    """Right action of a permutation on a point: i . g = g^{-1}(i)."""
    return g.index(i) + 1


def tuple_action(t, g):
    """Right place-permutation action on tuples."""
    return apply_perm(t, g)


def make_affine_action(n):
    def action(t, w):
        return w.apply(t, n)

    return action


def is_invariant(a, group, action):
    return all(a.translate(g, action) == a for g in group)


# -- finite-group transfers --------------------------------------------------------

def right_cosets(h1, h2, mul):
    """Representatives of H1\\H2 for explicitly listed subgroups."""
    covered = set()
    reps = []
    for g in h2:
        if g in covered:
            continue
        reps.append(g)
        for h in h1:
            covered.add(mul(h, g))
    return reps


def perm_mul(a, b):
    from .weyl import compose_perm

    return compose_perm(a, b)


def transfer(a, h1, h2, action, mul=perm_mul, check=True):
    """T_{H1,H2}(a) = sum of a^g over H1\\H2, for finite listed groups."""
    if check and not is_invariant(a, h1, action):
        raise ValueError("operator is not invariant under H1")
    out = OperatorSum.zero()
    for g in right_cosets(h1, h2, mul):
        out = out + a.translate(g, action)
    return out


def conjugate_subgroup(h, w, mul, inv):
    """H^w = w^{-1} H w."""
    wi = inv(w)
    return [mul(mul(wi, g), w) for g in h]


def double_coset_reps(h1, g_elements, h2, mul):
    """Representatives of H2\\G/H1 for explicitly listed groups."""
    covered = set()
    reps = []
    for g in g_elements:
        if g in covered:
            continue
        reps.append(g)
        for x in h2:
            for y in h1:
                covered.add(mul(mul(x, g), y))
    return reps


def perm_inv(g):
    return invert_perm(g)


def mackey_product(a, h1, b, h2, h3, action, mul=perm_mul, inv=perm_inv):
    """The double-coset sum for a product of transfers, verified on the spot.

    Computes the sum of T_{H1 meet H2^w, H3}(a b^w) over the double cosets
    H2\\H3/H1 and checks that it equals T_{H1,H3}(a) T_{H2,H3}(b) before
    returning it.  Hypothesis violations raise ``ValueError`` with the failing
    coset representative; a sum that disagrees raises ``ArithmeticError``.
    """
    if not is_invariant(a, h1, action):
        raise ValueError("left operator not H1-invariant")
    if not is_invariant(b, h2, action):
        raise ValueError("right operator not H2-invariant")
    t_b = transfer(b, h2, h3, action, mul)
    if not is_invariant(a * t_b, h1, action):
        raise ValueError("product a*T(b) not H1-invariant")

    lhs = transfer(a, h1, h3, action, mul) * t_b

    rhs = OperatorSum.zero()
    for w in double_coset_reps(h1, h3, h2, mul):
        h2w = conjugate_subgroup(h2, w, mul, inv)
        inter = [g for g in h2w if g in set(h1)]
        term_arg = a * b.translate(w, action)
        if term_arg.is_zero():
            continue
        if not is_invariant(term_arg, inter, action):
            raise ValueError("a*b^w not invariant under H1 meet H2^w at w=%r" % (w,))
        rhs = rhs + transfer(term_arg, inter, h3, action, mul)
    if lhs != rhs:
        raise ArithmeticError("double-coset sum disagrees with the transfer product")
    return rhs


# -- affine instantiation ------------------------------------------------------------

def affine_stabilizer(tuples, n, r):
    """All group elements fixing every listed tuple; finite for nonempty input."""
    tuples = [tuple(t) for t in tuples]
    if not tuples or any(len(t) != r for t in tuples):
        raise ValueError("give at least one tuple, each of length r=%d" % r)
    return [
        w for w in affine_matchings(tuples[0], tuples[0], n)
        if all(w.apply(t, n) == t for t in tuples)
    ]


def affine_transfer_window(a, h1, n, window):
    """T_{H1, whole group}(a) restricted to a finite tuple window, entry exact.

    The full transfer has infinite support, so it is only exposed against an
    explicit window; each requested entry is an exact finite coset count.
    """
    window = [tuple(t) for t in window]
    if not is_invariant(a, h1, make_affine_action(n)):
        raise ValueError("operator is not invariant under H1")
    wset = set(window)
    return OperatorSum._from_items((), (
        ((p, q), c)
        for q in window
        for p, c in affine_transfer_column(a, h1, n, q)
        if p in wset
    ))


def affine_transfer_column(a, h1, n, q):
    """All entries of T_{H1, whole group}(a) in the column of input index q."""

    def items():
        for (i, j), coeff in a.terms.items():
            covered = set()
            for w in affine_matchings(j, q, n):
                if w in covered:
                    continue
                for h in h1:
                    covered.add(h.compose(w))
                yield w.apply(i, n), coeff

    return list(accumulate(items()).items())


def affine_product_window(a, h1, b, h2, n, window):
    """(T_{H1,G}(a) T_{H2,G}(b)) restricted to a window, G the whole group.

    Row-finiteness makes each windowed entry a finite exact sum: the full
    column of the right factor is materialized, then paired against exact
    entries of the left factor.
    """
    window = [tuple(t) for t in window]
    wset = set(window)
    return OperatorSum._from_items((), (
        ((p, s), ca * cb)
        for s in window
        for q, cb in affine_transfer_column(b, h2, n, s)
        for p, ca in affine_transfer_column(a, h1, n, q)
        if p in wset
    ))


def affine_mackey_window(a, h1, b, h2, n, window):
    """Both sides of the double-coset identity against the whole affine group.

    The coset sum runs over the finitely many double cosets where the
    translated product survives; both sides come back window-restricted.
    """
    lhs = affine_product_window(a, h1, b, h2, n, window)

    action = make_affine_action(n)
    # Candidate representatives: group elements w with a * b^w nonzero need
    # (left index of some b-term).w = (right index of some a-term).
    candidates = [
        w for _, j in a.terms for k, _ in b.terms for w in affine_matchings(k, j, n)
    ]
    rhs = OperatorSum.zero()
    h1set = set(h1)
    mul, inv = AffineWeylElement.compose, AffineWeylElement.inverse
    for w in double_coset_reps(h1, candidates, h2, mul):
        term_arg = a * b.translate(w, action)
        if term_arg.is_zero():
            continue
        h2w = conjugate_subgroup(h2, w, mul, inv)
        inter = [g for g in h2w if g in h1set]
        rhs = rhs + affine_transfer_window(term_arg, inter, n, window)
    return lhs, rhs
