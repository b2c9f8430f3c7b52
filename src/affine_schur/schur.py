"""The affine Schur algebra: canonical orbit basis, element arithmetic, the
double-coset product formula, identity, the Weyl action and transposition.

A basis element is labelled by the orbit of a pair of integer tuples (i, j)
under the simultaneous extended-affine-Weyl action.  The canonical label
normalizes each coordinate pair so the top entry lies in {1..n} (shifting the
bottom entry along) and sorts the pairs lexicographically; this is a complete
orbit invariant.

The product xi_{i,j+ne} * xi_{j,l+ne'} sums Young-subgroup indices over the
double cosets H2\\G/H1 of the stabilizers G of j, H1 of (i, j, e) and H2 of
(j, l, e').  Inside each block of G (the positions with one middle residue) a
double coset is a non-negative integer matrix with fixed row and column sums
(James-Kerber 1.3.10): rows are the left factor's (top, offset) types,
columns the right factor's (bottom residue, offset) types.  The engine sums
the tables' terms row type by row type, merging partial tables that agree on
their remaining column capacities and their output multiset, and ends each
coefficient with one exact division (a remainder raises ``ArithmeticError``).
It never lists the group, so there is no rank cap; the brute-force
``weyl.double_cosets`` (capped at r = 8) is only a test oracle.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial
from operator import mul

from .combination import Combination, checked_int, read
from .laurent import Laurent, _normal
from .weyl import bar, bar_tuple, tuple_orbit_rep, weakly_increasing_tuples


def canonicalize(i, j, n):
    """Canonical label of the orbit of the tuple pair (i, j).

    Each coordinate pair (i_k, j_k) becomes (bar(i_k), j_k + bar(i_k) - i_k)
    and the pairs are sorted.
    """
    if len(i) != len(j):
        raise ValueError("tuple lengths differ: %d vs %d" % (len(i), len(j)))
    pairs = []
    for ik, jk in zip(i, j):
        top = bar(ik, n)
        pairs.append((top, jk + top - ik))
    return tuple(sorted(pairs))


def index_tops(pairs):
    return tuple(p[0] for p in pairs)


def index_bottoms(pairs):
    return tuple(p[1] for p in pairs)


@lru_cache(maxsize=None)
def split_offsets(pairs, n):
    """Write the bottoms as j + n*eps with j in I(n,r); returns (j, eps).

    Memoized: the homomorphisms in ``homs`` split the same labels over and over.
    """
    bottoms = index_bottoms(pairs)
    j = bar_tuple(bottoms, n)
    eps = tuple((b - jj) // n for b, jj in zip(bottoms, j))
    return j, eps


def max_offset(pairs, n):
    _, eps = split_offsets(pairs, n)
    return max((abs(e) for e in eps), default=0)


def format_index(pairs):
    tops = ",".join(str(p[0]) for p in pairs)
    bottoms = ",".join(str(p[1]) for p in pairs)
    return "xi[(%s)|(%s)]" % (tops, bottoms)


# -- structure constants -------------------------------------------------------

_persistent_cache = None


class CacheMismatchError(RuntimeError):
    """A persistent-cache record differs from a fresh derivation of its product."""


def set_persistent_cache(cache):
    """Install a persistent structure-constant cache (or None to disable).

    Installing a cache empties the in-process memo of ``structure_constants``,
    so every record of the cache is re-derived when it is first used.
    """
    global _persistent_cache
    _persistent_cache = cache
    if cache is not None:
        _forget_structure_constants()


@lru_cache(maxsize=None)
def structure_constants(x_pairs, y_pairs, n):
    """The product xi_x * xi_y as a dict {canonical pairs: positive int}.

    The values are ``int``s, as ``Laurent`` coefficients are where integral,
    so ``bilinear`` scales by them without building a constant polynomial.
    ``multiply`` asks only for composable pairs; any other pair gives {}.
    Computed by ``_green_product`` and memoized in-process.  Its key order is
    part of the result: ``looplie.y_split`` lists its terms in it, so the
    ``decompose`` trees follow it, and a persistent cache stores records in
    it.  Its final division is exact; a remainder raises ``ArithmeticError``.
    When a persistent cache is installed, a miss is written to it, and a
    record read from it is re-derived the first time this process uses it; a
    mismatch raises ``CacheMismatchError`` before the record can reach any
    output.
    """
    key = (n, x_pairs, y_pairs)
    out = _green_product(x_pairs, y_pairs, n)
    if _persistent_cache is not None:
        stored = _persistent_cache.get(key)
        if stored is None:
            _persistent_cache.put(key, out)
        elif stored != out:
            raise CacheMismatchError(
                "persistent cache record for %s * %s (n=%d) disagrees with a "
                "fresh derivation" % (format_index(x_pairs), format_index(y_pairs), n)
            )
    return out


# Bound here, so that a timing or profiling wrapper installed over the module
# attribute ``structure_constants`` does not hide the memo's ``cache_clear``.
_forget_structure_constants = structure_constants.cache_clear


def _green_product(x_pairs, y_pairs, n):
    """xi_{i,j+n*eps} * xi_{j,l+n*eps'} as a sum over contingency tables.

    A table M of block c adds M[a][b] copies of (i_a, l_b + n*(eps_a +
    eps'_b)); its coefficient is prod(output multiplicity)! / prod M[a][b]!.

    The rows of block c are the left label's pairs (i_a, c + n*eps_a) and
    its columns the right label's pairs (c, l_b + n*eps'_b), read from the
    per-label memos ``_row_types`` and ``_column_types``, so the output pair
    is the column's bottom shifted by n*eps_a.  The tables are built row
    type by row type, and partial tables are merged by their state: one int
    of digits ``width`` bytes wide, the least width that holds r.  Its low r
    digits are the current block's remaining column capacities, all zero
    between blocks; above them each output pair's multiplicity has its
    digit, numbered in ``place``.  A move adds one int, and the final loop
    reads all of a state's digits with one ``to_bytes``.  A state's weight
    is the sum, over the partial tables that reach it, of prod over rows of
    need! / prod M[a][b]!.  A label's coefficient is then prod(output
    multiplicity)! * weight / prod need!, one exact division; a remainder
    raises ``ArithmeticError``.

    The keys come in the order in which a depth-first walk over the tables
    (rows in turn, each row's spreads in ``_spreads`` order) first reaches
    them: states are visited in insertion order, and the spreads of one row
    are all of one total, so none is a prefix of another.
    ``looplie.y_split`` lists its terms, and so ``decompose`` its trees, in
    this order.
    """
    middle, rows = _row_types(x_pairs, n)
    tops, width, cols, starts = _column_types(y_pairs)
    if middle != tops:
        return {}

    fact = [factorial(m) for m in range(len(x_pairs) + 1)]
    digit = 8 * width
    low = digit * len(x_pairs)  # no block has more than r columns
    mask = (1 << low) - 1
    place = {}  # output pair -> its digit number, numbered as first seen
    denom = 1
    states = {0: 1}  # packed state -> weight
    for c, row_types in rows.items():
        col, start = cols[c], starts[c]
        for (top, bottom), need in row_types.items():
            shift = bottom - c  # n * eps_a
            outs = [
                1 << low + digit * place.setdefault((top, l + shift), len(place))
                for _, l in col
            ]
            moves = {}
            after = {}
            for key, w in states.items():
                left = key & mask
                step = moves.get(left)
                if step is None:  # a block's first row finds no capacity left
                    step = moves[left] = [
                        (sum(map(mul, counts, outs), rest - left), ways)
                        for rest, counts, ways in _spreads(need, left or start, digit)
                    ]
                for added, ways in step:
                    moved = key + added
                    after[moved] = after.get(moved, 0) + w * ways
            states = after
            denom *= fact[need]

    outputs = sorted(place.items())
    size = len(place) * width
    out = {}
    for key, w in states.items():
        digits = (key >> low).to_bytes(size, "little")
        if width > 1:
            digits = [
                int.from_bytes(digits[i:i + width], "little") for i in range(0, size, width)
            ]
        label = []
        for pair, d in outputs:
            m = digits[d]
            if m == 1:
                label.append(pair)
            elif m:
                label += (pair,) * m
                w *= fact[m]
        coeff, rem = divmod(w, denom)
        if rem:
            raise ArithmeticError(
                "non-integral structure constant for %s * %s (n=%d)"
                % (format_index(x_pairs), format_index(y_pairs), n)
            )
        out[tuple(label)] = coeff
    return out


@lru_cache(maxsize=None)
def _row_types(pairs, n):
    """A label's row types as the left factor of Green's product.

    Returns (its sorted bottom residues, {bottom residue c: {pair: count}}):
    the label's own (top, c + n*offset) pairs grouped by c, both levels in
    label order, as ``split_offsets`` lists them.  Memoized per label, so the
    dicts are shared and only read.  They hold the label's own pair tuples,
    so an entry adds few objects for the garbage collector to track.
    """
    residues, rows = [], {}
    for pair in pairs:
        c = bar(pair[1], n)
        residues.append(c)
        row = rows.setdefault(c, {})
        row[pair] = row.get(pair, 0) + 1
    return tuple(sorted(residues)), rows


@lru_cache(maxsize=None)
def _column_types(pairs):
    """A label's column types as the right factor of Green's product.

    Returns (its sorted tops, the digit width of Green's states in bytes,
    {top c: {pair: its column number}}, {top c: start}).  The width is the
    least with 256**width > r.  Block c's columns are the label's pairs with
    top c, in label order, and its start holds their counts, one digit each,
    the first column lowest.  Memoized and only read, as ``_row_types`` is.
    """
    width = (len(pairs).bit_length() + 7) // 8 or 1
    cols, starts = {}, {}
    for pair in pairs:
        c = pair[0]
        col = cols.setdefault(c, {})
        starts[c] = starts.get(c, 0) + (1 << 8 * width * col.setdefault(pair, len(col)))
    return tuple(sorted(index_tops(pairs))), width, cols, starts


@lru_cache(maxsize=None)
def _spreads(need, caps, digit):
    """Every way to spread a row sum `need` over columns whose capacities are
    the `digit`-bit digits of `caps`, the first column lowest.

    A list of (capacities left, counts taken up to the last non-zero one,
    need! / prod count!), ordered by the list of (column, count) over the
    non-zero counts, compared lexicographically: the order of a depth-first
    walk.
    """
    if not need:
        return [(caps, (), 1)]
    if not caps:
        return []
    first, higher = caps & ((1 << digit) - 1), caps >> digit
    return [
        ((rest << digit) + first - m, (m,) + counts, comb(need, m) * ways)
        for m in [*range(1, min(need, first) + 1), 0]  # use the first column, then skip it
        for rest, counts, ways in _spreads(need - m, higher, digit)
    ]


# -- algebra elements ----------------------------------------------------------

class AlgebraElement(Combination):
    """A finite sum of canonical basis elements with Laurent coefficients."""

    __slots__ = ()

    def __init__(self, n, r, terms=None):
        super().__init__((checked_int(n, "n", 1), checked_int(r, "r", 0)), terms)

    n = property(lambda self: self.context[0])
    r = property(lambda self: self.context[1])

    def _key(self, pairs):
        n, r = self.context
        pairs = tuple(tuple(p) for p in pairs)
        if len(pairs) != r:
            raise ValueError(
                "label %s has %d pairs, the element has r=%d" % (pairs, len(pairs), r)
            )
        prior = ()  # sorts before every pair
        for p in pairs:
            if len(p) != 2 or not 1 <= p[0] <= n or p < prior:
                raise ValueError("label %s is not canonical for n=%d" % (pairs, n))
            prior = p
        return pairs

    @classmethod
    def basis(cls, n, i, j, coeff=1):
        """The basis element labelled by the orbit of (i, j)."""
        pairs = canonicalize(tuple(i), tuple(j), n)
        return cls(n, len(pairs), {pairs: coeff})

    @classmethod
    def from_pairs(cls, n, pairs, coeff=1):
        pairs = tuple(tuple(p) for p in pairs)
        pairs = canonicalize(index_tops(pairs), index_bottoms(pairs), n)
        return cls(n, len(pairs), {pairs: coeff})

    def coefficient(self, pairs):
        return self.terms.get(tuple(tuple(p) for p in pairs), Laurent.zero())

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def specialize(self, a0):
        """Substitute the formal parameter by a nonzero rational."""
        return self._from_items(
            self.context,
            ((p, Laurent.const(c.evaluate(a0))) for p, c in self.terms.items()),
        )

    def is_finite_support(self):
        """True when every index has all bottom entries in {1..n} (no offsets)."""
        return all(
            all(1 <= b <= self.n for b in index_bottoms(p)) for p in self.terms
        )

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for pairs in sorted(self.terms):
            c = self.terms[pairs]
            negative = len(c.terms) == 1 and next(iter(c.terms.values())) < 0
            if negative:
                c = -c
            if c.is_one():
                body = format_index(pairs)
            else:
                txt = c.format()
                if ("+" in txt[1:]) or ("-" in txt[1:]):
                    txt = "(%s)" % txt
                body = "%s*%s" % (txt, format_index(pairs))
            parts.append(("-" if negative else "+", body))
        sign, body = parts[0]
        out = body if sign == "+" else "-" + body
        for sign, body in parts[1:]:
            out += " %s %s" % (sign, body)
        return out

    __repr__ = __str__

    def to_json(self):
        return {
            "n": self.n,
            "r": self.r,
            "terms": [
                {"coeff": c.to_json(), "pairs": [list(p) for p in pairs]}
                for pairs, c in sorted(self.terms.items())
            ],
        }

    @classmethod
    def from_json(cls, data):
        data = read(data, {"n": int, "r": int, "terms?": [
            {"coeff": Laurent.from_json, "pairs": [(int, int)]}
        ]})
        n = data["n"]
        return cls(n, data["r"], (
            (label_from_json(t["pairs"], n), t["coeff"]) for t in data.get("terms", ())
        ))


def label_from_json(pairs, n):
    """The canonical label of [top, bottom] integer pairs as ``read`` gives them."""
    return canonicalize(index_tops(pairs), index_bottoms(pairs), n)


def bilinear(x, y, basis_product):
    """The bilinear extension to elements of a basis product {pairs: int}.

    Visits every pair of terms, so ``basis_product`` must derive its own
    zeros.  The two oracle engines (``dual.multiply_schur_oracle`` and
    ``tensor.multiply_via_action``) multiply through it; ``multiply`` does not.
    """
    x._check_context(y)
    n = x.n

    def items():
        for xp, xc in x.terms.items():
            for yp, yc in y.terms.items():
                product = basis_product(xp, yp, n)
                if product:
                    coeff = xc * yc
                    for pairs, z in product.items():
                        yield pairs, coeff * z

    return AlgebraElement._from_items(x.context, items())


def multiply(x, y):
    """Product by the double-coset structure constants (the Green engine).

    xi_x * xi_y is zero unless the bottom residues of x are the tops of y as
    multisets.  The terms of y are grouped once by their tops, so each term of
    x meets only its composable partners, and only composable pairs reach
    ``structure_constants``.  The sorted bottom residues of a term of x and
    the sorted tops of a term of y are read from the per-label memos
    ``_row_types`` and ``_column_types``.

    Structure constants are integers, so one term pair gives the same few
    coefficients coeff * z on many labels.  Each pair builds one immutable
    ``Laurent`` per distinct z and stores that object for every label it
    reaches first; Q[a, a^-1] is an integral domain, so none is zero.  A label
    that a later pair reaches too is copied on write into a raw
    {exponent: int or Fraction} sum, which becomes its own ``Laurent`` at the
    end, normalized in place.  As ``combination.accumulate`` does, labels keep
    the order in which they first appear, and zero sums are dropped.
    """
    x._check_context(y)
    n = x.n
    by_tops = {}
    for yp, yc in y.terms.items():
        by_tops.setdefault(_column_types(yp)[0], []).append((yp, yc.terms.items()))
    sums = {}  # output label -> a shared Laurent, or a raw sum once reached twice
    merged = []  # the labels whose value in ``sums`` is a raw sum
    for xp, xc in x.terms.items():
        for yp, y_coeffs in by_tops.get(_row_types(xp, n)[0], ()):
            coeff = {}
            for e1, c1 in xc.terms.items():
                for e2, c2 in y_coeffs:
                    coeff[e1 + e2] = coeff.get(e1 + e2, 0) + c1 * c2
            coeff = [(e, c) for e, c in coeff.items() if c]
            shared = {}  # z -> the one Laurent of coeff * z
            for pairs, z in structure_constants(xp, yp, n).items():
                first = shared.get(z)
                if first is None:
                    first = Laurent._trusted({e: _normal(c * z) for e, c in coeff})
                    shared[z] = first
                acc = sums.setdefault(pairs, first)
                if acc is not first:
                    if type(acc) is Laurent:
                        acc = sums[pairs] = dict(acc.terms)
                        merged.append(pairs)
                    for e, c in first.terms.items():
                        acc[e] = acc.get(e, 0) + c
    cancelled = False
    for pairs in merged:
        acc = sums[pairs]
        for e, c in acc.items():
            if type(c) is not int:
                acc[e] = _normal(c)
        if 0 in acc.values():
            acc = {e: c for e, c in acc.items() if c}
            cancelled = cancelled or not acc
        sums[pairs] = Laurent._trusted(acc)
    if cancelled:
        sums = {pairs: c for pairs, c in sums.items() if c}
    return AlgebraElement._trusted(x.context, sums)


def identity(n, r):
    """Sum of the orthogonal idempotents xi_{i,i}, i over I(n,r)/Sigma_r."""
    diagonal = (tuple((v, v) for v in t) for t in weakly_increasing_tuples(n, r))
    return AlgebraElement(n, r, {pairs: Laurent.one() for pairs in diagonal})


def basis_indices(n, r, window):
    """All canonical labels with bottom offsets in [-window, window]."""
    import itertools as _it

    values = [
        (top, res + n * e)
        for top in range(1, n + 1)
        for res in range(1, n + 1)
        for e in range(-window, window + 1)
    ]
    return [
        tuple(combo)
        for combo in _it.combinations_with_replacement(sorted(values), r)
    ]


def weyl_act(w, x):
    """The automorphism xi_{i,j} -> xi_{w(i),w(j)}, w of rank n acting on values."""
    if w.r != x.n:
        raise ValueError("symmetry is for n=%d, element has n=%d" % (w.r, x.n))
    return AlgebraElement._from_items(x.context, (
        (canonicalize(list(map(w, index_tops(p))), list(map(w, index_bottoms(p))), x.n), c)
        for p, c in x.terms.items()
    ))


def transpose_antiauto(x):
    """The anti-automorphism swapping the two tuples of every label."""
    return AlgebraElement._from_items(x.context, (
        (canonicalize(index_bottoms(p), index_tops(p), x.n), c)
        for p, c in x.terms.items()
    ))


def middle_orbit_rep(pairs, n):
    """Canonical tuple representative of the bottom-tuple orbit of a label."""
    return tuple_orbit_rep(index_bottoms(pairs), n)
