"""The extended affine Weyl group, its action on integer tuples, Young
subgroups, and the matching kernel.

One matching kernel finds every w with b.w = u.  Such a w sends the
positions of u with residue c onto the positions of b with residue c and its
shifts are then forced, so the solutions are products of one bijection per
residue class: prod m_c! of them rather than r!.  Which place each place goes
to depends only on the residues of b and u mod n, so the kernel reads the
place maps from a table memoized per pair of residue tuples.  The table has
one entry per pattern met and no other bound, and an entry is held until the
process ends.  An entry holds prod m_c! maps: the one pattern of n = 1,
r = 8 holds all 40,320 maps, about 4.7 MB (CPython 3.11), and each further
place multiplies that by r.  The oracle engines that read it take any r.
``affine_matchings(b, u, n)`` yields the solutions as elements, for the
affine transfer calculus; ``affine_images(b, u, t, n)`` yields only t.w,
which has u_k + t_p - b_p at place k when w sends k to p, for the tensor and
dual product oracles.

``stabilizer_order(t)`` is the order of the group of place permutations that
fix a tuple, prod m! over the multiplicities m of its entries; the collapse
map's index weights, the tensor action's stabilizer division and the
middle-tuple product's weight stab(c) / stab(x) use it.

``young_subgroup`` lists a Young subgroup, given as a set partition of the
places, afresh on each call.  ``double_cosets`` and its ``refines`` are a test
oracle, kept here only because ``bench/tracer.py`` reads it by name.

Permutations of {1..r} are stored as image tuples sigma with sigma[k-1] being
the image of k.  Products compose as functions, (sigma*tau)(k) = sigma(tau(k)),
which makes the tuple action t |-> (t_{sigma(1)}, ..., t_{sigma(r)}) a right
action.  An affine Weyl element is a pair (sigma, eps) acting on tuples by
place permutation followed by a shift by n*eps.

The same pair is the affine permutation W(k + r*q) = sigma(k) + r*(eps_k + q)
of Z; its window is (W(1), ..., W(r)), ``compose`` is W1 o W2 and ``inverse``
is W^-1.  Calling an element of rank n is the value action z |-> W(z), the
symmetry xi_{i,j} |-> xi_{W(i),W(j)} of the Schur algebra; the place action
t.W is T o W on 1..r, where T(k + r*q) = t_k + n*q.  So one group acts on
values and on places.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from functools import lru_cache
from math import factorial, prod


# -- integers mod n, least positive remainder --------------------------------

def bar(z, n):
    """Least positive remainder of z modulo n, in {1..n}."""
    return (z - 1) % n + 1


def bar_tuple(t, n):
    return tuple(bar(z, n) for z in t)


# -- permutations -------------------------------------------------------------

def identity_perm(r):
    return tuple(range(1, r + 1))


def compose_perm(sigma, tau):
    """(sigma*tau)(k) = sigma(tau(k))."""
    return tuple([sigma[t - 1] for t in tau])


def invert_perm(sigma):
    out = [0] * len(sigma)
    for k, img in enumerate(sigma, start=1):
        out[img - 1] = k
    return tuple(out)


def all_perms(r):
    return [tuple(p) for p in itertools.permutations(range(1, r + 1))]


def perm_sign(sigma):
    sign = 1
    seen = [False] * len(sigma)
    for k in range(len(sigma)):
        if seen[k]:
            continue
        length = 0
        j = k
        while not seen[j]:
            seen[j] = True
            j = sigma[j] - 1
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


# -- affine Weyl elements ------------------------------------------------------

class AffineWeylElement:
    """An element (sigma, eps) of the extended affine Weyl group on r letters:
    the affine permutation k + r*q |-> sigma(k) + r*(eps_k + q) of Z."""

    __slots__ = ("sigma", "eps")

    def __init__(self, sigma, eps):
        sigma = tuple(sigma)
        eps = tuple(int(e) for e in eps)
        if sorted(sigma) != list(range(1, len(sigma) + 1)):
            raise ValueError(
                "sigma must be a permutation of 1..%d, got %s" % (len(sigma), sigma)
            )
        if len(eps) != len(sigma):
            raise ValueError(
                "eps has %d entries, sigma has %d" % (len(eps), len(sigma))
            )
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "eps", eps)

    def __setattr__(self, name, value):
        raise AttributeError("immutable")

    @classmethod
    def _unchecked(cls, sigma, eps):
        """From a permutation tuple and a shift tuple already known to fit."""
        w = object.__new__(cls)
        object.__setattr__(w, "sigma", sigma)
        object.__setattr__(w, "eps", eps)
        return w

    @classmethod
    def identity(cls, r):
        return cls(identity_perm(r), (0,) * r)

    @classmethod
    def from_window(cls, window):
        """The element W with (W(1), ..., W(r)) = window."""
        window = tuple(int(v) for v in window)
        r = len(window)
        sigma = tuple(bar(v, r) for v in window)
        if sorted(sigma) != list(range(1, r + 1)):
            raise ValueError(
                "window residues must be a permutation of 1..%d, got %s" % (r, window)
            )
        return cls._unchecked(sigma, tuple((v - k) // r for v, k in zip(window, sigma)))

    @classmethod
    def rho(cls, n):
        """The rotation z -> z - 1."""
        return cls.from_window(range(0, n))

    @classmethod
    def s(cls, n, i):
        """The reflection swapping the residue classes of i and i+1."""
        if not 1 <= i <= n:
            raise ValueError("reflection index must be in 1..%d, got %d" % (n, i))
        # W(i) = i + 1 and W(i + 1) = i, the latter read at the residue of i + 1
        window = list(range(1, n + 1))
        window[i - 1], window[i % n] = i + 1, i % n
        return cls.from_window(window)

    @property
    def r(self):
        return len(self.sigma)

    @property
    def window(self):
        return tuple(map(self, range(1, self.r + 1)))

    def __call__(self, z):
        """The value action: W(z) for an integer z."""
        r = len(self.sigma)
        k = bar(z, r)
        return self.sigma[k - 1] + r * self.eps[k - 1] + z - k

    def apply(self, t, n):
        """t . (sigma, eps) = t sigma + n eps."""
        if len(t) != len(self.sigma):
            raise ValueError("tuple length %d does not match r=%d" % (len(t), self.r))
        return tuple([t[s - 1] + n * e for s, e in zip(self.sigma, self.eps)])

    def compose(self, other):
        """The element w with t.w = (t.self).other for every t."""
        sigma, eps = self.sigma, self.eps
        if len(sigma) != len(other.sigma):
            raise ValueError("cannot compose ranks %d and %d" % (self.r, other.r))
        return AffineWeylElement._unchecked(
            compose_perm(sigma, other.sigma),
            tuple([eps[s - 1] + e for s, e in zip(other.sigma, other.eps)]),
        )

    def inverse(self):
        si = invert_perm(self.sigma)
        eps = tuple(-self.eps[s - 1] for s in si)
        return AffineWeylElement._unchecked(si, eps)

    def __eq__(self, other):
        return (
            isinstance(other, AffineWeylElement)
            and self.sigma == other.sigma
            and self.eps == other.eps
        )

    def __hash__(self):
        return hash((self.sigma, self.eps))

    def __repr__(self):
        return "AffineWeylElement(%s, %s)" % (list(self.sigma), list(self.eps))


# -- Young subgroups, given as set partitions of the places --------------------

def refines(fine, coarse):
    """True if every block of `fine` sits inside a block of `coarse`."""
    owner = {}
    for bi, block in enumerate(coarse):
        for pos in block:
            owner[pos] = bi
    for block in fine:
        if len({owner[p] for p in block}) > 1:
            return False
    return True


def young_subgroup(partition):
    """All permutations preserving each block of the partition pointwise as a set."""
    r = sum(len(b) for b in partition)
    perms = [identity_perm(r)]
    for block in partition:
        extended = []
        for images in itertools.permutations(block):
            for base in perms:
                out = list(base)
                for pos, img in zip(block, images):
                    out[pos - 1] = img
                extended.append(tuple(out))
        perms = extended
    return tuple(sorted(perms))


def double_cosets(h2, g, h1):
    """Representatives of H2\\G/H1 for Young subgroups given as partitions.

    Representatives are the lexicographically least member of each double
    coset.  Brute force over every element of g: a test oracle for the
    contingency-table product in ``schur``, capped at r = 8.
    """
    r = sum(len(b) for b in g)
    if r > 8:
        raise ValueError("double coset enumeration is capped at r=8, got r=%d" % r)
    if not (refines(h1, g) and refines(h2, g)):
        raise ValueError("h1, h2 must refine g")
    big = young_subgroup(g)
    left = young_subgroup(h2)
    right = young_subgroup(h1)
    covered = set()
    reps = []
    total = 0
    for el in big:
        if el in covered:
            continue
        coset = {compose_perm(compose_perm(a, el), b) for a in left for b in right}
        reps.append(min(coset))
        covered |= coset
        total += len(coset)
    assert total == len(big), "double cosets failed to partition the group"
    return tuple(reps)


def tuple_orbit_rep(t, n):
    """Canonical representative of the orbit of a tuple: sorted residues."""
    return tuple(sorted(bar_tuple(t, n)))


def stabilizer_order(t):
    """Number of place permutations fixing the tuple (or iterable) t: prod m!
    over the multiplicities m of its entries, 1 when they are distinct."""
    # About four in five arguments over the verify suites are distinct.
    t = tuple(t)
    if len(set(t)) == len(t):
        return 1
    return prod(map(factorial, Counter(t).values()))


@lru_cache(maxsize=None)
def _place_maps(b_residues, u_residues):
    """The place maps of every w with b.w = u, given the residues of b and u.

    A place map m has m[k - 1] = p - 1 when w sends place k to place p.  They are
    listed class by class, one bijection per residue class in the order of
    first appearance in u, each class's bijections in ``permutations`` order,
    and then read in place order.  Memoized per pair of residue tuples.
    """
    sources, targets = {}, {}
    for p, c in enumerate(b_residues):
        sources.setdefault(c, []).append(p)
    for k, c in enumerate(u_residues):
        targets.setdefault(c, []).append(k)
    # With equal lengths, matching class sizes on u's side match them all.
    blocks = []
    for c, ks in targets.items():
        if len(sources.get(c, ())) != len(ks):
            return ()
        blocks.append(itertools.permutations(sources[c]))
    # A choice of one bijection per class lists the places class by class.
    order = [k for ks in targets.values() for k in ks]
    at = sorted(range(len(order)), key=order.__getitem__)
    return tuple(
        tuple(map(sum(choice, ()).__getitem__, at)) for choice in itertools.product(*blocks)
    )


def _matchings(b, u, n):
    """The matching kernel: the place maps of every w with b.w = u."""
    if len(b) != len(u):
        raise ValueError("tuple lengths differ: %d vs %d" % (len(b), len(u)))
    return _place_maps(tuple([v % n for v in b]), tuple([v % n for v in u]))


def affine_matchings(b, u, n):
    """Every w with b.w = u, as an iterator of AffineWeylElement.

    Empty when the residue multisets of b and u modulo n differ.
    """
    return (
        AffineWeylElement._unchecked(
            tuple([p + 1 for p in m]), tuple([(v - b[p]) // n for v, p in zip(u, m)])
        )
        for m in _matchings(b, u, n)
    )


def affine_images(b, u, t, n):
    """t.w for every w with b.w = u, once per w, in the order of affine_matchings.

    A w sending place k to place p has n*eps_k = u_k - b_p, so t.w has
    u_k + t_p - b_p at place k; no group element is built.
    """
    shifts = [tp - bp for tp, bp in zip(t, b, strict=True)].__getitem__
    return (tuple(map(operator.add, u, map(shifts, m))) for m in _matchings(b, u, n))


def weakly_increasing_tuples(n, r):
    """Representatives of I(n,r)/Sigma_r."""
    return list(itertools.combinations_with_replacement(range(1, n + 1), r))
