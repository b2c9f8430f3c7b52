"""The extended affine Weyl group, its action on integer tuples, and Young
subgroup combinatorics: stabilizer partitions, meets, orders, double cosets.

``affine_matchings(b, u, n)`` lists every w with b.w = u.  Such a w sends the
positions of u with residue c onto the positions of b with residue c and its
shifts are then forced, so the solutions are products of one bijection per
residue class: prod m_c! of them rather than r!.  The tensor and dual product
oracles and the affine transfer calculus all enumerate through it.

Permutations of {1..r} are stored as image tuples sigma with sigma[k-1] being
the image of k.  Products compose as functions, (sigma*tau)(k) = sigma(tau(k)),
which makes the tuple action t |-> (t_{sigma(1)}, ..., t_{sigma(r)}) a right
action.  An affine Weyl element is a pair (sigma, eps) acting on tuples by
place permutation followed by a shift by n*eps.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from functools import lru_cache
from math import factorial


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
    return tuple(sigma[t - 1] for t in tau)


def invert_perm(sigma):
    out = [0] * len(sigma)
    for k, img in enumerate(sigma, start=1):
        out[img - 1] = k
    return tuple(out)


def apply_perm(t, sigma):
    """Right place-permutation action: result_k = t_{sigma(k)}."""
    assert len(t) == len(sigma)
    return tuple(t[s - 1] for s in sigma)


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
    """An element (sigma, eps) of the extended affine Weyl group on r letters."""

    __slots__ = ("sigma", "eps")

    def __init__(self, sigma, eps):
        sigma = tuple(sigma)
        eps = tuple(int(e) for e in eps)
        assert sorted(sigma) == list(range(1, len(sigma) + 1)), "not a permutation"
        assert len(eps) == len(sigma)
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

    @property
    def r(self):
        return len(self.sigma)

    def apply(self, t, n):
        """t . (sigma, eps) = t sigma + n eps."""
        if len(t) != self.r:
            raise ValueError("tuple length %d does not match r=%d" % (len(t), self.r))
        return tuple([t[s - 1] + n * e for s, e in zip(self.sigma, self.eps)])

    def compose(self, other):
        """The element w with t.w = (t.self).other for every t."""
        assert self.r == other.r
        sigma = compose_perm(self.sigma, other.sigma)
        eps = tuple(self.eps[s - 1] + e for s, e in zip(other.sigma, other.eps))
        return AffineWeylElement(sigma, eps)

    def inverse(self):
        si = invert_perm(self.sigma)
        eps = tuple(-self.eps[s - 1] for s in si)
        return AffineWeylElement(si, eps)

    def is_identity(self):
        return self.sigma == identity_perm(self.r) and not any(self.eps)

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


# -- set partitions (Young subgroup descriptors) -------------------------------

def partition_of(t):
    """Positions of {1..len(t)} grouped by equal entry; the stabilizer of t."""
    groups = {}
    for pos, val in enumerate(t, start=1):
        groups.setdefault(val, []).append(pos)
    return canonical_partition(groups.values())


def canonical_partition(blocks):
    blocks = tuple(sorted(tuple(sorted(b)) for b in blocks))
    cover = sorted(p for b in blocks for p in b)
    assert cover == list(range(1, len(cover) + 1)), "blocks must partition {1..r}"
    return blocks


def stabilizer(t, n):
    """Stabilizer partition of a tuple with entries in {1..n}.

    For tuples inside I(n,r) the affine stabilizer equals the finite Young
    subgroup, which is what this returns; other tuples are rejected.
    """
    for v in t:
        if not 1 <= v <= n:
            raise ValueError("entry %d outside {1..%d}" % (v, n))
    return partition_of(t)


def meet(*partitions):
    """Common refinement; the intersection of the corresponding subgroups."""
    parts = [p for p in partitions if p is not None]
    assert parts
    r = sum(len(b) for b in parts[0])
    key = {}
    for part in parts:
        assert sum(len(b) for b in part) == r
        for bi, block in enumerate(part):
            for pos in block:
                key.setdefault(pos, []).append(bi)
    groups = {}
    for pos in range(1, r + 1):
        groups.setdefault(tuple(key[pos]), []).append(pos)
    return canonical_partition(groups.values())


def young_order(partition):
    out = 1
    for block in partition:
        out *= factorial(len(block))
    return out


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


@lru_cache(maxsize=None)
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
    assert len(perms) == young_order(partition)
    return tuple(sorted(perms))


@lru_cache(maxsize=None)
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


def affine_matchings(b, u, n):
    """Every w with b.w = u, as an iterator of AffineWeylElement.

    Empty when the residue multisets of b and u modulo n differ.
    """
    if len(b) != len(u):
        raise ValueError("tuple lengths differ: %d vs %d" % (len(b), len(u)))
    sources, targets = defaultdict(list), defaultdict(list)
    for pos, v in enumerate(b, start=1):
        sources[v % n].append(pos)
    for k, v in enumerate(u):
        targets[v % n].append(k)
    # With equal lengths, matching class sizes on u's side match them all.
    if any(len(sources[c]) != len(ks) for c, ks in targets.items()):
        return iter(())
    order = [k for ks in targets.values() for k in ks]
    blocks = [itertools.permutations(sources[c]) for c in targets]

    def solutions():
        sigma = [0] * len(u)
        for images in itertools.product(*blocks):
            for k, pos in zip(order, itertools.chain.from_iterable(images)):
                sigma[k] = pos
            eps = [(uk - b[pos - 1]) // n for uk, pos in zip(u, sigma)]
            yield AffineWeylElement._unchecked(tuple(sigma), tuple(eps))

    return solutions()


def equivalent_middle(j, k, n):
    """Some w with j.w = k, or None when the residue multisets differ."""
    return next(affine_matchings(j, k, n), None)


def weakly_increasing_tuples(n, r):
    """Representatives of I(n,r)/Sigma_r."""
    return list(itertools.combinations_with_replacement(range(1, n + 1), r))
