"""Seeded inputs: basis-pair products and the CLI's heavy cached product.

Labels are made here, already in the package's canonical form (every top in
{1..n}, pairs sorted), so the program receives only these generated inputs.
Every pair is composable: the right factor's tops are the residues of the left
factor's bottoms, so no product is zero.
"""

import random

# products-cold, n >= 2: (n, r, window, pairs per cell); timed by products_per_s.
GRID = [(n, r, 1, count) for n in (2, 3) for r, count in ((4, 50), (5, 50), (6, 100), (7, 100))]

# products-cold, n = 1: (r, left type, right type) with window 2.  A type is the
# multiset of offset multiplicities; the seed picks the offset values and their
# order.  The cost of a product is set by the two types, so fixing them keeps
# heavy_product_s steady across seeds, and no two slots share both types, so
# no slot hits another's double-coset memo.
HEAVY_TYPES = [
    (7, (2, 2, 1, 1, 1), (2, 2, 1, 1, 1)),
    (7, (3, 1, 1, 1, 1), (2, 2, 1, 1, 1)),
    (7, (3, 2, 1, 1), (3, 1, 1, 1, 1)),
    (8, (2, 2, 2, 1, 1), (2, 2, 2, 1, 1)),
    (8, (3, 2, 1, 1, 1), (2, 2, 2, 1, 1)),
    (8, (2, 2, 2, 1, 1), (3, 2, 1, 1, 1)),
    (8, (3, 2, 1, 1, 1), (3, 2, 1, 1, 1)),
    (8, (2, 2, 2, 2), (3, 3, 1, 1)),
]
HEAVY_WINDOW = 2
# The all-distinct-offsets worst case at r = 7 and r = 8, offsets drawn from
# [-DISTINCT_WINDOW, DISTINCT_WINDOW].
DISTINCT_RANKS = (7, 8)
DISTINCT_WINDOW = 4

# n = 1, r = 9 products that fail at seed: weyl.double_cosets caps its
# enumeration at r = 8.  Fixed, not seeded, so the failed share of every run
# is the same.
CAPPED = [
    ((0, 0, 0, 1, 1, 1, 2, 2, 2), (0, 0, 0, 1, 1, 1, 2, 2, 2)),
    ((-1, -1, 0, 0, 0, 1, 1, 2, 2), (0, 0, 0, 0, 1, 1, 1, 2, 2)),
    ((-2, -1, -1, 0, 0, 0, 1, 1, 2), (-1, -1, -1, 0, 0, 0, 1, 1, 1)),
]


def n1_label(offsets):
    """The canonical n = 1 label with the given bottom offsets."""
    return tuple(sorted((1, 1 + e) for e in offsets))


def _random_label(rng, n, tops, window):
    return tuple(sorted(
        (t, rng.randint(1, n) + n * rng.randint(-window, window)) for t in tops
    ))


def grid_pairs(seed):
    """[(n, r, left, right)] on the n >= 2 grid, distinct within each cell."""
    rng = random.Random("grid:%d" % seed)
    out = []
    for n, r, window, count in GRID:
        seen = set()
        while len(seen) < count:
            left = _random_label(rng, n, [rng.randint(1, n) for _ in range(r)], window)
            residues = [(b - 1) % n + 1 for _, b in left]
            rng.shuffle(residues)
            right = _random_label(rng, n, residues, window)
            if (left, right) not in seen:
                seen.add((left, right))
                out.append((n, r, left, right))
    return out


def _typed_offsets(rng, mults, window):
    values = rng.sample(range(-window, window + 1), len(mults))
    order = list(mults)
    rng.shuffle(order)
    return [v for v, m in zip(values, order) for _ in range(m)]


def heavy_pairs(seed):
    """[(1, r, left, right)] for the n = 1, r = 7-8 products."""
    rng = random.Random("heavy:%d" % seed)
    out = []
    for r, left_type, right_type in HEAVY_TYPES:
        left = _typed_offsets(rng, left_type, HEAVY_WINDOW)
        right = _typed_offsets(rng, right_type, HEAVY_WINDOW)
        out.append((1, r, n1_label(left), n1_label(right)))
    for r in DISTINCT_RANKS:
        left = rng.sample(range(-DISTINCT_WINDOW, DISTINCT_WINDOW + 1), r)
        right = rng.sample(range(-DISTINCT_WINDOW, DISTINCT_WINDOW + 1), r)
        out.append((1, r, n1_label(left), n1_label(right)))
    return out


def capped_pairs():
    return [(1, len(a), n1_label(a), n1_label(b)) for a, b in CAPPED]


def format_label(label):
    tops = ",".join(str(t) for t, _ in label)
    bottoms = ",".join(str(b) for _, b in label)
    return "xi[(%s)|(%s)]" % (tops, bottoms)


def cli_heavy_product(seed):
    """The CLI's cached product: n = 1, r = 7, all offsets distinct."""
    rng = random.Random("cli:%d" % seed)
    left = n1_label(rng.sample(range(-DISTINCT_WINDOW, DISTINCT_WINDOW + 1), 7))
    right = n1_label(rng.sample(range(-DISTINCT_WINDOW, DISTINCT_WINDOW + 1), 7))
    return left, right
