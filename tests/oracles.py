"""Brute-force references that the tests compare the package against, and
the loader of the benchmark's modules.  Pytest does not collect this file."""

import importlib.util
from collections import Counter, defaultdict
from math import factorial
from pathlib import Path

from affine_schur.laurent import Laurent
from affine_schur.schur import canonicalize, index_bottoms, index_tops, split_offsets
from affine_schur.semigroup import PeriodicMatrix
from affine_schur.weyl import AffineWeylElement, affine_matchings, bar, bar_tuple, double_cosets


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


# -- periodic matrices as Laurent matrices --------------------------------------

def to_laurent_matrix(m):
    """The n x n matrix over Q[t, t^-1]: entry (i,j) collects offsets."""
    mat = [[Laurent.zero() for _ in range(m.n)] for _ in range(m.n)]
    for (i, j), v in m.terms.items():
        col = bar(j, m.n)
        off = (j - col) // m.n
        mat[i - 1][col - 1] = mat[i - 1][col - 1] + Laurent.gen(
            off, v.constant_value()
        )
    return mat


def from_laurent_matrix(mat):
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("a Laurent matrix is square")
    return PeriodicMatrix(n, (
        ((i, j + n * off), c)
        for i, row in enumerate(mat, 1)
        for j, entry in enumerate(row, 1)
        for off, c in entry.terms.items()
    ))


# -- the double-coset formula ------------------------------------------------------

def double_coset_product(x_pairs, y_pairs, n):
    """xi_x * xi_y by brute force: Young-subgroup indices summed over the
    double cosets H2\\G/H1 that ``double_cosets`` lists element by element."""
    i = index_tops(x_pairs)
    j, eps = split_offsets(x_pairs, n)
    k = index_tops(y_pairs)
    if sorted(j) != sorted(k):
        return {}
    r = len(x_pairs)
    w = next(affine_matchings(k, j, n))
    l_aligned = AffineWeylElement(w.sigma, (0,) * r).apply(index_bottoms(y_pairs), n)
    l = bar_tuple(l_aligned, n)
    eps2 = tuple((b - v) // n for b, v in zip(l_aligned, l))
    part_i, part_j, part_eps = partition_of(i), partition_of(j), partition_of(eps)
    h2 = meet(part_j, partition_of(l), partition_of(eps2))
    h1 = meet(part_i, part_j, part_eps)
    out = {}
    for delta in double_cosets(h2, part_j, h1):
        place = AffineWeylElement(delta, (0,) * r)
        l_d = place.apply(l, n)
        eps2_d = place.apply(eps2, n)
        eps_out = tuple(a + b for a, b in zip(eps2_d, eps))
        numer = young_order(meet(part_i, partition_of(l_d), partition_of(eps_out)))
        denom = young_order(
            meet(part_i, part_j, partition_of(l_d), partition_of(eps2_d), part_eps)
        )
        assert numer % denom == 0
        idx = canonicalize(i, tuple(v + n * e for v, e in zip(l_d, eps_out)), n)
        out[idx] = out.get(idx, 0) + numer // denom
    return out


# -- the table enumeration -----------------------------------------------------------

def table_dfs_product(x_pairs, y_pairs, n):
    """xi_x * xi_y by visiting every contingency table depth first, one
    recursive call per node: the reference for both the values and the key
    order of ``structure_constants``."""
    i, (j, eps) = index_tops(x_pairs), split_offsets(x_pairs, n)
    k, (l, eps2) = index_tops(y_pairs), split_offsets(y_pairs, n)
    if sorted(j) != sorted(k):
        return {}
    rows, cols = defaultdict(Counter), defaultdict(Counter)
    for c, top, e in zip(j, i, eps):
        rows[c][top, e] += 1
    for c, res, e in zip(k, l, eps2):
        cols[c][res, e] += 1

    fact = [factorial(m) for m in range(len(x_pairs) + 1)]
    plan = []
    for c, row_types in rows.items():
        caps = list(cols[c].values())
        for (top, e), need in row_types.items():
            outs = [(top, res + n * (e + e2)) for res, e2 in cols[c]]
            plan.append((need, caps, outs))

    out = {}
    counts = {}
    chosen = []

    def fill(row, col, left, numer, denom):
        if not left:
            row += 1
            if row == len(plan):
                idx = tuple(sorted(chosen))
                out[idx] = out.get(idx, 0) + numer // denom
                return
            col, left = 0, plan[row][0]
        _, caps, outs = plan[row]
        for b in range(col, len(caps)):
            cap = caps[b]
            if not cap:
                continue
            pair = outs[b]
            had = counts.get(pair, 0)
            for m in range(1, min(left, cap) + 1):
                caps[b] = cap - m
                counts[pair] = had + m
                chosen.extend([pair] * m)
                fill(row, b + 1, left - m, numer * fact[had + m] // fact[had], denom * fact[m])
                del chosen[-m:]
            caps[b] = cap
            counts[pair] = had

    fill(-1, 0, 0, 1, 1)
    return out


# -- the benchmark's modules ----------------------------------------------------------

def bench_module(name):
    """A module of the benchmark directory, loaded by path and never modified."""
    path = Path(__file__).resolve().parents[1] / "bench" / ("%s.py" % name)
    spec = importlib.util.spec_from_file_location("bench_%s" % name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
