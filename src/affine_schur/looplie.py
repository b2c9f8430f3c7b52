"""The loop algebra in the degree-r algebra: the linear map ``pi_tilde``,
bracket compatibility, generating sets, and the constructive decomposition of
basis elements into products of generators.

The loop algebra acts through ``semigroup.PeriodicMatrix``, the matrices that
``semigroup.evaluate`` also takes: ``pi_tilde`` is linear in the matrix, and
the bracket is the commutator of the matrix product.  The image of an
elementary matrix E_{s,t} appends its (row, column) pair to every diagonal
label of one degree lower; diagonal units act by occurrence counts.
Decomposition over the index-at-most-one generating set follows an
induction on the number of moved coordinates: split at a moved position,
multiply the two lower-index factors, and solve for the target using the
nonzero leading coefficient.  ``y_split`` gives that step for one label as a
record, computed afresh on each call; ``verify generators`` multiplies the
records out label by label, without building a tree.

``decompose_y`` and ``decompose_x`` render the records as an ``expr.Node``
tree, the tree of the command-line expression language: sums and products of
basis atoms and rational scalars, one node per sub-decomposition of a call.
Each checks its label through the public constructor first, and re-multiplies
and checks the tree before returning it; ``expr.to_json`` writes it for
``decompose``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .combination import accumulate
from .expr import Node, _eval_element, atom, map_atoms, scaled
from .schur import (
    AlgebraElement,
    canonicalize,
    index_bottoms,
    index_tops,
    multiply,
    structure_constants,
)
from .weyl import bar, weakly_increasing_tuples


def pi_tilde(m, r):
    """The image of a periodic matrix in the degree-r algebra, linear in m.

    E_{s,t} with s != t goes to the sum of the diagonal labels of degree
    r - 1 with the pair (s, t) appended; E_{s,s} goes to the sum of the
    diagonal labels of degree r, each as often as s occurs in it.
    """
    if r < 1:
        raise ValueError("the degree r must be at least 1, got %d" % r)
    n = m.n

    def items():
        for (s, t), v in m.terms.items():
            if s == t:
                for i in weakly_increasing_tuples(n, r):
                    count = i.count(s)
                    if count:
                        yield tuple((u, u) for u in i), v * count
            else:
                for i in weakly_increasing_tuples(n, r - 1):
                    yield canonicalize(i + (s,), i + (t,), n), v

    return AlgebraElement._from_items((n, r), items())


def lie_bracket_law(ms, rs):
    """The bracket law on periodic matrices ``ms`` in the degrees ``rs``: a
    predicate on (i, j, r), whether [m_i, m_j] maps to the commutator of their
    images.  Its tables live with it: each bracket, the image of each distinct
    bracket per degree, and each product of images for (i, j, r) and (j, i, r)."""
    images = {r: [pi_tilde(m, r) for m in ms] for r in rs}
    brackets, bracket_images, products = {}, {}, {}

    def product(i, j, r):  # the second of its two uses takes it out
        p = products.pop((i, j, r), None)
        if p is None:
            p = products[i, j, r] = multiply(images[r][i], images[r][j])
        return p

    def holds(i, j, r):
        if (i, j) not in brackets:
            brackets[i, j] = ms[i] * ms[j] - ms[j] * ms[i]
        key = brackets[i, j], r
        if key not in bracket_images:
            bracket_images[key] = pi_tilde(*key)
        return bracket_images[key] == product(i, j, r) - product(j, i, r)

    return holds


def generator_set(kind, n, r, window=1):
    """The generating family as a list of basis elements.

    ``Y`` enumerates all one-moved-coordinate elements with column offsets in
    [-window, window]; ``X`` restricts columns to row +- 1.  The family is
    infinite in the column direction, so an explicit window is always taken.
    """
    labels = set()
    for i in weakly_increasing_tuples(n, r - 1):
        for s in range(1, n + 1):
            if kind == "X":
                cols = [s + 1, s - 1]
            elif kind == "Y":
                cols = [
                    res + n * e
                    for res in range(1, n + 1)
                    for e in range(-window, window + 1)
                ]
            else:
                raise ValueError("kind must be 'X' or 'Y'")
            for t in cols:
                labels.add(canonicalize(i + (s,), i + (t,), n))
    return [AlgebraElement(n, r, {pairs: 1}) for pairs in sorted(labels)]


# -- decomposition: split records and the trees rendered from them -----------------

def label_index(pairs):
    """Number of moved coordinates of a canonical label."""
    return sum(1 for t, b in pairs if t != b)


class DecompositionError(RuntimeError):
    pass


def decompose_y(pairs, n):
    """Express a basis element as a polynomial in index-at-most-one elements.

    Returns an ``expr.Node`` tree whose atoms all have index <= 1.
    """
    return _decomposition(pairs, n, atom)


def decompose_x(pairs, n):
    """Express a basis element over the row +- 1 generators; needs r < n."""
    r = len(pairs)
    if r >= n:
        raise ValueError("the X generating set requires r < n")
    return _decomposition(pairs, n, lambda p: _y_atom_over_x(p, n, r))


def _decomposition(pairs, n, leaf):
    """The tree of ``pairs`` rendered from the records of ``y_split``, one node
    per sub-decomposition, after checking that it multiplies out to xi_pairs;
    ``leaf`` gives the tree of a label of index <= 1.  The label goes through
    the public constructor first: ``ValueError`` if it is not canonical."""
    pairs = tuple(tuple(p) for p in pairs)
    target = AlgebraElement(n, len(pairs), {pairs: 1})
    nodes = {}

    def tree(p):
        if p not in nodes:
            record = y_split(p, n)
            if record is None:
                nodes[p] = leaf(p)
            else:
                lead, left, right, others = record
                children = [Node("product", children=[tree(left), leaf(right)])]
                children += [scaled(-c, tree(other)) for other, c in others]
                nodes[p] = scaled(Fraction(1, lead), Node("sum", children=children))
        return nodes[p]

    expr = tree(pairs)
    if _eval_element(expr, n, multiply) != target:
        raise DecompositionError("re-multiplication mismatch for %s" % (pairs,))
    return expr


def y_split(pairs, n):
    """The split record of a label of index m >= 2, None for index <= 1.

    It is ``(lead, left, right, ((other, c), ...))``: left has index m - 1,
    right index 1, and xi_left * xi_right = lead * xi_pairs + sum c * xi_other
    with every other of index < m, in ``structure_constants`` key order.  So
    xi_pairs = (1/lead) * (xi_left * xi_right - sum c * xi_other).
    """
    m = label_index(pairs)
    if m <= 1:
        return None

    # Put one moved coordinate first and replace its bottom by its top.
    order = sorted(range(len(pairs)), key=lambda k: (pairs[k][0] == pairs[k][1], k))
    i = tuple(pairs[k][0] for k in order)
    j = tuple(pairs[k][1] for k in order)
    assert i[0] != j[0]
    j_prime = (i[0],) + j[1:]

    left = canonicalize(i, j_prime, n)
    right = canonicalize(j_prime, j, n)
    assert label_index(left) == m - 1
    assert label_index(right) == 1

    product = structure_constants(left, right, n)
    lead = product.get(pairs)
    if not lead:
        raise DecompositionError(
            "leading coefficient vanished for %s (split %s * %s)"
            % (pairs, left, right)
        )
    others = tuple((other, c) for other, c in product.items() if other != pairs)
    for other, _ in others:
        if label_index(other) >= m:
            raise DecompositionError(
                "index did not drop: %s appears in the split of %s" % (other, pairs)
            )
    return lead, left, right, others


# -- index-at-most-one labels over X (r < n) ----------------------------------------

@lru_cache(maxsize=None)
def _y_atom_over_x(pairs, n, r):
    moved = [(t, b) for t, b in pairs if t != b]
    assert len(moved) <= 1

    if not moved:
        expr = _finite_over_x(pairs, n, r)
    else:
        s, t = moved[0]
        if abs(t - s) < n:
            shift = min(s, t) - 1
            if shift == 0:
                expr = _finite_over_x(pairs, n, r)
            else:
                rotated = _shift_label(pairs, shift, n)
                finite = _finite_over_x(rotated, n, r)
                expr = map_atoms(finite, lambda p: atom(_shift_label(p, -shift, n)))
        else:
            # Insert a middle column in a fresh residue class strictly between
            # the row and the column; the two factors multiply back exactly.
            diag_res = {bar(t2, n) for t2, b2 in pairs if t2 == b2}
            step = 1 if t > s else -1
            middle = None
            for d in range(1, n):
                cand = s + step * d
                if bar(cand, n) not in diag_res:
                    middle = cand
                    break
            if middle is None:
                raise DecompositionError("no fresh middle residue for %s" % (pairs,))
            diag = tuple(p for p in pairs if p[0] == p[1])
            tops = tuple(p[0] for p in diag)
            left = canonicalize(tops + (s,), tops + (middle,), n)
            right = canonicalize(tops + (middle,), tops + (t,), n)
            if structure_constants(left, right, n) != {pairs: 1}:
                raise DecompositionError(
                    "middle insertion failed for %s via %d" % (pairs, middle)
                )
            expr = Node(
                "product",
                children=[_y_atom_over_x(left, n, r), _y_atom_over_x(right, n, r)],
            )
    return expr


def _shift_label(pairs, m, n):
    """The rotation power z -> z - m applied to both tuples of a label."""
    tops = tuple(t - m for t in index_tops(pairs))
    bottoms = tuple(b - m for b in index_bottoms(pairs))
    return canonicalize(tops, bottoms, n)


def _finite_over_x(pairs, n, r):
    """Decompose a finite-support basis element over the finite X generators.

    Runs a span closure of the subalgebra generated by the finite row +- 1
    elements, tracking an expression for every echelon row, then solves for
    the target.
    """
    if any(not 1 <= b <= n for b in index_bottoms(pairs)):
        raise DecompositionError("not a finite label: %s" % (pairs,))

    vec, expr_parts = _reduce({pairs: Fraction(1)}, _finite_closure(n, r))
    if vec:
        raise DecompositionError(
            "finite closure does not reach %s (is r < n?)" % (pairs,)
        )
    if len(expr_parts) == 1 and expr_parts[0][0] == 1:
        return expr_parts[0][1]
    return Node("sum", children=[scaled(c, e) for c, e in expr_parts])


def _reduce(vec, rows):
    """Reduce ``vec`` against echelon rows (pivot, vector, expression).

    Returns the remainder and the (factor, row expression) pairs whose
    multiples were subtracted, in row order.
    """
    vec = dict(vec)
    used = []
    for pivot, row_vec, row_expr in rows:
        c = vec.get(pivot)
        if not c:
            continue
        factor = c / row_vec[pivot]
        for k, v in row_vec.items():
            new = vec.get(k, Fraction(0)) - factor * v
            if new:
                vec[k] = new
            else:
                vec.pop(k, None)
        used.append((factor, row_expr))
    return vec, used


@lru_cache(maxsize=None)
def _finite_closure(n, r):
    """Echelon rows (pivot, vector, expression) spanning the subalgebra that
    the finite row +- 1 elements generate; each row's expression multiplies
    out to its vector.
    """
    gens = []
    for i in weakly_increasing_tuples(n, r - 1):
        for s in range(1, n):
            gens.append(canonicalize(i + (s,), i + (s + 1,), n))
        for s in range(2, n + 1):
            gens.append(canonicalize(i + (s,), i + (s - 1,), n))
    gens = sorted(set(gens))

    rows = []  # (pivot label, reduced vector, matching expression)

    def insert(vec, expr):
        """Reduce against existing rows, keeping the expression in step."""
        vec, used = _reduce(vec, rows)
        if not vec:
            return None
        parts = [expr] + [scaled(-factor, row_expr) for factor, row_expr in used]
        reduced_expr = parts[0] if len(parts) == 1 else Node("sum", children=parts)
        rows.append((min(vec), vec, reduced_expr))
        return vec, reduced_expr

    frontier = []
    for g in gens:
        stored = insert({g: Fraction(1)}, atom(g))
        if stored:
            frontier.append(stored)

    while frontier:
        new_frontier = []
        for vec, expr in frontier:
            for g in gens:
                prod = accumulate(
                    (out, c * sc)
                    for label, c in vec.items()
                    for out, sc in structure_constants(label, g, n).items()
                )
                if not prod:
                    continue
                stored = insert(prod, Node("product", children=[expr, atom(g)]))
                if stored:
                    new_frontier.append(stored)
        frontier = new_frontier
    return rows
