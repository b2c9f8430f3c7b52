"""Verification suites: each runs a family of exact identity checks and
returns a machine-readable report with counterexample payloads on failure.
All checks are exact; there are no tolerances.

The suites and the parameters each takes; ``run_suite`` raises ``ValueError``
for any other parameter, so ``affine-schur verify`` exits 1 with a message:

  oracle-equivalence  n, r, window, budget, seed
  ring-axioms         n, r, window, triples, seed
  hom-laws            n, r, window, seed
  semigroup-laws      n, count, seed
  mackey              r, n, seed
  lie                 offset, seed
  generators          window

The first two take n and r together, or neither for every n, r <= 3.

A suite computes each value its cases share once, in a table that lives for one
call: the drawn basis elements of a grid cell and, in ring-axioms, their
products; in hom-laws the inner image psi_s'(x) for all s; in lie each bracket
for all degrees, its image per degree, and each product of images for both
orders of its pair; and in generators, per grid cell, each label's decomposition
multiplied out from its ``looplie.y_split`` record, over the leaves' values:
basis elements for Y, the ``looplie._y_atom_over_x`` trees multiplied out for X.
"""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction

from .combination import checked_int
from .laurent import Laurent, height_at
from .schur import (
    AlgebraElement,
    basis_indices,
    identity,
    index_bottoms,
    index_tops,
    multiply,
    transpose_antiauto,
    weyl_act,
)
from .homs import det_tilde_sharp, psi_a, psi_as
from .weyl import (
    AffineWeylElement,
    all_perms,
    bar,
    weakly_increasing_tuples,
    young_subgroup,
)

# The least value of each size parameter: below it a suite would run no
# checks and pass, or fail with a traceback inside a check.  The mackey suite
# splits S_r into S_{r-1} x S_1, so there r is at least 1.
_LEAST = {"n": 1, "r": 0, "window": 0, "budget": 0, "triples": 0, "offset": 0, "count": 0}


def run_suite(name, **params):
    """Run one suite; ``ValueError`` for a parameter it does not take or a size
    parameter below its least value."""
    if name not in SUITES:
        raise ValueError("unknown suite %r (choose from %s)" % (name, ", ".join(SUITES)))
    code = SUITES[name].__code__  # its parameters, without importing inspect
    takes = code.co_varnames[:code.co_argcount]
    unknown = sorted(set(params) - set(takes))
    if unknown:
        raise ValueError("suite %s takes no parameter %s; it takes %s"
                         % (name, ", ".join(unknown), ", ".join(takes)))
    bounds = dict(_LEAST, r=1) if name == "mackey" else _LEAST
    for key, least in bounds.items():
        if params.get(key) is not None:
            params[key] = checked_int(params[key], key, least)
    checks = SUITES[name](**params)
    return {"suite": name, "passed": all(c["passed"] for c in checks), "checks": checks}


def _check(name, cases, failure, side=()):
    """One check: ``failure(case)``, a counterexample dict or None, on each case.

    It stops at the first counterexample and counts the cases it evaluated.
    ``side`` yields the outcomes of conditions outside the counted cases; it is
    read only once every case has passed.
    """
    count = 0
    for count, case in enumerate(cases, 1):
        detail = failure(case)
        if detail is not None:
            break
    else:
        detail = next((d for d in side if d is not None), None)
    out = {"name": name, "passed": detail is None, "count": count}
    if detail is not None:
        out["detail"] = detail
    return out


def _holds(case):
    """A (label, test) case fails, naming its label, when ``test()`` is false."""
    label, test = case
    return None if test() else {"failed": label}


def _basis_elem(n, r, pairs):
    return AlgebraElement(n, r, {pairs: 1})


def _shared(compute, key=None):
    """``compute``, each value built once per ``key(*args)`` (by default the
    arguments) and kept as long as the function; a key may hold the identity
    of an argument that outlives the table, such as a value in it."""
    table = {}

    def get(*args):
        k = args if key is None else key(*args)
        if k not in table:
            table[k] = compute(*args)
        return table[k]

    return get


def _basis_of(n, r):
    """label -> its basis element, built through the public constructor on its
    first draw and shared after that."""
    return _shared(lambda pairs: _basis_elem(n, r, pairs))


def _random_element(rng, n, r, idxs):
    terms = {}
    for _ in range(2):
        coeff = Laurent.gen(rng.randint(-1, 1), Fraction(rng.randint(1, 4)))
        terms[rng.choice(idxs)] = coeff
    return AlgebraElement(n, r, terms)


def _random_pairs(rng, k, n, r, idxs):
    """``k`` pairs of random elements over ``idxs``, drawn only as they are asked for."""
    for _ in range(k):
        x = _random_element(rng, n, r, idxs)
        yield x, _random_element(rng, n, r, idxs)


def _grid(n, r):
    """The (n, r) contexts of a grid suite: the one given, or every n, r <= 3."""
    if (n is None) != (r is None):
        raise ValueError("n and r must be given together")
    return [(n, r)] if n is not None else list(itertools.product((1, 2, 3), repeat=2))


def _symmetries(n):
    return [AffineWeylElement.rho(n)] + [AffineWeylElement.s(n, i) for i in range(1, n + 1)]


# -- oracle equivalence ------------------------------------------------------------

def _oracle_pairs(n, r, window, budget, rng):
    idxs = basis_indices(n, r, window)
    if len(idxs) * len(idxs) <= budget:
        return list(itertools.product(idxs, repeat=2))
    return [(rng.choice(idxs), rng.choice(idxs)) for _ in range(budget)]


def _three_way_failure(engines, basis, n, pair):
    x, y = basis(pair[0]), basis(pair[1])
    g, s, t = (product(x, y) for product in engines)
    if not (g == s == t):
        return {"left": str(x), "right": str(y), "green": str(g),
                "schur": str(s), "tensor": str(t)}
    # vanishing rule: zero exactly when middle orbits differ
    bottoms = sorted(bar(b, n) for b in index_bottoms(pair[0]))
    if g.is_zero() == (bottoms == sorted(index_tops(pair[1]))):
        return {"left": str(x), "right": str(y), "vanishing": str(g)}
    return None


def _worked_failure(engines, case):
    x, y, want = case
    if all(product(x, y) == want for product in engines):
        return None
    return {"left": str(x), "right": str(y), "want": str(want)}


def suite_oracle_equivalence(n=None, r=None, window=2, budget=800, seed=20240601):
    """Three-way agreement of the product engines on basis pairs."""
    from .dual import multiply_schur_oracle
    from .tensor import multiply_via_action

    engines = (multiply, multiply_schur_oracle, multiply_via_action)
    rng = random.Random(seed)
    checks = []
    for nn, rr in _grid(n, r):
        basis = _basis_of(nn, rr)
        checks.append(_check("three-way-product-n%d-r%d" % (nn, rr),
                             _oracle_pairs(nn, rr, window, budget, rng),
                             lambda pair: _three_way_failure(engines, basis, nn, pair)))
    b = AlgebraElement.basis
    worked = [  # pinned worked values, all engines
        ("worked-square-degree2", b(1, (1, 1), (1, 2)), b(1, (1, 1), (1, 2)),
         b(1, (1, 1), (1, 3)) + b(1, (1, 1), (2, 2)).scale(2)),
        ("worked-finite-product", b(2, (1, 2), (1, 1)), b(2, (1, 1), (1, 2)),
         b(2, (1, 2), (1, 2)) + b(2, (1, 2), (2, 1))),
    ]
    return checks + [_check(name, [case], lambda c: _worked_failure(engines, c))
                     for name, *case in worked]


# -- ring axioms -------------------------------------------------------------------

def _associativity_failure(times, triple):
    a, b, c = triple
    if times(times(a, b), c) == times(a, times(b, c)):
        return None
    return {"a": str(a), "b": str(b), "c": str(c)}


def suite_ring_axioms(n=None, r=None, window=1, triples=1000, seed=20240602):
    rng = random.Random(seed)
    checks = []
    for nn, rr in _grid(n, r):
        idxs = basis_indices(nn, rr, window)
        e, zero = identity(nn, rr), AlgebraElement.zero(nn, rr)
        basis, times = _basis_of(nn, rr), _shared(multiply, lambda a, b: (id(a), id(b)))
        # orthogonal idempotent decomposition
        diag = [_basis_elem(nn, rr, tuple((v, v) for v in t))
                for t in weakly_increasing_tuples(nn, rr)]
        checks += [
            _check("associativity-n%d-r%d" % (nn, rr),
                   (tuple(basis(rng.choice(idxs)) for _ in range(3))
                    for _ in range(triples)),
                   functools.partial(_associativity_failure, times)),
            _check("identity-laws-n%d-r%d" % (nn, rr),
                   [basis(i) for i in rng.sample(idxs, min(len(idxs), 50))],
                   lambda x: None if multiply(e, x) == x == multiply(x, e)
                   else {"x": str(x)}),
            _check("orthogonal-idempotents-n%d-r%d" % (nn, rr),
                   itertools.product(diag, repeat=2),
                   lambda p: None if multiply(*p) == (p[0] if p[0] is p[1] else zero)
                   else {"left": str(p[0]), "right": str(p[1])},
                   side=[None if sum(diag[1:], diag[0]) == e else {"sum": True}]),
        ]
    return checks


# -- homomorphism laws ----------------------------------------------------------------

_PACK = 10 ** 6


def _psi_inner(s_inner, x, at):
    """psi_{s_inner}(x) at a', or with a' formal when ``at`` is None: then a^p a'^q
    with |q| < PACK/2 is encoded as the single exponent PACK*p + q, a faithful
    ring embedding on that support; ``_packed`` raises ``ValueError`` for a
    height outside it rather than alias."""
    scalar = (lambda h: _packed(0, h)) if at is None else height_at(at[1])
    return psi_as(x, s_inner, height_scalar=scalar)


def _psi_substituted(x, s_outer, s_inner):
    """Right side of the composition law with parameter a' a^{s_inner}."""
    return psi_as(
        x, s_outer * s_inner, height_scalar=lambda h: _packed(s_inner * h, h)
    )


def _packed(p, q):
    """The monomial a^p a'^q as the single exponent PACK*p + q."""
    if abs(q) >= _PACK // 2:
        raise ValueError(
            "height %d reaches the packing bound %d of the two-variable check"
            % (q, _PACK // 2)
        )
    return Laurent.gen(_PACK * p + q)


def _psi_composition_failure(inner_of, case):
    """psi_s psi_s' = psi_ss': formally when ``at`` is None, else at (a, a');
    ``inner_of(s', x, at)`` is the inner image psi_s'(x)."""
    s, s2, x, at = case
    inner = inner_of(s2, x, at)
    if at is None:
        outer = psi_as(inner, s, height_scalar=lambda h: _packed(h, 0))
        if outer == _psi_substituted(x, s, s2):
            return None
        return {"s": s, "s'": s2, "x": str(x)}
    a0, a1 = at
    if (psi_as(inner, s, height_scalar=height_at(a0))
            == psi_as(x, s * s2, height_scalar=height_at(a1 * a0 ** s2))):
        return None
    return {"s": s, "s'": s2, "a": str(a0), "a'": str(a1), "x": str(x)}


def _psi_multiplicative_failure(pair):
    x, y = pair
    xy = multiply(x, y)
    if psi_a(xy) != multiply(psi_a(x), psi_a(y)):
        return {"x": str(x), "y": str(y)}
    for s in (1, 2, -1):
        if psi_as(xy, s) != multiply(psi_as(x, s), psi_as(y, s)):
            return {"s": s, "x": str(x), "y": str(y)}
    return None


def _transpose_failure(pair):
    """T(T(x)) = x when ``y`` is None, else T(xy) = T(y) T(x)."""
    x, y = pair
    t = transpose_antiauto
    if y is None:
        return None if t(t(x)) == x else {"x": str(x)}
    if t(multiply(x, y)) == multiply(t(y), t(x)):
        return None
    return {"x": str(x), "y": str(y)}


def _weyl_hom_failure(case):
    w, x, y = case
    if weyl_act(w, multiply(x, y)) == multiply(weyl_act(w, x), weyl_act(w, y)):
        return None
    return {"window": w.window, "x": str(x), "y": str(y)}


def suite_hom_laws(n=2, r=2, window=1, seed=20240603):
    rng = random.Random(seed)
    idxs = basis_indices(n, r, window)
    sample = [_basis_elem(n, r, rng.choice(idxs)) for _ in range(40)]
    e, syms = identity(n, r), _symmetries(n)

    def rho_n_failure(x):  # rho^n is the identity map
        y = x
        for _ in range(n):
            y = weyl_act(syms[0], y)
        return None if y == x else {"rho^n": str(x)}

    at = (None, (Fraction(2), Fraction(3)), (Fraction(1, 2), Fraction(5)),
          (Fraction(-2), Fraction(2, 3)))
    return [
        _check("psi-composition-law",
               itertools.product(range(-2, 3), range(-2, 3), sample, at),
               functools.partial(_psi_composition_failure, _shared(
                   _psi_inner, lambda s2, x, at: (s2, id(x), at)))),
        _check("psi-multiplicative", _random_pairs(rng, 60, n, r, idxs),
               _psi_multiplicative_failure),
        _check("transpose-antiautomorphism",
               itertools.chain(((x, None) for x in sample),
                               _random_pairs(rng, 40, n, r, idxs)),
               _transpose_failure,
               side=[None if transpose_antiauto(e) == e else {"id": True}]),
        _check("weyl-action-automorphisms",
               ((w, x, y) for w in syms for x, y in _random_pairs(rng, 20, n, r, idxs)),
               _weyl_hom_failure,
               side=itertools.chain(
                   (None if weyl_act(w, e) == e else {"window": w.window, "id": True}
                    for w in syms),
                   map(rho_n_failure, sample))),
        # pinned: (1,3) = 1 + 2*1 has height 1, and s = 2 sends it to 1 + 2*2*1 = 5
        _check("psi-worked-value",
               [(AlgebraElement.basis(2, (1, 2), (3, 2)), 2,
                 AlgebraElement.basis(2, (1, 2), (5, 2), Laurent.gen(1)))],
               lambda c: None if psi_as(c[0], c[1]) == c[2]
               else {"x": str(c[0]), "s": c[1], "want": str(c[2])}),
    ]


# -- semigroup laws ---------------------------------------------------------------------

def _random_matrix(rng, n, max_entries):
    from .semigroup import PeriodicMatrix

    entries = {}
    for _ in range(rng.randint(1, max_entries)):
        i = rng.randint(1, n)
        res = rng.randint(1, n)
        off = rng.randint(-1, 1)
        entries[(i, res + n * off)] = Fraction(rng.randint(-3, 3))
    return PeriodicMatrix(n, entries)


def _eta_composition_failure(case):
    from .semigroup import eta_as

    m, (s, s2), (a0, a1) = case
    inner = eta_as(m, s2, height_scalar=height_at(a1))
    if (eta_as(inner, s, height_scalar=height_at(a0))
            == eta_as(m, s * s2, height_scalar=height_at(a1 * a0 ** s2))):
        return None
    return {"m": str(m), "s": s, "s'": s2}


def _eta_transpose_failure(case):
    from .semigroup import PeriodicMatrix, eta_as

    m, s = case
    rhs = eta_as(m.transpose(), s).terms.items()
    rhs = PeriodicMatrix(m.n, {k: v.substitute_inverse() for k, v in rhs})
    return None if eta_as(m, s).transpose() == rhs else {"m": str(m), "s": s}


def _evaluate_failure(case):
    from .semigroup import evaluate

    g, h, r = case
    if evaluate(g * h, r) == multiply(evaluate(g, r), evaluate(h, r)):
        return None
    return {"g": str(g), "h": str(h), "r": r}


def _conjugation_failure(case):
    from .semigroup import weyl_conjugate

    m, w, w2 = case
    if weyl_conjugate(w.compose(w2), m) == weyl_conjugate(w, weyl_conjugate(w2, m)):
        return None
    return {"m": str(m)}


def suite_semigroup_laws(n=2, count=50, seed=20240604):
    from .semigroup import det_tilde, evaluate, membership, weyl_conjugate

    rng = random.Random(seed)

    def matrices(k=count, max_entries=4):
        return (_random_matrix(rng, n, max_entries) for _ in range(k))

    def matrix_pairs(max_entries=4):  # zip draws the two of a pair one after the other
        return zip(matrices(count, max_entries), matrices(count, max_entries))

    ss = [(-1, 1), (0, 2), (1, 1), (2, -1), (1, 0), (0, 0)]
    at = [(Fraction(2), Fraction(3)), (Fraction(1, 2), Fraction(-2))]
    checks = [
        _check("eta-composition-law",
               ((m, s, a) for m in matrices() for s in ss for a in at),
               _eta_composition_failure),
        _check("eta-transpose-law", ((m, s) for m in matrices() for s in (-1, 0, 1, 2)),
               _eta_transpose_failure),
        _check("det-multiplicative", matrix_pairs(),
               lambda p: None
               if det_tilde(p[0] * p[1]) == det_tilde(p[0]) * det_tilde(p[1])
               else {"g": str(p[0]), "h": str(p[1])}),
        _check("det-transpose", matrices(),
               lambda m: None
               if det_tilde(m.transpose()).substitute_inverse() == det_tilde(m)
               else {"m": str(m)}),
        _check("evaluate-multiplicative",
               ((g, h, r) for g, h in matrix_pairs(3) for r in (1, 2)),
               _evaluate_failure),
        _check("evaluate-transpose-compatible",
               ((m, r) for m in matrices(count, 3) for r in (1, 2)),
               lambda c: None
               if evaluate(c[0].transpose(), c[1]) == transpose_antiauto(evaluate(*c))
               else {"m": str(c[0]), "r": c[1]}),
    ]
    # conjugation by Weyl symmetries is an action and preserves membership;
    # these are the suite's last draws, so drawing them at once keeps the order
    ms, syms = list(matrices(20)), _symmetries(n)
    return checks + [_check(
        "weyl-conjugation-action", itertools.product(ms, syms, syms),
        _conjugation_failure,
        side=(None if membership(m, "GL-generic")
              == membership(weyl_conjugate(syms[0], m), "GL-generic")
              else {"m": str(m), "membership": True} for m in ms))]


# -- mackey / appendix suites ----------------------------------------------------------

def suite_mackey(r=3, n=2, seed=20240605):
    # imported here: no other CLI command needs the transfer calculus
    from .transfer import (
        OperatorSum,
        affine_mackey_window,
        affine_stabilizer,
        affine_transfer_window,
        conjugate_subgroup,
        double_coset_reps,
        is_invariant,
        mackey_product,
        transfer,
        zero_shift,
    )

    # the finite checks act on tuples in {1..r}^r by the zero-shift elements,
    # which permute places; their operators take the period r
    rng = random.Random(seed)
    S = zero_shift(all_perms(r))
    triv = S[:1]
    young_a = zero_shift(young_subgroup(tuple([tuple(range(1, r))] + [(r,)])))
    young_b = zero_shift(young_subgroup(tuple([(1,)] + [tuple(range(2, r + 1))])))

    def to_S(a, H):
        return transfer(a, H, S)

    def rand_tuple():
        return tuple(rng.randint(1, r) for _ in range(r))

    def symmetrized(op, H):
        return sum((op.translate(g) for g in H), OperatorSum(r))

    def rand_inv(H):
        seed_op = OperatorSum.unit(r, rand_tuple(), rand_tuple(), rng.randint(1, 3))
        return symmetrized(seed_op, H)

    def coset_sums():
        # a pair outside the hypotheses of mackey_product is not a case
        for _ in range(40):
            a, b = rand_inv(young_a), rand_inv(young_b)
            try:
                coset_sum = mackey_product(a, young_a, b, young_b, S)
            except ValueError:
                continue
            except ArithmeticError:  # its own comparison failed
                coset_sum = None
            yield a, b, coset_sum

    def mackey_failure(case):
        a, b, coset_sum = case
        if coset_sum is not None and coset_sum == to_S(a, young_a) * to_S(b, young_b):
            return None
        return {"a": str(a), "b": str(b)}

    def transitivity_failure(a0):
        mid = transfer(a0, triv, young_a)
        return None if to_S(mid, young_a) == to_S(a0, triv) else {"a": str(a0)}

    def move_cases():
        # move: T(ab) = T(a) b for b invariant under the big group
        for _ in range(40):
            a = rand_inv(young_a)
            b = symmetrized(OperatorSum.unit(r, rand_tuple(), rand_tuple()), S)
            if is_invariant(a * b, young_a):
                yield a, b

    def move_failure(case):
        a, b = case
        if to_S(a * b, young_a) == to_S(a, young_a) * b:
            return None
        return {"a": str(a), "b": str(b)}

    young_b_set = set(young_b)

    def compare_failure(a):
        # compare: decomposition of a transfer over the double cosets H1 w H2
        rhs = OperatorSum(r)
        for w in double_coset_reps(young_a, S, young_b):
            inter = [g for g in conjugate_subgroup(young_a, w) if g in young_b_set]
            rhs = rhs + transfer(a.translate(w), inter, young_b)
        return None if to_S(a, young_a) == rhs else {"a": str(a)}

    # windowed extended-affine instances at r=2, over several stabilizer shapes:
    # equal middles, repeated entries, and tuples like (1,3) whose stabilizer
    # contains a genuinely affine element (swap with compensating shift)
    window = list(itertools.product(range(-4, 7), repeat=2))
    configs = [
        ((1, 1), (1, 2), (2, 1)),
        ((1, 2), (1, 1), (1, 3)),
        ((1, 3), (1, 3), (2, 2)),
        ((2, 2), (1, 3), (1, 1)),
    ]

    def window_mackey(i, j, l):
        lhs, rhs = affine_mackey_window(
            OperatorSum.unit(n, i, j), affine_stabilizer([i, j], n),
            OperatorSum.unit(n, j, l), affine_stabilizer([j, l], n), window)
        if lhs == rhs and not lhs.is_zero():
            return None
        return {"i": i, "j": j, "l": l, "lhs": str(lhs), "rhs": str(rhs)}

    def window_transitivity(i, j, l):
        a = OperatorSum.unit(n, i, j)
        h1, hj = affine_stabilizer([i, j], n), affine_stabilizer([j], n)
        mid = transfer(a, h1, hj)
        t1 = affine_transfer_window(mid, hj, window)
        if t1 == affine_transfer_window(a, h1, window) and not t1.is_zero():
            return None
        return {"i": i, "j": j, "transitivity": True}

    return [
        _check("mackey-symmetric-group", coset_sums(), mackey_failure),
        _check("transfer-transitivity",
               (OperatorSum.unit(r, rand_tuple(), rand_tuple()) for _ in range(40)),
               transitivity_failure),
        _check("transfer-move", move_cases(), move_failure),
        _check("transfer-compare", (rand_inv(young_a) for _ in range(40)),
               compare_failure),
        _check("mackey-affine-window",
               itertools.product(configs, (window_mackey, window_transitivity)),
               lambda c: c[1](*c[0])),
        # the algebra-side maps are the transposes of the coalgebra-side maps
        _check("sharp-is-transpose", _duality_cases(n), lambda case: case()),
    ]


def _duality_cases(n):
    """Thunks for the duality check at r = 1, each returning None or a
    counterexample.  S~(n,r) is the dual of the coordinate coalgebra, so each
    algebra-side map F is the transpose of a coalgebra-side map F*."""
    from .dual import det_multiplication_map, phi_as_map

    def pairing(name, algebra_map, degree, window, reach, transpose):
        # <F(xi_z), c_w> = <xi_z, F*(c_w)> over the inputs w of one window, for
        # each label z that ``reach`` sends them to
        inputs = basis_indices(n, 1, window)
        columns = transpose.sharp(inputs)
        for z in dict.fromkeys(z for w in inputs for z in reach.apply(w)):
            xi_z = _basis_elem(n, degree, z)
            if columns.apply(z) != algebra_map(xi_z).terms:
                return {"failed": name, "xi": str(xi_z)}
        return None

    def det_pairing():
        # a label reached from window 2 at det window 1 has its offsets in
        # [-2, 2], so its column at det window 2 over input window 2 is all of it
        det = det_multiplication_map
        return pairing("det-pairing", det_tilde_sharp, n + 1, 2, det(n, 1), det(n, 2))

    def psi_pairing(s):
        # psi_as(xi_z) has the one term s*z, in window 3 when z is reached from it
        phi = phi_as_map(n, s)
        return pairing("psi-pairing-s%d" % s, lambda x: psi_as(x, s), 1, 3, phi, phi)

    def det_square():
        # the coalgebra-side square behind the transfer compatibility: multiplying
        # by the affine determinant intertwines the offset-rescaling maps
        f, g = phi_as_map(n, 1), det_multiplication_map(n, 3)
        det_1 = det_multiplication_map(n, 3, height_scalar=lambda h: Laurent.one())
        lhs, rhs = g.after(f), f.after(det_1)
        for idx in basis_indices(n, 1, 1):
            if lhs.apply(idx) != rhs.apply(idx):
                return {"failed": "det-square", "xi": str(_basis_elem(n, 1, idx))}
        return None

    return [det_pairing, det_square] + [lambda s=s: psi_pairing(s) for s in (-1, 2, 3)]


# -- lie suite ----------------------------------------------------------------------------

def _generator_cases(ts=lambda n, s: (s + 1, s - 1)):
    """(n, r, s, t): n = 2, 3, r = 1, 2, s = 1..n, t in ts(n, s), by default s +- 1."""
    return ((n, r, s, t) for n in (2, 3) for r in (1, 2)
            for s in range(1, n + 1) for t in ts(n, s))


def _det_transfer_failure(case):
    """det~#(pi(m, n + r)) = pi(m, r) for m = E_st, or E_st E_s't' via pi's product."""
    from .looplie import pi_tilde
    from .semigroup import PeriodicMatrix

    n, r, *st = case
    units = [PeriodicMatrix.unit(n, s, t) for s, t in zip(st[::2], st[1::2])]
    big, small = (functools.reduce(multiply, [pi_tilde(m, d) for m in units])
                  for d in (n + r, r))
    if det_tilde_sharp(big) == small:
        return None
    return dict(zip(("n", "r", "s", "t", "s'", "t'"), case))


def _collapse_failure(case):
    """psi_a(pi(E_st)) = pi(eta_a(E_st))."""
    from .looplie import pi_tilde
    from .semigroup import PeriodicMatrix, eta_as

    n, r, s, t = case
    m = PeriodicMatrix.unit(n, s, t)
    if psi_a(pi_tilde(m, r)) == pi_tilde(eta_as(m, 0), r):
        return None
    return {"n": n, "s": s, "t": t, "r": r}


def _centralize_failure(case):
    from .looplie import pi_tilde
    from .semigroup import PeriodicMatrix
    from .tensor import act, weyl_right_act

    n, s, t, v, w = case
    x = pi_tilde(PeriodicMatrix.unit(n, s, t), 2)
    if weyl_right_act(act(x, v), w) == act(x, weyl_right_act(v, w)):
        return None
    return {"n": n, "s": s, "t": t}


def suite_lie(offset=2, seed=20240606):
    from .looplie import lie_bracket_law
    from .semigroup import PeriodicMatrix
    from .tensor import TensorVector

    rng = random.Random(seed)
    checks = []
    for n in (2, 3):
        rows, offsets = range(1, n + 1), range(-offset, offset + 1)
        gens = [PeriodicMatrix.unit(n, s, res + n * e)
                for s, res, e in itertools.product(rows, rows, offsets)]
        holds, ij = lie_bracket_law(gens, (1, 2, 3)), range(len(gens))
        checks += [
            _check("bracket-n%d-r%d" % (n, r), itertools.product(ij, repeat=2),
                   lambda p: None if holds(p[0], p[1], r)
                   else {"g1": repr(gens[p[0]]), "g2": repr(gens[p[1]]), "r": r})
            for r in (1, 2, 3)
        ]
    r = 2  # images of degree two centralize the right action
    return checks + [
        # transfer compatibility on the row +- 1 generators and their products
        _check("det-transfer-of-generator-images", _generator_cases(),
               _det_transfer_failure),
        _check("det-transfer-of-image-products",
               (case + (s2, t2) for case in _generator_cases()
                for s2 in range(1, case[0] + 1) for t2 in (s2 + 1, s2 - 1)),
               _det_transfer_failure),
        _check("collapse-of-generator-images",
               _generator_cases(lambda n, s: range(s - 2 * n, s + 2 * n + 1)),
               _collapse_failure),
        _check("images-centralize-right-action",
               ((n, s, t,
                 TensorVector.basis(n, tuple(rng.randint(-n, 2 * n) for _ in range(r))),
                 AffineWeylElement(rng.choice(all_perms(r)),
                                   tuple(rng.randint(-1, 1) for _ in range(r))))
                for n in (2, 3) for s in range(1, n + 1)
                for t in (s + 1, s - 1, s + n) for _ in range(10)),
               _centralize_failure),
    ]


# -- generators suite ----------------------------------------------------------------------

def _decomposition_failure(values, basis, idx):
    try:
        if values(idx) == basis(idx):
            return None
        error = "re-multiplication mismatch for %s" % (idx,)
    except Exception as ex:  # a failed split is a check failure
        error = str(ex)
    return {"index": str(idx), "error": error}


def suite_generators(window=1):
    from .expr import _eval_element
    from .looplie import _y_atom_over_x, generator_set, y_split

    def cell(name, n, r):
        basis = _basis_of(n, r)
        leaf = basis if name == "y" else (
            lambda pairs: _eval_element(_y_atom_over_x(pairs, n, r), n, multiply))

        def value(pairs):  # the label's decomposition, multiplied out
            record = y_split(pairs, n)
            if record is None:
                return leaf(pairs)
            lead, left, right, others = record  # lead and c are mostly 1
            total = multiply(values(left), values(right))
            for other, c in others:
                total = total - (values(other) if c == 1 else values(other).scale(c))
            return total if lead == 1 else total.scale(Fraction(1, lead))

        values = _shared(value)
        return _check("%s-decomposition-n%d-r%d" % (name, n, r), basis_indices(n, r, window),
                      lambda idx: _decomposition_failure(values, basis, idx))

    checks = [cell("y", n, r) for n, r in itertools.product((1, 2, 3), repeat=2)]
    checks += [cell("x", n, r) for n, r in [(2, 1), (3, 1), (3, 2)]]
    # Y contains the row +- 1 generators; counting for the finite slice
    n, r = 3, 2
    x_labels = [tuple(e.terms)[0] for e in generator_set("X", n, r)]
    families = [
        ("X-in-Y", lambda: set(x_labels)
         <= {tuple(e.terms)[0] for e in generator_set("Y", n, r, window=1)}),
        ("row-plus-one-count",
         lambda: sum(any(b == t + 1 for t, b in lab) for lab in x_labels)
         == len(weakly_increasing_tuples(n, r - 1)) * n),
    ]
    return checks + [_check("generator-families", families, _holds)]


SUITES = {
    "oracle-equivalence": suite_oracle_equivalence,
    "ring-axioms": suite_ring_axioms,
    "hom-laws": suite_hom_laws,
    "semigroup-laws": suite_semigroup_laws,
    "mackey": suite_mackey,
    "lie": suite_lie,
    "generators": suite_generators,
}


def format_report(report):
    lines = []
    for c in report["checks"]:
        status = "PASS" if c["passed"] else "FAIL"
        line = "%s %s (%d checks)" % (status, c["name"], c["count"])
        if not c["passed"] and c.get("detail"):
            line += "  counterexample: %s" % (c["detail"],)
        lines.append(line)
    lines.append(
        "suite %s: %s" % (report["suite"], "PASS" if report["passed"] else "FAIL")
    )
    return "\n".join(lines)
