"""Verification suites: each runs a family of exact identity checks and
returns a machine-readable report with counterexample payloads on failure.

Suite names: oracle-equivalence, ring-axioms, hom-laws, semigroup-laws,
mackey, lie, generators.  All checks are exact; there are no tolerances.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .combination import checked_int
from .laurent import Laurent
from .schur import (
    AlgebraElement,
    WeylSymmetry,
    basis_indices,
    identity,
    index_bottoms,
    index_tops,
    multiply,
    transpose_antiauto,
    weyl_act,
)
from .dual import multiply_schur_oracle
from .tensor import TensorVector, act, multiply_via_action, weyl_right_act
from .homs import det_tilde_sharp, psi_a, psi_as
from .semigroup import (
    PeriodicMatrix,
    det_tilde,
    eta_as,
    eta_as_at,
    evaluate,
    membership,
    weyl_conjugate,
)
from .looplie import (
    LoopGenerator,
    decompose_x,
    decompose_y,
    generator_set,
    lie_bracket_check,
    pi_tilde,
    pi_tilde_matrix,
)
from .weyl import AffineWeylElement, all_perms, bar, young_subgroup

SUITES = (
    "oracle-equivalence",
    "ring-axioms",
    "hom-laws",
    "semigroup-laws",
    "mackey",
    "lie",
    "generators",
)

# The least value of each size parameter: below it a suite would run no
# checks and pass, or fail with a traceback inside a check.  The mackey suite
# splits S_r into S_{r-1} x S_1, so there r is at least 1.
_LEAST = {"n": 1, "r": 0, "window": 0, "budget": 0, "triples": 0, "offset": 0, "count": 0}


def run_suite(name, **params):
    """Run one suite; a size parameter below its least value raises ValueError."""
    if name not in SUITES:
        raise ValueError("unknown suite %r (choose from %s)" % (name, ", ".join(SUITES)))
    bounds = dict(_LEAST, r=1) if name == "mackey" else _LEAST
    for key, least in bounds.items():
        if params.get(key) is not None:
            params[key] = checked_int(params[key], key, least)
    fn = {
        "oracle-equivalence": suite_oracle_equivalence,
        "ring-axioms": suite_ring_axioms,
        "hom-laws": suite_hom_laws,
        "semigroup-laws": suite_semigroup_laws,
        "mackey": suite_mackey,
        "lie": suite_lie,
        "generators": suite_generators,
    }[name]
    checks = fn(**params)
    return {
        "suite": name,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }


def _check(name, passed, count, detail=None):
    out = {"name": name, "passed": bool(passed), "count": count}
    if detail is not None:
        out["detail"] = detail
    return out


def _basis_elem(n, r, pairs):
    return AlgebraElement(n, r, {pairs: 1})


def _random_element(rng, n, r, window, nterms=2):
    idxs = basis_indices(n, r, window)
    terms = {}
    for _ in range(nterms):
        coeff = Laurent.gen(rng.randint(-1, 1), Fraction(rng.randint(1, 4)))
        terms[rng.choice(idxs)] = coeff
    return AlgebraElement(n, r, terms)


# -- oracle equivalence ------------------------------------------------------------

def _oracle_pairs(n, r, window, budget, rng):
    idxs = basis_indices(n, r, window)
    total = len(idxs) * len(idxs)
    if total <= budget:
        return [(x, y) for x in idxs for y in idxs]
    out = []
    for _ in range(budget):
        out.append((rng.choice(idxs), rng.choice(idxs)))
    return out

def suite_oracle_equivalence(n=None, r=None, window=2, budget=800, seed=20240601, **_):
    """Three-way agreement of the product engines on basis pairs."""
    rng = random.Random(seed)
    combos = (
        [(n, r)]
        if n is not None and r is not None
        else [(nn, rr) for nn in (1, 2, 3) for rr in (1, 2, 3)]
    )
    checks = []
    for nn, rr in combos:
        count = 0
        bad = None
        for xp, yp in _oracle_pairs(nn, rr, window, budget, rng):
            x, y = _basis_elem(nn, rr, xp), _basis_elem(nn, rr, yp)
            g = multiply(x, y)
            s = multiply_schur_oracle(x, y)
            t = multiply_via_action(x, y)
            count += 1
            if not (g == s == t):
                bad = {"left": str(x), "right": str(y), "green": str(g),
                       "schur": str(s), "tensor": str(t)}
                break
            # vanishing rule: zero exactly when middle orbits differ
            mid_ok = sorted(bar(b, nn) for b in index_bottoms(xp)) == sorted(
                index_tops(yp)
            )
            if g.is_zero() == mid_ok:
                bad = {"left": str(x), "right": str(y), "vanishing": str(g)}
                break
        checks.append(
            _check("three-way-product-n%d-r%d" % (nn, rr), bad is None, count, bad)
        )
    # pinned worked values, all engines
    x = AlgebraElement.basis(1, (1, 1), (1, 2))
    want = AlgebraElement.basis(1, (1, 1), (1, 3)) + AlgebraElement.basis(
        1, (1, 1), (2, 2)
    ).scale(2)
    ok1 = multiply(x, x) == multiply_schur_oracle(x, x) == multiply_via_action(x, x) == want
    a2 = AlgebraElement.basis(2, (1, 2), (1, 1))
    b2 = AlgebraElement.basis(2, (1, 1), (1, 2))
    want2 = AlgebraElement.basis(2, (1, 2), (1, 2)) + AlgebraElement.basis(
        2, (1, 2), (2, 1)
    )
    ok2 = (
        multiply(a2, b2)
        == multiply_schur_oracle(a2, b2)
        == multiply_via_action(a2, b2)
        == want2
    )
    checks.append(_check("worked-square-degree2", ok1, 1))
    checks.append(_check("worked-finite-product", ok2, 1))
    return checks


# -- ring axioms -------------------------------------------------------------------

def suite_ring_axioms(n=None, r=None, window=1, triples=1000, seed=20240602, **_):
    rng = random.Random(seed)
    combos = (
        [(n, r)]
        if n is not None and r is not None
        else [(nn, rr) for nn in (1, 2, 3) for rr in (1, 2, 3)]
    )
    checks = []
    for nn, rr in combos:
        idxs = basis_indices(nn, rr, window)
        bad = None
        count = 0
        for _ in range(triples):
            a, b, c = (_basis_elem(nn, rr, rng.choice(idxs)) for _ in range(3))
            count += 1
            if multiply(multiply(a, b), c) != multiply(a, multiply(b, c)):
                bad = {"a": str(a), "b": str(b), "c": str(c)}
                break
        checks.append(
            _check("associativity-n%d-r%d" % (nn, rr), bad is None, count, bad)
        )
        e = identity(nn, rr)
        bad = None
        for idx in rng.sample(idxs, min(len(idxs), 50)):
            x = _basis_elem(nn, rr, idx)
            if multiply(e, x) != x or multiply(x, e) != x:
                bad = {"x": str(x)}
                break
        checks.append(_check("identity-laws-n%d-r%d" % (nn, rr), bad is None, 50, bad))
        # orthogonal idempotent decomposition
        from .weyl import weakly_increasing_tuples

        diag = [
            _basis_elem(nn, rr, tuple((v, v) for v in t))
            for t in weakly_increasing_tuples(nn, rr)
        ]
        ok = True
        for i1, d1 in enumerate(diag):
            for i2, d2 in enumerate(diag):
                want = d1 if i1 == i2 else AlgebraElement.zero(nn, rr)
                if multiply(d1, d2) != want:
                    ok = False
        total = diag[0]
        for d in diag[1:]:
            total = total + d
        ok = ok and total == e
        checks.append(_check("orthogonal-idempotents-n%d-r%d" % (nn, rr), ok, len(diag) ** 2))
    return checks


# -- homomorphism laws ----------------------------------------------------------------

_PACK = 10 ** 6


def _psi_two_var(x, s_outer, s_inner):
    """Composite with two formal parameters, packed into one exponent lattice.

    Monomials a^p a'^q with |q| < PACK/2 are encoded as single exponents
    PACK*p + q, a faithful ring embedding on that support; ``_packed`` raises
    ``ValueError`` for a height outside it rather than alias.
    """
    inner = psi_as(x, s_inner, height_scalar=lambda h: _packed(0, h))
    return psi_as(inner, s_outer, height_scalar=lambda h: _packed(h, 0))


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


def suite_hom_laws(n=2, r=2, window=1, seed=20240603, samples=40, **_):
    rng = random.Random(seed)
    idxs = basis_indices(n, r, window)
    sample = [rng.choice(idxs) for _ in range(samples)]
    checks = []

    concrete_pairs = [(Fraction(2), Fraction(3)), (Fraction(1, 2), Fraction(5)),
                      (Fraction(-2), Fraction(2, 3))]
    bad = None
    count = 0
    for s in range(-2, 3):
        for s2 in range(-2, 3):
            for idx in sample:
                x = _basis_elem(n, r, idx)
                lhs = _psi_two_var(x, s, s2)
                rhs = _psi_substituted(x, s, s2)
                count += 1
                if lhs != rhs:
                    bad = {"s": s, "s'": s2, "x": str(x)}
                    break
                for a0, a1 in concrete_pairs:
                    lc = _psi_at(_psi_at(x, s2, a1), s, a0)
                    rc = _psi_at(x, s * s2, a1 * a0 ** s2)
                    count += 1
                    if lc != rc:
                        bad = {"s": s, "s'": s2, "a": str(a0), "a'": str(a1), "x": str(x)}
                        break
    checks.append(_check("psi-composition-law", bad is None, count, bad))

    bad = None
    count = 0
    for _ in range(60):
        x = _random_element(rng, n, r, window)
        y = _random_element(rng, n, r, window)
        count += 1
        if psi_a(multiply(x, y)) != multiply(psi_a(x), psi_a(y)):
            bad = {"x": str(x), "y": str(y)}
            break
        for s in (1, 2, -1):
            if psi_as(multiply(x, y), s) != multiply(psi_as(x, s), psi_as(y, s)):
                bad = {"s": s, "x": str(x), "y": str(y)}
                break
    checks.append(_check("psi-multiplicative", bad is None, count, bad))

    bad = None
    for idx in sample:
        x = _basis_elem(n, r, idx)
        if transpose_antiauto(transpose_antiauto(x)) != x:
            bad = {"x": str(x)}
            break
    for _ in range(40):
        x = _random_element(rng, n, r, window)
        y = _random_element(rng, n, r, window)
        if transpose_antiauto(multiply(x, y)) != multiply(
            transpose_antiauto(y), transpose_antiauto(x)
        ):
            bad = {"x": str(x), "y": str(y)}
            break
    ok_id = transpose_antiauto(identity(n, r)) == identity(n, r)
    checks.append(_check("transpose-antiautomorphism", bad is None and ok_id, 80, bad))

    bad = None
    syms = [WeylSymmetry.rho(n)] + [WeylSymmetry.s(n, i) for i in range(1, n + 1)]
    for w in syms:
        for _ in range(20):
            x = _random_element(rng, n, r, window)
            y = _random_element(rng, n, r, window)
            if weyl_act(w, multiply(x, y)) != multiply(weyl_act(w, x), weyl_act(w, y)):
                bad = {"window": w.window, "x": str(x), "y": str(y)}
                break
            if weyl_act(w, identity(n, r)) != identity(n, r):
                bad = {"window": w.window, "id": True}
                break
    # rho^n is the identity map
    for idx in sample:
        x = _basis_elem(n, r, idx)
        y = x
        for _ in range(n):
            y = weyl_act(WeylSymmetry.rho(n), y)
        if y != x:
            bad = {"rho^n": str(x)}
            break
    checks.append(_check("weyl-action-automorphisms", bad is None, len(syms) * 20, bad))
    return checks


def _psi_at(x, s, a0):
    return psi_as(x, s, height_scalar=lambda h: Laurent.const(Fraction(a0) ** h))


# -- semigroup laws ---------------------------------------------------------------------

def _random_matrix(rng, n, max_entries=4, offset=1):
    entries = {}
    for _ in range(rng.randint(1, max_entries)):
        i = rng.randint(1, n)
        res = rng.randint(1, n)
        off = rng.randint(-offset, offset)
        entries[(i, res + n * off)] = Fraction(rng.randint(-3, 3))
    return PeriodicMatrix(n, entries)


def _random_sl_matrix(rng, n, a0, factors=3):
    """A product of elementary unipotents: affine determinant 1 at every a0."""
    out = PeriodicMatrix.identity(n)
    eye = PeriodicMatrix.identity(n)
    for _ in range(factors):
        u = rng.randint(1, n)
        v = rng.randint(1, n)
        while v == u:
            v = rng.randint(1, n)
        off = rng.randint(-1, 1)
        c = Fraction(rng.randint(1, 3), rng.randint(1, 2)) * rng.choice((1, -1))
        out = out * (eye + PeriodicMatrix.unit(n, u, v + n * off, c))
    return out


def suite_semigroup_laws(n=2, count=50, seed=20240604, **_):
    rng = random.Random(seed)
    checks = []

    bad = None
    done = 0
    for _ in range(count):
        m = _random_matrix(rng, n)
        for s, s2 in [(-1, 1), (0, 2), (1, 1), (2, -1), (1, 0), (0, 0)]:
            for a0, a1 in [(Fraction(2), Fraction(3)), (Fraction(1, 2), Fraction(-2))]:
                done += 1
                lhs = eta_as_at(eta_as_at(m, s2, a1), s, a0)
                rhs = eta_as_at(m, s * s2, a1 * a0 ** s2)
                if lhs != rhs:
                    bad = {"m": str(m), "s": s, "s'": s2}
                    break
    checks.append(_check("eta-composition-law", bad is None, done, bad))

    bad = None
    for _ in range(count):
        m = _random_matrix(rng, n)
        for s in (-1, 0, 1, 2):
            lhs = eta_as(m, s).transpose()
            rhs = PeriodicMatrix(
                n,
                {
                    k: v.substitute_inverse()
                    for k, v in eta_as(m.transpose(), s).terms.items()
                },
            )
            if lhs != rhs:
                bad = {"m": str(m), "s": s}
                break
    checks.append(_check("eta-transpose-law", bad is None, count * 4, bad))

    bad = None
    for _ in range(count):
        m1, m2 = _random_matrix(rng, n), _random_matrix(rng, n)
        if det_tilde(m1 * m2) != det_tilde(m1) * det_tilde(m2):
            bad = {"g": str(m1), "h": str(m2)}
            break
    checks.append(_check("det-multiplicative", bad is None, count, bad))

    bad = None
    for _ in range(count):
        m = _random_matrix(rng, n)
        if det_tilde(m.transpose()).substitute_inverse() != det_tilde(m):
            bad = {"m": str(m)}
            break
    checks.append(_check("det-transpose", bad is None, count, bad))

    bad = None
    done = 0
    for _ in range(count):
        m1, m2 = _random_matrix(rng, n, 3), _random_matrix(rng, n, 3)
        for r in (1, 2):
            done += 1
            if evaluate(m1 * m2, r) != multiply(evaluate(m1, r), evaluate(m2, r)):
                bad = {"g": str(m1), "h": str(m2), "r": r}
                break
    checks.append(_check("evaluate-multiplicative", bad is None, done, bad))

    bad = None
    for _ in range(count):
        m = _random_matrix(rng, n, 3)
        for r in (1, 2):
            if evaluate(m.transpose(), r) != transpose_antiauto(evaluate(m, r)):
                bad = {"m": str(m), "r": r}
                break
    checks.append(_check("evaluate-transpose-compatible", bad is None, count * 2, bad))

    # conjugation by Weyl symmetries preserves membership and is an action
    bad = None
    syms = [WeylSymmetry.rho(n)] + [WeylSymmetry.s(n, i) for i in range(1, n + 1)]
    for _ in range(20):
        m = _random_matrix(rng, n)
        for w in syms:
            for w2 in syms:
                lhs = weyl_conjugate(w.compose(w2), m)
                rhs = weyl_conjugate(w, weyl_conjugate(w2, m))
                if lhs != rhs:
                    bad = {"m": str(m)}
                    break
        if membership(m, "GL-generic") != membership(
            weyl_conjugate(syms[0], m), "GL-generic"
        ):
            bad = {"m": str(m), "membership": True}
    checks.append(_check("weyl-conjugation-action", bad is None, 20 * len(syms) ** 2, bad))
    return checks


# -- mackey / appendix suites ----------------------------------------------------------

def suite_mackey(r=3, n=2, seed=20240605, **_):
    from .transfer import (
        OperatorSum,
        affine_mackey_window,
        affine_stabilizer,
        affine_transfer_window,
        conjugate_subgroup,
        double_coset_reps,
        is_invariant,
        mackey_product,
        make_affine_action,
        perm_inv,
        perm_mul,
        transfer,
        tuple_action,
    )

    rng = random.Random(seed)
    checks = []
    S = all_perms(r)
    triv = [S[0]]
    young_a = list(young_subgroup(tuple([tuple(range(1, r))] + [(r,)])))
    young_b = list(young_subgroup(tuple([(1,)] + [tuple(range(2, r + 1))])))

    def rand_inv(H):
        base = OperatorSum(
            {
                (
                    tuple(rng.randint(1, r) for _ in range(r)),
                    tuple(rng.randint(1, r) for _ in range(r)),
                ): rng.randint(1, 3)
            }
        )
        out = OperatorSum.zero()
        for g in H:
            out = out + base.translate(g, tuple_action)
        return out

    bad = None
    count = 0
    for _ in range(40):
        a = rand_inv(young_a)
        b = rand_inv(young_b)
        expected = transfer(a, young_a, S, tuple_action) * transfer(
            b, young_b, S, tuple_action
        )
        try:
            coset_sum = mackey_product(a, young_a, b, young_b, S, tuple_action)
        except ValueError:
            continue
        except AssertionError:
            bad = {"a": str(a), "b": str(b)}
            break
        count += 1
        if coset_sum != expected:
            bad = {"a": str(a), "b": str(b)}
            break
    checks.append(_check("mackey-symmetric-group", bad is None, count, bad))

    bad = None
    count = 0
    for _ in range(40):
        a0 = OperatorSum.unit(
            tuple(rng.randint(1, r) for _ in range(r)),
            tuple(rng.randint(1, r) for _ in range(r)),
        )
        mid = transfer(a0, triv, young_a, tuple_action)
        count += 1
        if transfer(mid, young_a, S, tuple_action) != transfer(a0, triv, S, tuple_action):
            bad = {"a": str(a0)}
            break
    checks.append(_check("transfer-transitivity", bad is None, count, bad))

    # move: T(ab) = T(a) b for b invariant under the big group
    bad = None
    count = 0
    for _ in range(40):
        a = rand_inv(young_a)
        seedop = OperatorSum.unit(
            tuple(rng.randint(1, r) for _ in range(r)),
            tuple(rng.randint(1, r) for _ in range(r)),
        )
        b = OperatorSum.zero()
        for g in S:
            b = b + seedop.translate(g, tuple_action)
        ab = a * b
        if not is_invariant(ab, young_a, tuple_action):
            continue
        count += 1
        if transfer(ab, young_a, S, tuple_action) != transfer(a, young_a, S, tuple_action) * b:
            bad = {"a": str(a), "b": str(b)}
            break
    checks.append(_check("transfer-move", bad is None, count, bad))

    # compare: decomposition of a transfer over double cosets
    bad = None
    count = 0
    for _ in range(40):
        a = rand_inv(young_a)
        lhs = transfer(a, young_a, S, tuple_action)
        rhs = OperatorSum.zero()
        # w runs over H1\G/H2, i.e. cosets H1 w H2
        for w in double_coset_reps(young_b, S, young_a, perm_mul):
            h1w = conjugate_subgroup(young_a, w, perm_mul, perm_inv)
            inter = [g for g in h1w if g in set(young_b)]
            rhs = rhs + transfer(a.translate(w, tuple_action), inter, young_b, tuple_action)
        count += 1
        if lhs != rhs:
            bad = {"a": str(a)}
            break
    checks.append(_check("transfer-compare", bad is None, count, bad))

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
    bad = None
    count = 0
    for (i, j, l) in configs:
        a = OperatorSum.unit(i, j)
        b = OperatorSum.unit(j, l)
        h1 = affine_stabilizer([i, j], n, 2)
        h2 = affine_stabilizer([j, l], n, 2)
        lhs, rhs = affine_mackey_window(a, h1, b, h2, n, window)
        count += 1
        if lhs != rhs or lhs.is_zero():
            bad = {"i": i, "j": j, "l": l, "lhs": str(lhs), "rhs": str(rhs)}
            break
        hj = affine_stabilizer([j], n, 2)
        mid = transfer(a, h1, hj, make_affine_action(n), lambda x, y: x.compose(y))
        t1 = affine_transfer_window(mid, hj, n, window)
        t2 = affine_transfer_window(a, h1, n, window)
        count += 1
        if t1 != t2 or t1.is_zero():
            bad = {"i": i, "j": j, "transitivity": True}
            break
    checks.append(_check("mackey-affine-window", bad is None, count, bad))

    # duality reverses composition on explicit windows
    checks.append(_sharp_compose_checks(n))
    return checks


def _sharp_compose_checks(n):
    from .dual import (
        RowFiniteMap,
        compose_maps,
        det_multiplication_map,
        phi_as_map,
        sharp_compose_check,
    )

    r = 1
    win_r = basis_indices(n, r, 1)
    win_mid = basis_indices(n, r, 2)
    win_out = basis_indices(n, r + n, 3)
    f = phi_as_map(n, 1)
    g = det_multiplication_map(n, r, 3)
    ok = sharp_compose_check(f, g, win_r, win_mid, win_out)

    # the coalgebra-side square behind the transfer compatibility: multiplying
    # by the affine determinant intertwines the offset-rescaling maps
    det_1 = det_multiplication_map(n, r, 3, height_scalar=lambda h: Laurent.one())
    lhs_sq = compose_maps(g, f, win_r, win_out, win_mid)
    rhs_sq = compose_maps(f, det_1, win_r, win_out, win_out)
    ok_square = lhs_sq == rhs_sq

    # identity map and random sparse row-finite maps on a ten-label window
    ident = RowFiniteMap(lambda idx: [(idx, Laurent.one())], name="id")
    ok_id = sharp_compose_check(ident, ident, win_r[:10], win_r[:10], win_r[:10])
    rng = random.Random(7)
    small = win_r[:10]
    table_f = {
        idx: [(rng.choice(small), Laurent.const(rng.randint(1, 3)))] for idx in small
    }
    table_g = {
        idx: [(rng.choice(small), Laurent.gen(rng.randint(0, 1)))] for idx in small
    }
    f2 = RowFiniteMap(lambda idx: table_f.get(idx, []), name="sparse-f")
    g2 = RowFiniteMap(lambda idx: table_g.get(idx, []), name="sparse-g")
    ok_rand = sharp_compose_check(f2, g2, small, small, small)
    return _check(
        "sharp-reverses-composition", ok and ok_square and ok_id and ok_rand, 4
    )


# -- lie suite ----------------------------------------------------------------------------

def suite_lie(offset=2, rmax=3, seed=20240606, **_):
    rng = random.Random(seed)
    checks = []
    for n in (2, 3):
        gens = [
            LoopGenerator(n, s, res + n * e)
            for s in range(1, n + 1)
            for res in range(1, n + 1)
            for e in range(-offset, offset + 1)
        ]
        for r in range(1, rmax + 1):
            bad = None
            count = 0
            for g1 in gens:
                for g2 in gens:
                    count += 1
                    if not lie_bracket_check(g1, g2, r):
                        bad = {"g1": repr(g1), "g2": repr(g2), "r": r}
                        break
                if bad:
                    break
            checks.append(_check("bracket-n%d-r%d" % (n, r), bad is None, count, bad))

    # transfer compatibility on the row +- 1 generators
    bad = None
    count = 0
    for n in (2, 3):
        for r in (1, 2):
            for s in range(1, n + 1):
                for t in (s + 1, s - 1):
                    count += 1
                    lhs = det_tilde_sharp(pi_tilde(LoopGenerator(n, s, t), n + r))
                    rhs = pi_tilde(LoopGenerator(n, s, t), r)
                    if lhs != rhs:
                        bad = {"n": n, "r": r, "s": s, "t": t}
                        break
    checks.append(_check("det-transfer-of-generator-images", bad is None, count, bad))

    # collapse compatibility: psi_a(pi(E_st)) = pi(eta_a(E_st))
    from .semigroup import eta_as as _eta

    bad = None
    count = 0
    for n in (2, 3):
        for r in (1, 2):
            for s in range(1, n + 1):
                for t in range(s - 2 * n, s + 2 * n + 1):
                    count += 1
                    lhs = psi_a(pi_tilde(LoopGenerator(n, s, t), r))
                    rhs = pi_tilde_matrix(_eta(LoopGenerator(n, s, t).matrix(), 0), r)
                    if lhs != rhs:
                        bad = {"n": n, "s": s, "t": t, "r": r}
                        break
    checks.append(_check("collapse-of-generator-images", bad is None, count, bad))

    # images centralize the right action
    bad = None
    count = 0
    for n in (2, 3):
        r = 2
        for s in range(1, n + 1):
            for t in (s + 1, s - 1, s + n):
                x = pi_tilde(LoopGenerator(n, s, t), r)
                for _ in range(10):
                    v = TensorVector.basis(
                        n, tuple(rng.randint(-n, 2 * n) for _ in range(r))
                    )
                    w = AffineWeylElement(
                        rng.choice(all_perms(r)),
                        tuple(rng.randint(-1, 1) for _ in range(r)),
                    )
                    count += 1
                    if weyl_right_act(act(x, v), w, n) != act(x, weyl_right_act(v, w, n)):
                        bad = {"n": n, "s": s, "t": t}
                        break
    checks.append(_check("images-centralize-right-action", bad is None, count, bad))
    return checks


# -- generators suite ----------------------------------------------------------------------

def suite_generators(window=1, nmax=3, rmax=3, **_):
    checks = []
    for n in range(1, nmax + 1):
        for r in range(1, rmax + 1):
            bad = None
            count = 0
            for idx in basis_indices(n, r, window):
                count += 1
                try:
                    decompose_y(idx, n)
                except Exception as ex:  # re-multiplication failure is a check failure
                    bad = {"index": str(idx), "error": str(ex)}
                    break
            checks.append(
                _check("y-decomposition-n%d-r%d" % (n, r), bad is None, count, bad)
            )
    for n, r in [(2, 1), (3, 1), (3, 2)]:
        bad = None
        count = 0
        for idx in basis_indices(n, r, window):
            count += 1
            try:
                decompose_x(idx, n)
            except Exception as ex:
                bad = {"index": str(idx), "error": str(ex)}
                break
        checks.append(_check("x-decomposition-n%d-r%d" % (n, r), bad is None, count, bad))

    # Y contains the row +- 1 generators; counting for the finite slice
    n, r = 3, 2
    y_labels = {tuple(e.terms)[0] for e in generator_set("Y", n, r, window=1)}
    x_labels = {tuple(e.terms)[0] for e in generator_set("X", n, r)}
    ok = x_labels <= y_labels
    from .weyl import weakly_increasing_tuples

    expected = len(weakly_increasing_tuples(n, r - 1)) * n
    x1_count = sum(
        1
        for e in generator_set("X", n, r)
        for lab in [tuple(e.terms)[0]]
        if any(b == t + 1 for t, b in lab)
    )
    checks.append(_check("generator-families", ok and x1_count == expected, 2))
    return checks


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
