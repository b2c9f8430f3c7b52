"""Tests of the n = 1 checker; run with `python3 -m unittest` inside bench/."""

import random
import unittest
from collections import Counter
from itertools import permutations

from symfunc import distinct_permutations, label_product, monomial_product, orbit_size


def expand_monomial(exponents):
    """m_exponents as {exponent tuple: 1}, written out monomial by monomial."""
    return {p: 1 for p in set(permutations(exponents))}


def poly_mul(f, g):
    out = Counter()
    for a, ca in f.items():
        for b, cb in g.items():
            out[tuple(x + y for x, y in zip(a, b))] += ca * cb
    return out


class MonomialProductTest(unittest.TestCase):
    def test_worked_square(self):
        # xi[(1,1)|(1,2)]^2 = xi[(1,1)|(1,3)] + 2*xi[(1,1)|(2,2)],
        # that is (x1 + x2)^2 = m_(0,2) + 2*m_(1,1).
        x = ((1, 1), (1, 2))
        self.assertEqual(
            label_product(x, x), {((1, 1), (1, 3)): 1, ((1, 2), (1, 2)): 2}
        )
        self.assertEqual(monomial_product((0, 1), (0, 1)), {(0, 2): 1, (1, 1): 2})

    def test_matches_expanded_polynomials(self):
        rng = random.Random(7)
        for _ in range(60):
            r = rng.randint(1, 4)
            alpha = tuple(rng.randint(-2, 2) for _ in range(r))
            beta = tuple(rng.randint(-2, 2) for _ in range(r))
            full = poly_mul(expand_monomial(alpha), expand_monomial(beta))
            want = {mu: c for mu, c in full.items() if mu == tuple(sorted(mu))}
            self.assertEqual(monomial_product(alpha, beta), want)

    def test_unit_and_commutativity(self):
        beta = (-1, 0, 0, 2, 3)
        self.assertEqual(monomial_product((0,) * 5, beta), {tuple(sorted(beta)): 1})
        alpha = (1, 1, -2, 0, 4)
        self.assertEqual(monomial_product(alpha, beta), monomial_product(beta, alpha))

    def test_distinct_permutations(self):
        for values in [(), (3,), (1, 1, 2), (2, 0, 2, 0, 1), tuple(range(5))]:
            perms = list(distinct_permutations(values))
            self.assertEqual(len(perms), len(set(perms)))
            self.assertEqual(set(perms), set(permutations(values)))
            self.assertEqual(len(perms), orbit_size(values))


if __name__ == "__main__":
    unittest.main()
