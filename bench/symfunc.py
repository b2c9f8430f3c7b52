"""Products in S(1, r) computed apart from the package, as symmetric functions.

For n = 1 the affine Schur algebra S(1, r) is the ring of symmetric Laurent
polynomials in r variables.  The basis element with bottom offsets eps (every
top is 1, the bottoms are 1 + eps) is the monomial symmetric function m_eps.
The coefficient of m_mu in m_alpha * m_beta is

    N_mu * |Sigma_r . beta| / |Sigma_r . mu|

where N_mu counts the distinct rearrangements alpha' of alpha with
alpha' + beta in the orbit Sigma_r . mu.  Nothing here imports the package.
"""

from collections import Counter
from math import factorial


def distinct_permutations(values):
    """Every distinct rearrangement of a tuple, in lexicographic order."""
    seq = sorted(values)
    size = len(seq)
    while True:
        yield tuple(seq)
        k = size - 2
        while k >= 0 and seq[k] >= seq[k + 1]:
            k -= 1
        if k < 0:
            return
        m = size - 1
        while seq[m] <= seq[k]:
            m -= 1
        seq[k], seq[m] = seq[m], seq[k]
        seq[k + 1:] = reversed(seq[k + 1:])


def orbit_size(values):
    """The number of distinct rearrangements of a tuple."""
    out = factorial(len(values))
    for mult in Counter(values).values():
        out //= factorial(mult)
    return out


def monomial_product(alpha, beta):
    """m_alpha * m_beta as {sorted exponent tuple: positive int}."""
    if len(alpha) != len(beta):
        raise ValueError("exponent tuples of different lengths")
    hits = Counter(
        tuple(sorted(a + b for a, b in zip(rearranged, beta)))
        for rearranged in distinct_permutations(alpha)
    )
    beta_orbit = orbit_size(beta)
    out = {}
    for mu, count in hits.items():
        numer = count * beta_orbit
        denom = orbit_size(mu)
        if numer % denom:
            raise ArithmeticError("non-integral coefficient for %r" % (mu,))
        out[mu] = numer // denom
    return out


def offsets_of(label):
    """Sorted bottom offsets of an n = 1 canonical label ((1, b_1), ..., (1, b_r))."""
    if any(top != 1 for top, _ in label):
        raise ValueError("not an n = 1 label: %r" % (label,))
    return tuple(sorted(bottom - 1 for _, bottom in label))


def label_of(offsets):
    """The n = 1 canonical label with the given bottom offsets."""
    return tuple(sorted((1, 1 + e) for e in offsets))


def label_product(x_label, y_label):
    """xi_x * xi_y in S(1, r) as {canonical label: positive int}."""
    product = monomial_product(offsets_of(x_label), offsets_of(y_label))
    return {label_of(mu): c for mu, c in product.items()}
