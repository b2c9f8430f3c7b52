"""Exact coefficient arithmetic: rational Laurent polynomials in one formal parameter.

The coefficient ring used everywhere else in this package is Q[a, a^-1] with a
symbolic parameter ``a``.  Rationals are ``fractions.Fraction`` (arbitrary
precision, normalized with positive denominator).  The same class doubles as
the ring Q[t, t^-1] for periodic matrices; only the printed symbol differs.
"""

from __future__ import annotations

from fractions import Fraction


def parse_rational(text):
    """Parse 'p' or 'p/q' into a Fraction."""
    return Fraction(text.strip())


def format_rational(x):
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


class Laurent:
    """A Laurent polynomial sum of c * a^k with exact rational c and integer k.

    Immutable.  Zero coefficients are never stored; the zero polynomial has an
    empty term dict.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for exp, coeff in dict(terms).items():
                coeff = Fraction(coeff)
                if coeff != 0:
                    clean[int(exp)] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Laurent values are immutable")

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def const(cls, c):
        return cls({0: Fraction(c)})

    @classmethod
    def gen(cls, exp=1, coeff=1):
        """The monomial coeff * a^exp."""
        return cls({exp: Fraction(coeff)})

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return self.terms == {0: Fraction(1)}

    def is_constant(self):
        return set(self.terms) <= {0}

    def constant_value(self):
        assert self.is_constant(), "not a constant: %s" % self
        return self.terms.get(0, Fraction(0))

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Laurent.const(other)
        if not isinstance(other, Laurent):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Laurent.const(other)
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            terms[exp] = terms.get(exp, Fraction(0)) + c
        return Laurent(terms)

    __radd__ = __add__

    def __neg__(self):
        return Laurent({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, Laurent) else Laurent.const(-Fraction(other)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Laurent.const(other)
        if not isinstance(other, Laurent):
            return NotImplemented
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return Laurent(terms)

    __rmul__ = __mul__

    def __pow__(self, k):
        assert isinstance(k, int) and k >= 0
        out = Laurent.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def substitute_inverse(self):
        """The image under a -> a^-1 (exponent negation)."""
        return Laurent({-e: c for e, c in self.terms.items()})

    def evaluate(self, a0):
        """Substitute a := a0 (a nonzero rational) and return the exact value."""
        a0 = Fraction(a0)
        if a0 == 0:
            raise ValueError("cannot specialize the parameter to 0")
        total = Fraction(0)
        for e, c in self.terms.items():
            total += c * a0 ** e
        return total

    # -- text and JSON forms ------------------------------------------------

    def format(self, symbol="a"):
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms):
            coeff = self.terms[exp]
            sign = "-" if coeff < 0 else "+"
            mag = abs(coeff)
            if exp == 0:
                body = format_rational(mag)
            else:
                pow_txt = symbol if exp == 1 else "%s^%d" % (symbol, exp)
                body = pow_txt if mag == 1 else "%s*%s" % (format_rational(mag), pow_txt)
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += " %s %s" % (sign, body)
        return out

    def __str__(self):
        return self.format()

    def __repr__(self):
        return "Laurent(%s)" % self.format()

    def to_json(self):
        return [[e, format_rational(c)] for e, c in sorted(self.terms.items())]

    @classmethod
    def from_json(cls, data):
        """Inverse of ``to_json``: a list of [exponent, "p/q"] pairs."""
        if not isinstance(data, list) or not all(
            isinstance(t, list) and len(t) == 2 for t in data
        ):
            raise ValueError(
                'a coefficient is a list of [exponent, "p/q"] pairs, got %r' % (data,)
            )
        return cls({int(e): parse_rational(str(c)) for e, c in data})

    @classmethod
    def parse(cls, text, symbol="a"):
        """Parse the text form, e.g. '4 + 12*a + 9*a^2' or '1/2*a^-1'."""
        from .expr import parse_scalar

        return parse_scalar(text, symbol=symbol)
