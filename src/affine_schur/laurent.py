"""Exact coefficient arithmetic: rational Laurent polynomials in one formal parameter.

The coefficient ring used everywhere else in this package is Q[a, a^-1] with a
symbolic parameter ``a``.  A coefficient is stored as an ``int`` where it is
integral and as a ``fractions.Fraction`` (arbitrary precision, positive
denominator other than 1) otherwise.  Structure constants are integers, so
almost every coefficient is an ``int``; ``Fraction(2) == 2`` and the two hash
alike, so equality, hashing and the text and JSON forms do not depend on the
storage.  The same class doubles as the ring Q[t, t^-1] for periodic
matrices, printed with the same symbol ``a``: ``det`` prints ``2 + 3*a``.
"""

from __future__ import annotations

from fractions import Fraction


def parse_rational(text):
    """Parse 'p' or 'p/q' into a Fraction; a zero q raises ``ValueError``."""
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % text) from None


def format_rational(x):
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def height_at(a0):
    """The height scalar h |-> a0**h of the parameter specialized to a nonzero
    rational a0, for the maps that take ``height_scalar``."""
    a0 = Fraction(a0)
    if a0 == 0:
        raise ValueError("the specialization point a0 must be nonzero")
    return lambda h: Laurent.const(a0 ** h)


def _normal(c):
    """A rational as stored: an integral ``Fraction`` becomes its ``int``."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


class Laurent:
    """A Laurent polynomial sum of c * a^k with exact rational c and integer k.

    Immutable.  Zero coefficients are never stored; the zero polynomial has an
    empty term dict.  Every stored coefficient is an ``int`` or a ``Fraction``
    whose denominator is not 1.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for exp, coeff in dict(terms).items():
                if type(coeff) is not int:
                    coeff = _normal(Fraction(coeff))
                if coeff:
                    clean[int(exp)] = coeff
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, terms):
        """The trusted constructor: a dict of int exponents to stored nonzero
        coefficients.  The result owns the dict and never changes it, so the
        result may be shared by several keys of a combination."""
        self = object.__new__(cls)
        object.__setattr__(self, "terms", terms)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Laurent values are immutable")

    @classmethod
    def zero(cls):
        return cls._trusted({})

    @classmethod
    def one(cls):
        return cls._trusted({0: 1})

    @classmethod
    def const(cls, c):
        return cls.gen(0, c)

    @classmethod
    def gen(cls, exp=1, coeff=1):
        """The monomial coeff * a^exp.  An ``int`` exponent with an ``int`` or
        ``Fraction`` coefficient is stored directly; any other input is
        coerced, or rejected, by the constructor."""
        kind = type(coeff)
        if type(exp) is int and (kind is int or kind is Fraction):
            return cls._trusted({exp: _normal(coeff)} if coeff else {})
        return cls({exp: coeff})

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return self.terms == {0: 1}

    def is_constant(self):
        return set(self.terms) <= {0}

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("not a constant: %s" % self)
        return self.terms.get(0, 0)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Laurent.const(other)
        if not isinstance(other, Laurent):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a constant equals its value, so it hashes as its value
        if self.is_constant():
            return hash(self.terms.get(0, 0))
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Laurent.const(other)
        elif not isinstance(other, Laurent):
            return NotImplemented
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            prior = terms.get(exp)
            if prior is None:
                terms[exp] = c
                continue
            c += prior
            if c:
                terms[exp] = _normal(c)
            else:
                del terms[exp]
        return Laurent._trusted(terms)

    __radd__ = __add__

    def __neg__(self):
        return Laurent._trusted({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Laurent._trusted({})
            return Laurent._trusted({e: _normal(c * other) for e, c in self.terms.items()})
        if not isinstance(other, Laurent):
            return NotImplemented
        mine, theirs = self.terms, other.terms
        if len(mine) == 1 and len(theirs) == 1:
            ((e1, c1),), ((e2, c2),) = mine.items(), theirs.items()
            return Laurent._trusted({e1 + e2: _normal(c1 * c2)})
        terms = {}
        for e1, c1 in mine.items():
            for e2, c2 in theirs.items():
                e = e1 + e2
                terms[e] = terms.get(e, 0) + c1 * c2
        return Laurent._trusted({e: _normal(c) for e, c in terms.items() if c})

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be an integer >= 0, got %r" % (k,))
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
        return Laurent._trusted({-e: c for e, c in self.terms.items()})

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

    def format(self):
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
                pow_txt = "a" if exp == 1 else "a^%d" % exp
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
    def from_json(cls, data, path="$"):
        """Inverse of ``to_json``, read at ``path`` by ``combination.read``."""
        from .combination import read

        try:
            return cls(dict(read(data, [(int, Fraction)], path)))
        except ValueError as ex:
            raise ValueError(
                '%s; a coefficient is a list of [exponent, "p/q"] pairs' % ex
            ) from None

    @classmethod
    def parse(cls, text):
        """Parse the text form, e.g. '4 + 12*a + 9*a^2' or '1/2*a^-1'."""
        from .expr import parse_scalar

        return parse_scalar(text)
