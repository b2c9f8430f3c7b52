"""Finite linear combinations: the arithmetic shared by the package's free modules.

Algebra elements (sums of xi basis elements), tensor vectors (sums of v_u),
periodic matrices (sums of E_ij) and transfer operators (sums of x_ij) are
all finitely supported maps from keys to nonzero coefficients, inside a
context such as the period n and the degree r.  ``Combination`` holds what
they share: equality, hashing, addition, negation and scaling.

The public constructor is for input from outside the program: it normalizes
or rejects every key, coerces every coefficient, and raises ``ValueError`` on
malformed input, also under ``python -O``.  Its checks are the same for
every input, with a direct path for exact scalars: ``schur`` checks a label
in one pass over its pairs, and an exact ``int`` or ``Fraction`` coefficient
becomes a ``Laurent`` through ``Laurent.gen`` without the general coercion.
The two trusted constructors are for results computed inside the package
whose keys are already normal and whose coefficients are already coerced.
``_from_items`` only adds the coefficients of equal keys and drops the zero
sums.  ``_trusted`` takes a finished dict with no zero coefficient and checks
nothing: ``schur.multiply`` sums its coefficients itself and builds its
product through it.  Addition, negation and scaling build their results
through it too, in one pass each.

Coefficient objects are immutable, so one object may be shared by several
keys, of one combination or of several: ``schur.multiply`` stores one
``Laurent`` for every label that a term pair reaches with the same constant.

``read`` is the one shape check for JSON input: every ``from_json`` and every
JSON document the command line reads goes through it.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .laurent import Laurent

_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
_MISSING = object()


def read(data, spec, path="$"):
    """The JSON value ``data`` checked against the shape ``spec``; lists become tuples.

    A spec is ``int`` (a JSON integer, not a bool or a float), ``Fraction``
    (an integer or a "p/q" string), ``[s]`` (a list of s), a tuple (a list
    with one spec per entry), a dict (an object; a key ending in "?" may be
    missing, other keys are ignored) or a function ``f(data, path)`` that
    passes ``path`` on to ``read``.  A mismatch raises ``ValueError`` naming
    the path from the root text ``path``, for example
    ``$.terms[0].pairs[1][0]: expected an integer, got 2.7``.
    """
    kind = type(data)
    if spec is int:
        if kind is int:
            return data
        expected = "an integer"
    elif spec is Fraction:
        if kind is int or kind is str and _RATIONAL.fullmatch(data):
            try:
                return Fraction(data)
            except (ValueError, ZeroDivisionError):
                pass
        expected = 'an integer or a "p/q" string'
    elif type(spec) is list:
        if kind is list:
            return tuple([read(v, spec[0], (path, i)) for i, v in enumerate(data)])
        expected = "a list"
    elif type(spec) is tuple:
        if kind is list and len(data) == len(spec):
            items = enumerate(zip(data, spec))
            return tuple([read(v, s, (path, i)) for i, (v, s) in items])
        expected = "a list of %d" % len(spec)
    elif type(spec) is dict:
        if kind is dict:
            out = {}
            for key, s in spec.items():
                name = key.rstrip("?")
                if name in data:
                    out[name] = read(data[name], s, (path, name))
                elif name == key:
                    return read(_MISSING, s, (path, name))  # no spec matches: raises
            return out
        expected = "an object"
    else:
        return spec(data, path)
    steps = []
    while type(path) is tuple:
        path, step = path
        steps.append("[%d]" % step if type(step) is int else "." + step)
    shown = "nothing" if data is _MISSING else json.dumps(data, default=repr)
    if len(shown) > 60:
        shown = shown[:57] + "..."
    raise ValueError("%s%s: expected %s, got %s" % (
        path, "".join(reversed(steps)), expected, shown
    ))


def accumulate(items):
    """{key: sum of its coefficients} over (key, coeff) items, zero sums dropped.

    Keys keep the order of their first appearance.
    """
    out = {}
    for key, c in items:
        prior = out.get(key)
        out[key] = c if prior is None else prior + c
    return {key: c for key, c in out.items() if c}


def checked_int(value, name, least):
    """``value`` as an int of at least ``least``, else ``ValueError``."""
    out = int(value)
    if out < least:
        raise ValueError("%s must be at least %d, got %d" % (name, least, out))
    return out


class Combination:
    """An immutable finite sum of coefficients times keys, in a context.

    A subclass declares ``__slots__ = ()``, a public ``__init__`` that passes
    its checked context tuple and the terms to this one, and ``_key``, which
    normalizes one key given from outside or raises ``ValueError``.
    Coefficients are Laurent polynomials unless ``_coeff`` is overridden.
    """

    __slots__ = ("context", "terms")

    def __init__(self, context, terms=None):
        """The public constructor, for terms given from outside the program.

        ``terms`` is a mapping or an iterable of (key, coeff) items; keys that
        normalize alike are added.
        """
        object.__setattr__(self, "context", context)
        items = terms.items() if hasattr(terms, "items") else terms or ()
        object.__setattr__(
            self, "terms", accumulate((self._key(k), self._coeff(c)) for k, c in items)
        )

    @classmethod
    def _trusted(cls, context, terms):
        """The trusted constructor for finished terms: a dict of normal keys to
        nonzero coerced coefficients.  The dict is owned by the result; its
        coefficients are immutable and may be shared."""
        self = object.__new__(cls)
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "terms", terms)
        return self

    @classmethod
    def _from_items(cls, context, items):
        """The trusted constructor for (key, coeff) items: normal keys and
        coerced coefficients only; equal keys are added."""
        return cls._trusted(context, accumulate(items))

    @staticmethod
    def _coeff(c):
        return c if isinstance(c, Laurent) else Laurent.const(c)

    def __setattr__(self, name, value):
        raise AttributeError("%s values are immutable" % type(self).__name__)

    @classmethod
    def zero(cls, *context):
        return cls(*context)

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def _check_context(self, other):
        if type(other) is not type(self):
            raise TypeError(
                "expected %s, got %s" % (type(self).__name__, type(other).__name__)
            )
        if other.context != self.context:
            raise ValueError(
                "context mismatch: %s vs %s" % (self.context, other.context)
            )

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.context == other.context and self.terms == other.terms

    def __hash__(self):
        return hash(self.context + (frozenset(self.terms.items()),))

    def __add__(self, other):
        return self._combine(other, False)

    def __sub__(self, other):
        return self._combine(other, True)

    def _combine(self, other, subtract):
        """self + other, or self - other, in one pass over a copy of self's terms.

        Keys keep their order: self's first, then other's new ones.
        """
        self._check_context(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            prior = terms.get(key)
            if prior is None:
                terms[key] = -c if subtract else c
                continue
            c = prior - c if subtract else prior + c
            if c:
                terms[key] = c
            else:
                del terms[key]
        return self._trusted(self.context, terms)

    def __neg__(self):
        return self._trusted(self.context, {k: -c for k, c in self.terms.items()})

    def scale(self, coeff):
        """coeff times self.  The coefficient rings have no zero divisors, so
        only a zero coeff makes a product of coefficients zero."""
        coeff = self._coeff(coeff)
        if not coeff:
            return self._trusted(self.context, {})
        return self._trusted(self.context, {k: coeff * c for k, c in self.terms.items()})
