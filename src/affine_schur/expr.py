"""Expression language for the command line: sums and products of basis
atoms and Laurent scalar literals.

Grammar:

    expr   := term (("+" | "-") term)*
    term   := factor ("*" factor)*
    factor := scalar | atom | "(" expr ")"
    atom   := "xi[" tuple "|" tuple "]"
    tuple  := "(" int ("," int)* ")"
    scalar := rational | "a" ("^" int)?

Parsing reports syntax errors with a column; evaluation requires all atoms to
share one length and is carried out over a caller-supplied period n.

The same ``Node`` trees also hold the decompositions built by ``looplie``:
``atom`` and ``scaled`` build them, ``atoms`` and ``map_atoms`` walk them, and
``to_json`` writes them in the ``{"op": ...}`` format of ``decompose``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .laurent import Laurent, format_rational
from .schur import AlgebraElement, format_index, index_bottoms, index_tops, multiply


class ParseError(ValueError):
    def __init__(self, message, column):
        super().__init__("%s at column %d" % (message, column))
        self.column = column


class Node:
    """Expression-tree node; kind is one of atom, scalar, sum, product, neg."""

    __slots__ = ("kind", "value", "children", "column")

    def __init__(self, kind, value=None, children=(), column=0):
        self.kind = kind
        self.value = value
        self.children = list(children)
        self.column = column

    def __repr__(self):
        if self.kind in ("atom", "scalar"):
            return "Node(%s, %r)" % (self.kind, self.value)
        return "Node(%s, %s)" % (self.kind, self.children)


def atom(pairs):
    """The atom node of a label given as (top, bottom) pairs."""
    return Node("atom", (index_tops(pairs), index_bottoms(pairs)))


def scaled(coeff, node):
    """The product of a rational scalar and a tree."""
    return Node("product", children=[Node("scalar", Laurent.const(coeff)), node])


def atoms(node):
    """The (top, bottom) pairs of every atom of a tree, in order."""
    if node.kind == "atom":
        yield tuple(zip(*node.value))
    else:
        for c in node.children:
            yield from atoms(c)


def map_atoms(node, fn):
    """The tree with each atom replaced by ``fn`` of its (top, bottom) pairs."""
    if node.kind == "atom":
        return fn(tuple(zip(*node.value)))
    if node.kind == "scalar":
        return node
    return Node(
        node.kind,
        children=[map_atoms(c, fn) for c in node.children],
        column=node.column,
    )


def to_json(node):
    """A sum/product tree of atoms in the ``{"op": ...}`` JSON format.

    A two-factor product whose first factor is a scalar is ``scale``, any
    other product is ``mul`` and a sum is ``add``.
    """
    kind, children = node.kind, node.children
    if kind == "atom":
        return {"op": "atom", "pairs": [list(p) for p in zip(*node.value)]}
    if kind == "product" and len(children) == 2 and children[0].kind == "scalar":
        return {
            "op": "scale",
            "coeff": format_rational(children[0].value.constant_value()),
            "child": to_json(children[1]),
        }
    if kind in ("sum", "product"):
        return {
            "op": "add" if kind == "sum" else "mul",
            "children": [to_json(c) for c in children],
        }
    raise ValueError("a %s node has no JSON form" % kind)


# -- lexer ---------------------------------------------------------------------

_SYMBOLS = "+-*()|,[]^"


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        col = pos + 1
        if text.startswith("xi[", pos):
            tokens.append(("XI", "xi[", col))
            pos += 3
            continue
        if ch in _SYMBOLS:
            tokens.append((ch, ch, col))
            pos += 1
            continue
        if ch.isdigit():
            end = pos
            while end < len(text) and text[end].isdigit():
                end += 1
            if end < len(text) and text[end] == "/":
                end2 = end + 1
                while end2 < len(text) and text[end2].isdigit():
                    end2 += 1
                if end2 == end + 1:
                    raise ParseError("expected denominator", end + 2)
                if not text[end + 1 : end2].strip("0"):
                    raise ParseError("zero denominator", end + 2)
                tokens.append(("NUM", Fraction(text[pos:end2]), col))
                pos = end2
            else:
                tokens.append(("NUM", Fraction(text[pos:end]), col))
                pos = end
            continue
        if ch == "a" and (pos + 1 == len(text) or not text[pos + 1].isalnum()):
            tokens.append(("PARAM", "a", col))
            pos += 1
            continue
        raise ParseError("unexpected character %r" % ch, col)
    tokens.append(("END", None, len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError("expected %s" % kind, tok[2])
        self.pos += 1
        return tok

    def parse_expr(self):
        sign = 1
        if self.peek()[0] == "-":
            self.take()
            sign = -1
        node = self.parse_term()
        if sign < 0:
            node = Node("neg", children=[node], column=node.column)
        children = [node]
        while self.peek()[0] in ("+", "-"):
            op, _, col = self.take()
            term = self.parse_term()
            if op == "-":
                term = Node("neg", children=[term], column=col)
            children.append(term)
        if len(children) == 1:
            return children[0]
        return Node("sum", children=children, column=children[0].column)

    def parse_term(self):
        children = [self.parse_factor()]
        while self.peek()[0] == "*":
            self.take()
            children.append(self.parse_factor())
        if len(children) == 1:
            return children[0]
        return Node("product", children=children, column=children[0].column)

    def parse_factor(self):
        kind, value, col = self.peek()
        if kind == "NUM":
            self.take()
            return Node("scalar", Laurent.const(value), column=col)
        if kind == "PARAM":
            self.take()
            exp = 1
            if self.peek()[0] == "^":
                self.take()
                exp = self.parse_int()
            return Node("scalar", Laurent.gen(exp), column=col)
        if kind == "XI":
            return self.parse_atom()
        if kind == "(":
            self.take()
            node = self.parse_expr()
            self.take(")")
            return node
        raise ParseError("expected a factor", col)

    def parse_int(self):
        sign = 1
        if self.peek()[0] == "-":
            self.take()
            sign = -1
        tok = self.take("NUM")
        val = tok[1]
        if val.denominator != 1:
            raise ParseError("expected an integer", tok[2])
        return sign * int(val)

    def parse_atom(self):
        _, _, col = self.take("XI")
        top = self.parse_tuple()
        self.take("|")
        bottom = self.parse_tuple()
        self.take("]")
        if len(top) != len(bottom):
            raise ParseError("tuple lengths differ", col)
        return Node("atom", (top, bottom), column=col)

    def parse_tuple(self):
        self.take("(")
        values = [self.parse_int()]
        while self.peek()[0] == ",":
            self.take()
            values.append(self.parse_int())
        self.take(")")
        return tuple(values)


def parse(text):
    """Parse an expression; raises ParseError with a column on bad input."""
    parser = _Parser(_tokenize(text))
    try:
        node = parser.parse_expr()
    except RecursionError:
        raise ParseError("expression nested too deeply", parser.peek()[2]) from None
    parser.take("END")
    return node


def parse_scalar(text):
    """Parse a pure Laurent scalar expression."""
    node = parse(text)
    if atom_length(node) is not None:
        raise ParseError("expected a scalar expression", node.column)
    return _eval_element(node, None, multiply)


def atom_length(node):
    """Common tuple length of the atoms, or None for a pure scalar."""
    if node.kind == "atom":
        return len(node.value[0])
    if node.kind == "scalar":
        return None
    lengths = {atom_length(c) for c in node.children}
    lengths.discard(None)
    if not lengths:
        return None
    if len(lengths) > 1:
        raise ParseError("atoms of mixed lengths in one expression", node.column)
    return lengths.pop()


def evaluate(node, n, product=multiply):
    """Evaluate to an AlgebraElement (or a Laurent scalar if no atoms occur)."""
    atom_length(node)  # atoms of mixed lengths raise ParseError here
    return _eval_element(node, n, product)


# Decomposition trees repeat their atoms many times over.
_basis_element = lru_cache(maxsize=None)(AlgebraElement.basis)


def _eval_element(node, n, product):
    if node.kind == "atom":
        top, bottom = node.value
        return _basis_element(n, top, bottom)
    if node.kind == "scalar":
        return node.value
    if node.kind == "neg":
        return -_eval_element(node.children[0], n, product)
    if node.kind == "sum":
        parts = [_eval_element(c, n, product) for c in node.children]
        if len({isinstance(p, Laurent) for p in parts}) > 1:
            raise ParseError("cannot add a bare scalar to basis elements", node.column)
        total = parts[0]
        for p in parts[1:]:
            total = total + p
        return total
    if node.kind == "product":
        scalar = element = None
        for c in node.children:
            value = _eval_element(c, n, product)
            if isinstance(value, Laurent):
                scalar = value if scalar is None else scalar * value
            else:
                element = value if element is None else product(element, value)
        if element is None:
            return scalar
        return element if scalar is None else element.scale(scalar)
    raise AssertionError("unknown node kind %r" % node.kind)


def print_node(node):
    """Render a parse tree back to text (inverse of parse up to whitespace)."""
    if node.kind == "atom":
        top, bottom = node.value
        return format_index(tuple(zip(top, bottom)))
    if node.kind == "scalar":
        txt = node.value.format()
        if " " in txt or txt.startswith("-"):
            return "(%s)" % txt
        return txt
    if node.kind == "neg":
        inner = print_node(node.children[0])
        return "-%s" % inner
    if node.kind == "sum":
        parts = []
        for i, c in enumerate(node.children):
            if c.kind == "neg":
                parts.append(("- " if i else "-") + print_node(c.children[0]))
            else:
                parts.append(("+ " if i else "") + print_node(c))
        return " ".join(parts)
    if node.kind == "product":
        chunks = []
        for c in node.children:
            txt = print_node(c)
            if c.kind in ("sum", "neg"):
                txt = "(%s)" % txt
            chunks.append(txt)
        return "*".join(chunks)
    raise AssertionError
