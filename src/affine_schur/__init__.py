"""Exact arithmetic in the affine Schur algebra of type A.

Canonical orbit basis with three independently implemented multiplication
engines (double-coset formula, middle-tuple counting, tensor-action
reconstruction), the full suite of algebra homomorphisms between Schur
algebras, periodic-matrix semigroups with evaluation maps, the loop algebra
acting through the same periodic matrices with constructive decompositions of
basis elements over its generators, and the transfer-operator
calculus underpinning the product formula.  All arithmetic is exact over the
rationals with one formal parameter.

Importing the package loads none of its modules: each public name imports
its defining module on first use (PEP 562), so a caller pays only for the
engines it reaches.
"""

__version__ = "0.1.0"

# The defining module of each public name.
_EXPORTS = {
    "laurent": ("Laurent",),
    "schur": (
        "AlgebraElement",
        "canonicalize",
        "identity",
        "multiply",
        "transpose_antiauto",
        "weyl_act",
    ),
    "dual": ("multiply_schur_oracle",),
    "tensor": ("TensorVector", "act", "multiply_via_action", "weyl_right_act"),
    "homs": ("det_star", "det_tilde_sharp", "psi_a", "psi_a0", "psi_as"),
    "semigroup": (
        "PeriodicMatrix",
        "det_tilde",
        "eta_a",
        "eta_as",
        "evaluate",
        "membership",
        "nonvanishing_witness",
        "weyl_conjugate",
    ),
    "looplie": ("decompose_x", "decompose_y", "generator_set", "pi_tilde"),
    "weyl": ("AffineWeylElement", "affine_matchings"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    # the import statement's machinery, unlike importlib.import_module, is
    # what ``python -X importtime`` reports
    value = getattr(__import__(module, globals(), level=1, fromlist=(name,)), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
