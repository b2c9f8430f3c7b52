"""Exact arithmetic in the affine Schur algebra of type A.

Canonical orbit basis with three independently implemented multiplication
engines (double-coset formula, middle-tuple counting, tensor-action
reconstruction), the full suite of algebra homomorphisms between Schur
algebras, periodic-matrix semigroups with evaluation maps, loop-algebra
generator images with constructive decompositions, and the transfer-operator
calculus underpinning the product formula.  All arithmetic is exact over the
rationals with one formal parameter.
"""

from .laurent import Laurent
from .schur import (
    AlgebraElement,
    WeylSymmetry,
    canonicalize,
    identity,
    multiply,
    transpose_antiauto,
    weyl_act,
)
from .dual import delta_pair, multiply_schur_oracle, pair
from .tensor import TensorVector, act, multiply_via_action, weyl_right_act
from .homs import det_star, det_tilde_sharp, psi_a, psi_a0, psi_as
from .semigroup import (
    PeriodicMatrix,
    det_tilde,
    eta_a,
    eta_as,
    evaluate,
    membership,
    nonvanishing_witness,
    weyl_conjugate,
)
from .looplie import LoopGenerator, decompose_x, decompose_y, generator_set, pi_tilde
from .weyl import (
    AffineWeylElement,
    affine_matchings,
    double_cosets,
    equivalent_middle,
    meet,
    stabilizer,
    young_order,
)

__version__ = "0.1.0"

__all__ = [
    "AffineWeylElement",
    "AlgebraElement",
    "Laurent",
    "LoopGenerator",
    "PeriodicMatrix",
    "TensorVector",
    "WeylSymmetry",
    "act",
    "affine_matchings",
    "canonicalize",
    "decompose_x",
    "decompose_y",
    "delta_pair",
    "det_star",
    "det_tilde",
    "det_tilde_sharp",
    "double_cosets",
    "equivalent_middle",
    "eta_a",
    "eta_as",
    "evaluate",
    "generator_set",
    "identity",
    "meet",
    "membership",
    "multiply",
    "multiply_schur_oracle",
    "multiply_via_action",
    "nonvanishing_witness",
    "pair",
    "pi_tilde",
    "psi_a",
    "psi_a0",
    "psi_as",
    "stabilizer",
    "transpose_antiauto",
    "weyl_act",
    "weyl_conjugate",
    "weyl_right_act",
    "young_order",
]
