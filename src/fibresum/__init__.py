"""Exact homological invariants of generalized fibre sums of closed,
oriented 4-manifolds.

Given two sides described by algebraic data (Betti numbers, first
homology, the embedding of the surface on homology, pairing numbers of
the canonical class) and a gluing vector, the library computes the Betti
numbers and first homology of the sum, its rim-tori and split-class
groups, the block intersection form with its unimodular classification,
and the canonical class of the symplectic sum, all in exact integer
arithmetic with full internal cross-validation.
"""

from .abgroups import AbGroup, direct_sum, normal_form
from .engine import (
    ComplementInvariants,
    SplitClass,
    SumAnalysis,
    analyse,
    complement_invariants,
    phi_action_h1,
)
from .forms import (
    BlockForm,
    CanonicalClass,
    Divisibility,
    FormClass,
    ScopeError,
    SumForms,
    embed_h2,
    sum_forms,
)
from .intlat import IntMatrix, cokernel_presentation, kernel_and_cokernel
from .model import (
    BettiNumbers,
    DocumentError,
    FibreSumProblem,
    GluingClass,
    ManifoldSide,
    elliptic_surface,
    parse_problem,
    problem_to_dict,
    side_to_dict,
    validate_problem,
    validate_side,
)

__version__ = "0.1.0"

__all__ = [
    "AbGroup",
    "BettiNumbers",
    "BlockForm",
    "CanonicalClass",
    "ComplementInvariants",
    "Divisibility",
    "DocumentError",
    "FibreSumProblem",
    "FormClass",
    "GluingClass",
    "IntMatrix",
    "ManifoldSide",
    "ScopeError",
    "SplitClass",
    "SumAnalysis",
    "SumForms",
    "analyse",
    "cokernel_presentation",
    "complement_invariants",
    "direct_sum",
    "elliptic_surface",
    "embed_h2",
    "kernel_and_cokernel",
    "normal_form",
    "parse_problem",
    "phi_action_h1",
    "problem_to_dict",
    "side_to_dict",
    "sum_forms",
    "validate_problem",
    "validate_side",
]
