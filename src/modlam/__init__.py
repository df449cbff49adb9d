"""Capture-avoiding syntax as monads, left modules over them, and a
randomized harness for the laws that tie them together.

The core vocabulary is generic terms over a binding signature
(`terms`), the untyped calculus with its normal forms and exponential
structure (`lam`), module combinators and the plus/times non-linearity
witness (`combinators`), simply typed and sort-indexed syntax
(`typed`), and descriptors plus law checks (`harness`).
"""

from .combinators import base_change, identity_morphism
from .errors import ConfigError, MalformedTermError, ParseError, TypeCheckError
from .fuel import DEFAULT_FUEL, DepthLimit, Fuel, FuelExhausted, ReductionCycle
from .harness import (
    LawCheck,
    LawReport,
    ModuleInstance,
    MonadInstance,
    MonadMorphism,
    MonoidAlgebra,
    algebra_check,
    check_linearity,
    check_module_laws,
    check_monad_laws,
    check_monad_morphism,
    sampled_law,
    tautological_module,
)
from .terms import (
    Bound,
    Free,
    Op,
    Representation,
    ScopedTerm,
    Signature,
    Var,
    bvar,
    fold,
    fvar,
    rename,
    substitute,
    well_scoped,
)

__all__ = [
    "Bound",
    "ConfigError",
    "DEFAULT_FUEL",
    "DepthLimit",
    "Free",
    "Fuel",
    "FuelExhausted",
    "LawCheck",
    "LawReport",
    "MalformedTermError",
    "ModuleInstance",
    "MonadInstance",
    "MonadMorphism",
    "MonoidAlgebra",
    "Op",
    "ParseError",
    "ReductionCycle",
    "Representation",
    "ScopedTerm",
    "Signature",
    "TypeCheckError",
    "Var",
    "algebra_check",
    "base_change",
    "bvar",
    "check_linearity",
    "check_module_laws",
    "check_monad_laws",
    "check_monad_morphism",
    "fold",
    "fvar",
    "identity_morphism",
    "rename",
    "sampled_law",
    "substitute",
    "tautological_module",
    "well_scoped",
]
