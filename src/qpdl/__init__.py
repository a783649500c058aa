"""Exact model checker for a dynamic logic of quantum programs.

Formulas and programs over n qubits are parsed from ASCII text,
interpreted over rays and subspaces with Gaussian-rational arithmetic,
and decided without any floating point.
"""

from .ast import Formula, Program
from .checker import (
    Environment,
    InstanceResult,
    check_schematic,
    check_state,
    check_valid,
    denote_program,
    eq_component,
    eval_symbolic,
    substitute,
)
from .desugar import desugar_formula, desugar_program
from .errors import (
    CheckError,
    InputError,
    NonDeterministicProgram,
    SpatialAtomInSymbolicMode,
    UnboundVariable,
    UnsupportedNesting,
    UnsupportedShape,
)
from .frame import (
    BadIndex,
    Frame,
    PartialMap,
    Subspace,
    format_state,
    parse_state,
)
from .linalg import GaussianRational, Matrix
from .parser import ParseError, parse_formula, parse_program
from .regions import Region

__all__ = [
    "BadIndex",
    "CheckError",
    "Environment",
    "Formula",
    "Frame",
    "GaussianRational",
    "InputError",
    "InstanceResult",
    "Matrix",
    "NonDeterministicProgram",
    "ParseError",
    "PartialMap",
    "Program",
    "Region",
    "SpatialAtomInSymbolicMode",
    "Subspace",
    "UnboundVariable",
    "UnsupportedNesting",
    "UnsupportedShape",
    "check_schematic",
    "check_state",
    "check_valid",
    "denote_program",
    "desugar_formula",
    "desugar_program",
    "eq_component",
    "eval_symbolic",
    "format_state",
    "parse_formula",
    "parse_program",
    "parse_state",
    "substitute",
]
