"""Disjunctive hybrid probability logic programs with probability aggregates.

The pipeline: parse_program reads the surface syntax, ground_program
instantiates it over its own constants, and enumerate_answer_sets lists
the minimal probability models of the reduct, the p-model check's fired
rules: reduct(gp, satisfies_program(gp, h)).  translate_dlp embeds
classical disjunctive programs with every annotation pinned to [1,1].
"""

from .errors import (
    DhppError,
    InvalidInterval,
    NonExpansiveStrategy,
    ParseError,
    SearchSpaceOverflow,
    TooLarge,
    UniverseOverflow,
    UnsafeVariable,
    UnsupportedConstruct,
)
from .model import (
    ONE,
    ZERO,
    AggregateAtom,
    Atom,
    GroundPair,
    GroundSet,
    HybridFormula,
    PInterpretation,
    ProbInterval,
    Program,
    Rule,
    ValueInterval,
    format_rational,
    interp_leq,
    interp_lt,
    truth_leq,
    truth_lt,
)
from .strategies import PStrategy, StrategyRegistry, builtin_registry, compose_fold
from .aggregates import UNDEFINED, EValue, PValue, eval_aggregate
from .parser import parse_annotation_item, parse_formula, parse_program
from .grounder import GroundProgram, ground_program
from .semantics import SatisfactionReport, reduct, satisfies_program
from .solver import (
    AnswerSetResult,
    enumerate_answer_sets,
    find_smaller_model,
    is_answer_set,
    pairwise_incomparable,
)
from .classical import (
    ClassicalAggregate,
    ClassicalProgram,
    ClassicalRule,
    answer_set_atoms,
    classical_oracle,
    parse_classical,
    translate_dlp,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateAtom",
    "AnswerSetResult",
    "Atom",
    "ClassicalAggregate",
    "ClassicalProgram",
    "ClassicalRule",
    "DhppError",
    "EValue",
    "GroundPair",
    "GroundProgram",
    "GroundSet",
    "HybridFormula",
    "InvalidInterval",
    "NonExpansiveStrategy",
    "ONE",
    "PInterpretation",
    "PStrategy",
    "PValue",
    "ParseError",
    "ProbInterval",
    "Program",
    "Rule",
    "SatisfactionReport",
    "SearchSpaceOverflow",
    "StrategyRegistry",
    "TooLarge",
    "UNDEFINED",
    "UniverseOverflow",
    "UnsafeVariable",
    "UnsupportedConstruct",
    "ValueInterval",
    "ZERO",
    "answer_set_atoms",
    "builtin_registry",
    "classical_oracle",
    "compose_fold",
    "enumerate_answer_sets",
    "eval_aggregate",
    "find_smaller_model",
    "format_rational",
    "ground_program",
    "interp_leq",
    "interp_lt",
    "is_answer_set",
    "pairwise_incomparable",
    "parse_annotation_item",
    "parse_classical",
    "parse_formula",
    "parse_program",
    "reduct",
    "satisfies_program",
    "translate_dlp",
    "truth_leq",
    "truth_lt",
    "__version__",
]
