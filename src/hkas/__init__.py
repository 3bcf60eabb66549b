"""Verify hierarchical key assignment schemes given as explicit joint
distributions with exact rational probabilities.

The package decides correctness, key indistinguishability against
forbidden coalitions (KI), the stronger variant where ancestors also
contribute their keys (SKI), and mutual key independence, and ships a
harness that validates the entropy identities connecting these notions
on generated scheme corpora.
"""

from .checks import (
    check_correctness,
    check_key_independence,
    check_ki,
    check_ski,
    run_checks,
)
from .dist import JointDistribution
from .errors import (
    CoalitionSpaceTooLarge,
    CycleDetected,
    DanglingEdge,
    DistributionError,
    DuplicateEdge,
    DuplicateInSequence,
    DuplicateLabel,
    DuplicateOutcome,
    EmptyGraph,
    EmptyVariableSet,
    ExprSyntaxError,
    GraphError,
    HkasError,
    InvalidArgument,
    InvalidLabel,
    InvalidLeak,
    OverlappingVariableSets,
    ParseError,
    PreconditionFailed,
    ProbabilityError,
    SelfLoop,
    SupportTooLarge,
    TheoremViolation,
    UnknownClass,
    UnknownVariable,
    UnsupportedValue,
    VariableMismatch,
)
from .expr import EntropyExpr, evaluate_entropy_expr, parse_entropy_expr
from .generate import (
    SplitMix64,
    gen_correlated,
    gen_leaky,
    gen_random_correct,
    gen_trivial,
)
from .graph import AccessGraph, graph_from_json, graph_to_json, validate_graph
from .harness import (
    build_corpus,
    run_validation,
    verify_conditional_identities,
    verify_equivalence,
    verify_independence_sum,
    verify_main_theorem_sequence,
)
from .scheme import (
    CheckReport,
    Scheme,
    Witness,
    key_var,
    load_scheme,
    load_scheme_file,
    max_support_size,
    scheme_to_json,
    secret_var,
    serialize_scheme,
    write_scheme,
)

__version__ = "0.1.0"

__all__ = [
    "AccessGraph",
    "CheckReport",
    "CoalitionSpaceTooLarge",
    "CycleDetected",
    "DanglingEdge",
    "DistributionError",
    "DuplicateEdge",
    "DuplicateInSequence",
    "DuplicateLabel",
    "DuplicateOutcome",
    "EmptyGraph",
    "EmptyVariableSet",
    "EntropyExpr",
    "ExprSyntaxError",
    "GraphError",
    "HkasError",
    "InvalidArgument",
    "InvalidLabel",
    "InvalidLeak",
    "JointDistribution",
    "OverlappingVariableSets",
    "ParseError",
    "PreconditionFailed",
    "ProbabilityError",
    "Scheme",
    "SelfLoop",
    "SplitMix64",
    "SupportTooLarge",
    "TheoremViolation",
    "UnknownClass",
    "UnknownVariable",
    "UnsupportedValue",
    "VariableMismatch",
    "Witness",
    "build_corpus",
    "check_correctness",
    "check_key_independence",
    "check_ki",
    "check_ski",
    "evaluate_entropy_expr",
    "gen_correlated",
    "gen_leaky",
    "gen_random_correct",
    "gen_trivial",
    "graph_from_json",
    "graph_to_json",
    "key_var",
    "load_scheme",
    "load_scheme_file",
    "max_support_size",
    "parse_entropy_expr",
    "run_checks",
    "run_validation",
    "scheme_to_json",
    "secret_var",
    "serialize_scheme",
    "validate_graph",
    "verify_conditional_identities",
    "verify_equivalence",
    "verify_independence_sum",
    "verify_main_theorem_sequence",
    "write_scheme",
]
