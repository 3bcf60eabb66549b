"""Verify hierarchical key assignment schemes given as explicit joint
distributions with exact rational probabilities.

The package decides correctness, key indistinguishability against
forbidden coalitions (KI), the stronger variant where ancestors also
contribute their keys (SKI), and mutual key independence, and ships a
harness that validates the entropy identities connecting these notions
on generated scheme corpora.

Each public name is resolved on first use (PEP 562), importing only the
module that defines it, so a command that never generates or validates
never imports the generators or the harness.
"""

import importlib

__version__ = "0.1.0"

# Each public name, and the module of hkas that defines it.
_EXPORTS = {
    **dict.fromkeys([
        "check_correctness", "check_key_independence", "check_ki", "check_ski",
        "run_checks",
    ], "checks"),
    "JointDistribution": "dist",
    **dict.fromkeys([
        "CoalitionSpaceTooLarge", "CycleDetected", "DanglingEdge", "DistributionError",
        "DuplicateEdge", "DuplicateInSequence", "DuplicateLabel", "DuplicateOutcome",
        "EmptyGraph", "EmptyVariableSet", "ExprSyntaxError", "GraphError", "HkasError",
        "InvalidArgument", "InvalidLabel", "InvalidLeak", "OverlappingVariableSets",
        "ParseError", "PreconditionFailed", "ProbabilityError", "SelfLoop",
        "SupportTooLarge", "TheoremViolation", "UnknownClass", "UnknownVariable",
        "UnsupportedValue", "VariableMismatch",
    ], "errors"),
    **dict.fromkeys(["EntropyExpr", "evaluate_entropy_expr", "parse_entropy_expr"], "expr"),
    **dict.fromkeys([
        "SplitMix64", "gen_correlated", "gen_leaky", "gen_random_correct", "gen_trivial",
    ], "generate"),
    **dict.fromkeys([
        "AccessGraph", "graph_from_json", "graph_to_json", "validate_graph",
    ], "graph"),
    **dict.fromkeys([
        "build_corpus", "run_validation", "verify_conditional_identities",
        "verify_equivalence", "verify_independence_sum", "verify_main_theorem_sequence",
    ], "harness"),
    **dict.fromkeys([
        "CheckReport", "Scheme", "Witness", "key_var", "load_scheme", "load_scheme_file",
        "max_support_size", "scheme_to_json", "secret_var", "serialize_scheme",
        "write_scheme",
    ], "scheme"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> object:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module("." + _EXPORTS[name], __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
