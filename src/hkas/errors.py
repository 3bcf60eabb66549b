"""Typed errors raised across the package.

Every error raised by hkas derives from HkasError so callers can catch the
whole family at an API boundary (the CLI maps them to exit code 2, except
TheoremViolation which signals a failed validation run).
"""

from __future__ import annotations


class HkasError(Exception):
    """Base class for all errors raised by this package."""


class GraphError(HkasError):
    """Base class for access-graph construction and query errors."""


class DuplicateLabel(GraphError):
    """A class label appears more than once in the class list."""


class InvalidLabel(GraphError):
    """A class label is empty or contains a reserved character."""


class DuplicateEdge(GraphError):
    """The same directed edge is listed more than once."""


class SelfLoop(GraphError):
    """An edge connects a class to itself."""


class DanglingEdge(GraphError):
    """An edge endpoint is not a declared class."""


class EmptyGraph(GraphError):
    """The graph declares no classes at all."""


class CycleDetected(GraphError):
    """The edge relation admits a directed cycle."""

    def __init__(self, cycle: tuple[str, ...]) -> None:
        self.cycle = tuple(cycle)
        super().__init__("cycle detected: " + " -> ".join(self.cycle))


class UnknownClass(GraphError):
    """A queried label is not a class of the graph."""


class DuplicateInSequence(GraphError):
    """A class appears twice in a sequence that must be duplicate free."""


class DistributionError(HkasError):
    """Base class for joint-distribution construction and query errors."""


class ProbabilityError(DistributionError):
    """A probability is malformed, non-positive, or the total is not one."""


class DuplicateOutcome(DistributionError):
    """Two support rows carry the same assignment."""


class UnknownVariable(DistributionError):
    """A queried variable is not part of the distribution."""


class EmptyVariableSet(DistributionError):
    """An operation that needs at least one variable received none."""


class OverlappingVariableSets(DistributionError):
    """Variable sets that must be disjoint share a variable."""


class InvalidArgument(HkasError, ValueError):
    """A library call received an out-of-range argument, such as q < 2."""


class ParseError(HkasError):
    """An input document is structurally malformed."""


class VariableMismatch(HkasError):
    """A scheme's variables do not match its graph's classes."""


class InvalidCoalition(HkasError):
    """A coalition query names classes outside the allowed sets."""


class SupportTooLarge(HkasError):
    """A support would exceed the configured size bound."""


class InvalidLeak(HkasError):
    """A leak configuration pairs classes that the graph does not permit."""


class CoalitionSpaceTooLarge(HkasError):
    """An exhaustive check would enumerate too many coalitions."""


class ExprSyntaxError(HkasError):
    """An entropy expression failed to parse.

    Carries the zero-based character position of the offending token.
    """

    def __init__(self, message: str, position: int) -> None:
        self.position = position
        super().__init__(f"{message} (at position {position})")


class PreconditionFailed(HkasError):
    """A theorem-harness precondition does not hold for the given scheme."""


class TheoremViolation(HkasError):
    """An identity the harness verifies failed outside tolerance.

    Carries enough context to reproduce the failure: a human-readable
    message and, when available, the serialized scheme.
    """

    def __init__(self, message: str, scheme_json: str | None = None) -> None:
        self.scheme_json = scheme_json
        super().__init__(message)
