"""Schemes: a joint distribution over the keys and secrets of a graph.

A scheme for access graph G assigns each class u two random variables,
the key "K:u" and the secret "S:u", and gives their joint distribution
explicitly. The distribution's variable set must match the graph's
classes exactly: one key and one secret per class, nothing else.

Scheme documents are JSON objects {"graph": ..., "support": [...]} or
{"graph_file": "path", "support": [...]}; each support row is
{"assignment": {"K:a": 0, "S:a": [...], ...}, "p": "1/8"}.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

from .dist import JointDistribution
from .errors import InvalidCoalition, ParseError, SupportTooLarge, VariableMismatch
from .graph import AccessGraph, graph_from_json, graph_to_json
from .jsonutil import (
    Value,
    dumps_canonical,
    parse_prob,
    prob_str,
    value_from_json,
    value_to_json,
)

MAX_SUPPORT_ENV = "HKAS_MAX_SUPPORT"
DEFAULT_MAX_SUPPORT = 1_000_000


def max_support_size() -> int:
    """Support-size bound, configurable via the HKAS_MAX_SUPPORT env var."""
    raw = os.environ.get(MAX_SUPPORT_ENV)
    if raw is None:
        return DEFAULT_MAX_SUPPORT
    try:
        bound = int(raw)
    except ValueError:
        raise ParseError(f"{MAX_SUPPORT_ENV} must be an integer, got {raw!r}") from None
    if bound < 1:
        raise ParseError(f"{MAX_SUPPORT_ENV} must be positive, got {raw!r}")
    return bound


def key_var(label: str) -> str:
    return "K:" + label


def secret_var(label: str) -> str:
    return "S:" + label


@dataclass(frozen=True)
class Scheme:
    """A validated access graph plus the joint key/secret distribution."""

    graph: AccessGraph
    dist: JointDistribution

    def __post_init__(self) -> None:
        expected = {key_var(u) for u in self.graph.classes}
        expected |= {secret_var(u) for u in self.graph.classes}
        actual = set(self.dist.variables)
        if actual != expected:
            extra = sorted(actual - expected)
            missing = sorted(expected - actual)
            raise VariableMismatch(
                f"distribution variables do not match graph classes: "
                f"extra {extra}, missing {missing}"
            )


@dataclass(frozen=True)
class CoalitionQuery:
    """A question about one target key given held secrets and keys.

    secrets_held must lie in forbidden_set(target); keys_held must lie
    in ancestor_set(target).
    """

    target: str
    secrets_held: frozenset[str] = field(default_factory=frozenset)
    keys_held: frozenset[str] = field(default_factory=frozenset)


def scheme_query_entropy(scheme: Scheme, query: CoalitionQuery) -> float:
    """H(K:target | held secrets, held keys) for a valid coalition."""
    graph = scheme.graph
    graph._check_class(query.target)
    forbidden = graph.forbidden_set(query.target)
    ancestors = graph.ancestor_set(query.target)
    for label in sorted(query.secrets_held):
        graph._check_class(label)
        if label not in forbidden:
            raise InvalidCoalition(
                f"class {label!r} is not in the forbidden set of {query.target!r}"
            )
    for label in sorted(query.keys_held):
        graph._check_class(label)
        if label not in ancestors:
            raise InvalidCoalition(
                f"class {label!r} is not in the ancestor set of {query.target!r}"
            )
    givens = [secret_var(v) for v in query.secrets_held]
    givens += [key_var(w) for w in query.keys_held]
    return scheme.dist.conditional_entropy([key_var(query.target)], givens)


@dataclass(frozen=True)
class Witness:
    """One counterexample to a check: the class and the coalition that broke it."""

    cls: str
    secrets: tuple[str, ...]
    keys: tuple[str, ...]
    h_key: float
    h_key_given: float

    def to_json(self) -> dict:
        return {
            "class": self.cls,
            "secrets": list(self.secrets),
            "keys": list(self.keys),
            "h_key": self.h_key,
            "h_key_given": self.h_key_given,
        }


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one check over a whole scheme."""

    kind: str
    passed: bool
    witnesses: tuple[Witness, ...]

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "passed": self.passed,
            "witnesses": [w.to_json() for w in self.witnesses],
        }


def _parse_support(doc: object) -> list[tuple[dict[str, Value], Fraction]]:
    if not isinstance(doc, list) or not doc:
        raise ParseError("scheme 'support' must be a non-empty list")
    if len(doc) > max_support_size():
        raise SupportTooLarge(
            f"support has {len(doc)} rows, bound is {max_support_size()}"
        )
    rows: list[tuple[dict[str, Value], Fraction]] = []
    for i, item in enumerate(doc):
        if not isinstance(item, dict) or set(item) != {"assignment", "p"}:
            raise ParseError(
                f"support row {i} must be an object with keys 'assignment' and 'p'"
            )
        raw_assignment = item["assignment"]
        if not isinstance(raw_assignment, dict):
            raise ParseError(f"support row {i}: 'assignment' must be an object")
        assignment = {
            str(var): value_from_json(raw) for var, raw in raw_assignment.items()
        }
        rows.append((assignment, parse_prob(item["p"])))
    return rows


def load_scheme(scheme_doc: object, graph_doc: object | None = None) -> Scheme:
    """Build a validated Scheme from parsed JSON documents.

    The scheme document may embed its graph under "graph"; a separately
    supplied graph_doc is used when it does not. If both are present and
    disagree, the embedded graph wins and a warning is emitted. A
    "graph_file" reference must be resolved by the caller (the file
    loader does this); it cannot be resolved here.
    """
    if not isinstance(scheme_doc, dict):
        raise ParseError("scheme document must be a JSON object")
    unknown = set(scheme_doc) - {"graph", "graph_file", "support"}
    if unknown:
        raise ParseError(f"unexpected scheme keys: {sorted(unknown)}")
    embedded = scheme_doc.get("graph")
    graph: AccessGraph | None = None
    if embedded is not None:
        graph = graph_from_json(embedded)
        if graph_doc is not None:
            other = graph_from_json(graph_doc)
            if other != graph:
                warnings.warn(
                    "scheme embeds a graph that differs from the supplied one; "
                    "using the embedded graph",
                    stacklevel=2,
                )
    elif graph_doc is not None:
        graph = graph_from_json(graph_doc)
    elif "graph_file" in scheme_doc:
        raise ParseError(
            "scheme references a graph_file; resolve it and pass graph_doc"
        )
    else:
        raise ParseError("scheme needs an embedded 'graph' or a supplied graph")
    if "support" not in scheme_doc:
        raise ParseError("scheme document is missing 'support'")
    rows = _parse_support(scheme_doc["support"])
    return Scheme(graph=graph, dist=JointDistribution.from_rows(rows))


def load_scheme_file(path: str, graph_path: str | None = None) -> Scheme:
    """Load a scheme from disk, resolving graph_file relative to the scheme."""
    scheme_doc = load_json_file(path)
    graph_doc = None
    if graph_path is None and isinstance(scheme_doc, dict):
        ref = scheme_doc.get("graph_file")
        if ref is not None:
            if not isinstance(ref, str):
                raise ParseError("'graph_file' must be a path string")
            graph_path = os.path.join(os.path.dirname(os.path.abspath(path)), ref)
    if graph_path is not None:
        graph_doc = load_json_file(graph_path)
    return load_scheme(scheme_doc, graph_doc)


def load_json_file(path: str) -> object:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: {exc}") from None


def scheme_to_json(scheme: Scheme) -> dict:
    """Serialize with the graph embedded; rows in canonical order."""
    support = [
        {
            "assignment": {var: value_to_json(val) for var, val in assignment.items()},
            "p": prob_str(p),
        }
        for assignment, p in scheme.dist.rows()
    ]
    return {"graph": graph_to_json(scheme.graph), "support": support}


def serialize_scheme(scheme: Scheme) -> str:
    """Canonical JSON text; loading it back reproduces an equal Scheme."""
    return dumps_canonical(scheme_to_json(scheme))
