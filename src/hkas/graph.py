"""Access graphs for hierarchical key assignment.

An access graph is a finite DAG over class labels. A directed edge
(v, u) means v is above u: v may derive u's key from its own secret.
Accessibility is the reflexive-transitive closure of the edge relation.

For a class u the remaining classes split into two camps:

* forbidden_set(u): classes that cannot reach u (potential adversaries
  against u's key),
* ancestor_set(u): classes that can reach u, excluding u itself.

Together with {u} these partition the class set.
"""

from __future__ import annotations

import heapq
from functools import cached_property

from .errors import (
    CycleDetected,
    DanglingEdge,
    DuplicateEdge,
    DuplicateInSequence,
    DuplicateLabel,
    EmptyGraph,
    InvalidLabel,
    ParseError,
    SelfLoop,
    UnknownClass,
)
from .record import Record

# Characters that would collide with variable names or expression syntax.
_RESERVED_CHARS = set(":(),;| \t\r\n")


class AccessGraph(Record):
    """Immutable access graph; construct via from_json or build."""

    classes: tuple[str, ...]
    edges: frozenset[tuple[str, str]]

    def __post_init__(self) -> None:
        validate_graph(self)

    @staticmethod
    def build(classes: tuple[str, ...] | list[str],
              edges: list[tuple[str, str]] | frozenset[tuple[str, str]]) -> "AccessGraph":
        """Build and validate a graph from raw class and edge lists."""
        edge_list = list(edges)
        if len(set(edge_list)) != len(edge_list):
            seen: set[tuple[str, str]] = set()
            for edge in edge_list:
                if edge in seen:
                    raise DuplicateEdge(f"edge {edge!r} listed more than once")
                seen.add(edge)
        return AccessGraph(tuple(classes), frozenset(edge_list))

    def _check_class(self, label: str) -> None:
        if label not in self.classes:
            raise UnknownClass(f"unknown class {label!r}")

    @cached_property
    def _closure(self) -> dict[str, frozenset[str]]:
        """accessible_set of every class, built once bottom-up in topological order.

        Not a record field, so equality and hashing ignore it.
        """
        closure: dict[str, frozenset[str]] = {}
        for node in reversed(self._toposort_restricted(set(self.classes))):
            reach = {node}
            for src, dst in self.edges:
                if src == node:
                    reach |= closure[dst]
            closure[node] = frozenset(reach)
        return closure

    def accessible_set(self, v: str) -> frozenset[str]:
        """All classes whose keys v can derive, including v itself."""
        self._check_class(v)
        return self._closure[v]

    def forbidden_set(self, u: str) -> frozenset[str]:
        """Classes that cannot access u: every v with u not in accessible_set(v)."""
        self._check_class(u)
        return frozenset(v for v, reach in self._closure.items() if u not in reach)

    def ancestor_set(self, u: str) -> frozenset[str]:
        """Classes other than u that can access u."""
        self._check_class(u)
        return frozenset(v for v, reach in self._closure.items() if v != u and u in reach)

    def partition_check(self, u: str) -> bool:
        """True iff {u}, forbidden_set(u), ancestor_set(u) partition the classes."""
        forbidden = self.forbidden_set(u)
        ancestors = self.ancestor_set(u)
        if u in forbidden or u in ancestors or forbidden & ancestors:
            return False
        return len(forbidden) + len(ancestors) + 1 == len(self.classes)

    def topological_sort(self) -> tuple[str, ...]:
        """Kahn's algorithm; ties broken by smallest label first.

        Higher classes come before the classes they can access.
        """
        return self._toposort_restricted(set(self.classes))

    def _toposort_restricted(self, nodes: set[str]) -> tuple[str, ...]:
        indegree = {label: 0 for label in nodes}
        succ: dict[str, list[str]] = {label: [] for label in nodes}
        for src, dst in self.edges:
            if src in nodes and dst in nodes:
                succ[src].append(dst)
                indegree[dst] += 1
        ready = [label for label, deg in indegree.items() if deg == 0]
        heapq.heapify(ready)
        order: list[str] = []
        while ready:
            node = heapq.heappop(ready)
            order.append(node)
            for nxt in sorted(succ[node]):
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    heapq.heappush(ready, nxt)
        if len(order) != len(nodes):
            raise CycleDetected(self._find_cycle(nodes - set(order)))
        return tuple(order)

    def _find_cycle(self, remaining: set[str]) -> tuple[str, ...]:
        # Every remaining node keeps a predecessor inside the remainder, so
        # walking predecessors must revisit a node and close a cycle.
        pred: dict[str, str] = {}
        for src, dst in sorted(self.edges):
            if src in remaining and dst in remaining and dst not in pred:
                pred[dst] = src
        start = min(remaining)
        trail = [start]
        seen = {start}
        node = start
        while True:
            node = pred[node]
            if node in seen:
                break
            seen.add(node)
            trail.append(node)
        cycle = trail[trail.index(node):]
        cycle.reverse()
        smallest = cycle.index(min(cycle))
        return tuple(cycle[smallest:] + cycle[:smallest])

    def is_well_ordered(self, seq: tuple[str, ...] | list[str]) -> bool:
        """True iff each class is preceded only by members of its forbidden set.

        The empty sequence is not well ordered; duplicates and unknown
        labels are rejected with typed errors.
        """
        labels = tuple(seq)
        if not labels:
            return False
        seen: set[str] = set()
        for label in labels:
            self._check_class(label)
            if label in seen:
                raise DuplicateInSequence(f"class {label!r} repeats in sequence")
            seen.add(label)
        closure = self._closure
        return not any(
            labels[j] in closure[v] for j in range(1, len(labels)) for v in labels[:j]
        )

    def well_ordered_all(self) -> tuple[str, ...]:
        """A well-ordered sequence covering every class: reversed toposort."""
        return tuple(reversed(self.topological_sort()))

    def theorem_sequence(self, u: str) -> tuple[str, ...]:
        """Well-ordered sequence (forbidden_set(u)..., u, ancestor_set(u)...).

        The forbidden and ancestor parts are reversed toposorts of the
        induced subgraphs, so the whole sequence is well ordered and u
        sits at position len(forbidden_set(u)) + 1.
        """
        self._check_class(u)
        forbidden_part = tuple(reversed(self._toposort_restricted(set(self.forbidden_set(u)))))
        ancestor_part = tuple(reversed(self._toposort_restricted(set(self.ancestor_set(u)))))
        return forbidden_part + (u,) + ancestor_part


def validate_graph(graph: AccessGraph) -> None:
    """Check every structural invariant; raise a typed error on the first hit."""
    if not graph.classes:
        raise EmptyGraph("graph declares no classes")
    seen: set[str] = set()
    for label in graph.classes:
        if not isinstance(label, str) or not label:
            raise InvalidLabel(f"class label must be a non-empty string, got {label!r}")
        if _RESERVED_CHARS & set(label):
            raise InvalidLabel(f"class label {label!r} contains a reserved character")
        if label in seen:
            raise DuplicateLabel(f"class {label!r} declared more than once")
        seen.add(label)
    for src, dst in sorted(graph.edges):
        if src not in seen:
            raise DanglingEdge(f"edge source {src!r} is not a declared class")
        if dst not in seen:
            raise DanglingEdge(f"edge target {dst!r} is not a declared class")
        if src == dst:
            raise SelfLoop(f"edge {src!r} -> {dst!r} is a self loop")
    graph._toposort_restricted(set(graph.classes))


def graph_from_json(doc: object) -> AccessGraph:
    """Build a validated graph from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise ParseError("graph document must be a JSON object")
    unknown = set(doc) - {"classes", "edges"}
    if unknown:
        raise ParseError(f"unexpected graph keys: {sorted(unknown)}")
    classes = doc.get("classes")
    if not isinstance(classes, list) or not all(isinstance(c, str) for c in classes):
        raise ParseError("graph 'classes' must be a list of strings")
    raw_edges = doc.get("edges", [])
    if not isinstance(raw_edges, list):
        raise ParseError("graph 'edges' must be a list of [src, dst] pairs")
    edges: list[tuple[str, str]] = []
    for item in raw_edges:
        if (not isinstance(item, list) or len(item) != 2
                or not all(isinstance(part, str) for part in item)):
            raise ParseError(f"malformed edge {item!r}; expected [src, dst]")
        edges.append((item[0], item[1]))
    return AccessGraph.build(classes, edges)


def graph_to_json(graph: AccessGraph) -> dict:
    """Serialize a graph; edges come out sorted for determinism."""
    return {
        "classes": list(graph.classes),
        "edges": [list(edge) for edge in sorted(graph.edges)],
    }
