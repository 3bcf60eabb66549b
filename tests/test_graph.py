"""Access graph semantics, checked against an independent DFS oracle."""

from __future__ import annotations

import gc
import random
import tracemalloc

import pytest

from conftest import make_random_dag
from hkas import (
    AccessGraph,
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
    graph_from_json,
    graph_to_json,
    validate_graph,
)


def oracle_reachable(graph: AccessGraph, start: str) -> frozenset[str]:
    """Recursive DFS over the raw edge list; independent of the library."""
    succ: dict[str, list[str]] = {label: [] for label in graph.classes}
    for src, dst in graph.edges:
        succ[src].append(dst)
    seen: set[str] = set()

    def visit(node: str) -> None:
        if node in seen:
            return
        seen.add(node)
        for nxt in succ[node]:
            visit(nxt)

    visit(start)
    return frozenset(seen)


def oracle_toposort(graph: AccessGraph) -> tuple[str, ...]:
    """Naive Kahn variant: scan for the smallest zero-indegree label."""
    remaining = set(graph.classes)
    order = []
    while remaining:
        ready = sorted(
            node for node in remaining
            if not any(dst == node and src in remaining
                       for src, dst in graph.edges)
        )
        assert ready, "cycle in supposedly acyclic test graph"
        order.append(ready[0])
        remaining.remove(ready[0])
    return tuple(order)


def test_diamond_sets(diamond):
    assert sorted(diamond.accessible_set("r")) == ["a", "b", "c", "r"]
    assert sorted(diamond.accessible_set("a")) == ["a", "c"]
    assert sorted(diamond.accessible_set("b")) == ["b", "c"]
    assert sorted(diamond.accessible_set("c")) == ["c"]
    assert sorted(diamond.forbidden_set("a")) == ["b", "c"]
    assert sorted(diamond.forbidden_set("r")) == ["a", "b", "c"]
    assert sorted(diamond.forbidden_set("c")) == []
    assert sorted(diamond.ancestor_set("a")) == ["r"]
    assert sorted(diamond.ancestor_set("c")) == ["a", "b", "r"]
    assert sorted(diamond.ancestor_set("r")) == []


def test_toposort_fixed_shapes(diamond, chain4, tree7, antichain4):
    assert diamond.topological_sort() == ("r", "a", "b", "c")
    assert chain4.topological_sort() == ("a", "b", "c", "d")
    assert tree7.topological_sort() == ("r", "a", "b", "c", "d", "e", "f")
    assert antichain4.topological_sort() == ("a", "b", "c", "d")
    assert diamond.well_ordered_all() == ("c", "b", "a", "r")


def test_theorem_sequence_diamond(diamond):
    assert diamond.theorem_sequence("a") == ("c", "b", "a", "r")
    assert diamond.theorem_sequence("r") == ("c", "b", "a", "r")
    assert diamond.theorem_sequence("c") == ("c", "b", "a", "r")
    seq = diamond.theorem_sequence("b")
    assert seq.index("b") == len(diamond.forbidden_set("b"))
    assert diamond.is_well_ordered(seq)


def test_random_dags_match_oracle():
    rng = random.Random(1337)
    for _ in range(100):
        graph = make_random_dag(rng, max_nodes=8)
        for v in graph.classes:
            reach = oracle_reachable(graph, v)
            assert graph.accessible_set(v) == reach
        for u in graph.classes:
            forbidden = frozenset(
                v for v in graph.classes if u not in oracle_reachable(graph, v)
            )
            ancestors = frozenset(
                v for v in graph.classes
                if v != u and u in oracle_reachable(graph, v)
            )
            assert graph.forbidden_set(u) == forbidden
            assert graph.ancestor_set(u) == ancestors
            assert graph.partition_check(u)


def test_toposort_properties_random():
    rng = random.Random(99)
    for _ in range(100):
        graph = make_random_dag(rng, max_nodes=8)
        order = graph.topological_sort()
        assert sorted(order) == sorted(graph.classes)
        position = {label: i for i, label in enumerate(order)}
        for src, dst in graph.edges:
            assert position[src] < position[dst]
        assert order == oracle_toposort(graph)


def test_well_ordered_sequences_random():
    rng = random.Random(4242)
    for _ in range(60):
        graph = make_random_dag(rng, max_nodes=8)
        assert graph.is_well_ordered(graph.well_ordered_all())
        for u in graph.classes:
            seq = graph.theorem_sequence(u)
            assert graph.is_well_ordered(seq)
            assert seq.index(u) == len(graph.forbidden_set(u))
            assert set(seq) == set(graph.classes)


def test_is_well_ordered_cases(diamond):
    assert not diamond.is_well_ordered(())
    assert diamond.is_well_ordered(("c",))
    assert diamond.is_well_ordered(("c", "b"))
    # r can access a, so r may not precede a
    assert not diamond.is_well_ordered(("r", "a"))
    assert not diamond.is_well_ordered(("a", "c"))
    with pytest.raises(DuplicateInSequence):
        diamond.is_well_ordered(("c", "c"))
    # a bad label anywhere is refused, even after the order has already failed
    for seq in (("c", "z"), ("c", ["a"]), (None,), ("a", "c", "z")):
        with pytest.raises(UnknownClass):
            diamond.is_well_ordered(seq)
    with pytest.raises(DuplicateInSequence):
        diamond.is_well_ordered(("a", "c", "c"))


def test_unknown_class_errors(diamond):
    for method in (diamond.accessible_set, diamond.forbidden_set,
                   diamond.ancestor_set, diamond.theorem_sequence):
        for label in ("nope", ["a"], None):
            with pytest.raises(UnknownClass):
                method(label)


def test_derivations_take_linear_memory():
    labels = [f"c{i}" for i in range(1000)]
    chain = AccessGraph.build(labels, list(zip(labels, labels[1:])))
    gc.collect()
    tracemalloc.start()
    try:
        for label in labels:
            chain.accessible_set(label)
            chain.forbidden_set(label)
            chain.ancestor_set(label)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"peak {peak} bytes"


def test_validate_graph_errors():
    with pytest.raises(EmptyGraph):
        validate_graph(AccessGraph((), frozenset()))
    with pytest.raises(DuplicateLabel):
        validate_graph(AccessGraph(("a", "a"), frozenset()))
    with pytest.raises(InvalidLabel):
        validate_graph(AccessGraph(("",), frozenset()))
    with pytest.raises(InvalidLabel):
        validate_graph(AccessGraph(("x:y",), frozenset()))
    with pytest.raises(SelfLoop):
        validate_graph(AccessGraph(("a",), frozenset({("a", "a")})))
    with pytest.raises(DanglingEdge, match="^edge target 'b' is not a declared class$"):
        validate_graph(AccessGraph(("a",), frozenset({("a", "b")})))
    with pytest.raises(DanglingEdge, match="^edge source 'b' is not a declared class$"):
        validate_graph(AccessGraph(("a",), frozenset({("b", "a")})))
    with pytest.raises(DuplicateEdge, match=r"^edge \('b', 'c'\) listed more than once$"):
        AccessGraph.build(["a", "b", "c"], [("a", "b"), ("b", "c"), ("b", "c")])
    # the constructor checks its own fields: no string taken as classes or
    # as an edge, no unhashable graph, no untyped error
    for classes, edges in (("ab", frozenset({"ab"})), (("a", "b"), [("a", "b")]),
                           (("a", "b"), frozenset({("a", "b", "a")})),
                           (("a", "b"), frozenset({("a", "b"), (1, "b")}))):
        with pytest.raises(ParseError, match="^graph (classes|edges) must be "):
            AccessGraph(classes, edges)


def test_cycle_detection():
    with pytest.raises(CycleDetected) as exc_info:
        AccessGraph.build(["a", "b"], [("a", "b"), ("b", "a")])
    cycle = exc_info.value.cycle
    assert set(cycle) == {"a", "b"}
    assert cycle[0] == "a"
    with pytest.raises(CycleDetected) as exc_info:
        AccessGraph.build(
            ["x", "y", "z", "w"],
            [("x", "y"), ("y", "z"), ("z", "x"), ("x", "w")],
        )
    assert set(exc_info.value.cycle) == {"x", "y", "z"}
    # b has two predecessors on cycles; the first edge into it, a -> b, names the cycle
    with pytest.raises(CycleDetected) as exc_info:
        AccessGraph.build(["a", "b", "c"], [("a", "b"), ("b", "a"), ("b", "c"), ("c", "b")])
    assert exc_info.value.cycle == ("a", "b")


def test_graph_json_round_trip(diamond):
    doc = graph_to_json(diamond)
    assert doc["classes"] == ["r", "a", "b", "c"]
    assert doc["edges"] == [["a", "c"], ["b", "c"], ["r", "a"], ["r", "b"]]
    assert graph_from_json(doc) == diamond


def test_graph_from_json_errors():
    with pytest.raises(ParseError):
        graph_from_json([])
    with pytest.raises(ParseError):
        graph_from_json({"classes": "abc"})
    with pytest.raises(ParseError):
        graph_from_json({"classes": ["a"], "edges": [["a"]]})
    with pytest.raises(ParseError):
        graph_from_json({"classes": ["a"], "edges": [["a", 3]]})
    with pytest.raises(ParseError):
        graph_from_json({"classes": ["a"], "nodes": []})
    with pytest.raises(ParseError, match=r"^graph 'edges' must be a list of \[src, dst\] pairs$"):
        graph_from_json({"classes": ["a"], "edges": {}})
    with pytest.raises(DuplicateEdge):
        graph_from_json({"classes": ["a", "b"],
                         "edges": [["a", "b"], ["a", "b"]]})
    # build checks the same edge shape for library callers, and takes a
    # list edge as the tuple it stores
    for edges in ([("a", "b"), ("a", 1)], [("a", "b"), ("b",)], [("a", "b"), "ab"]):
        with pytest.raises(ParseError, match=r"^malformed edge .*; expected \[src, dst\]$"):
            AccessGraph.build(["a", "b"], edges)
    with pytest.raises(DuplicateEdge):
        AccessGraph.build(["a", "b"], [["a", "b"], ("a", "b")])
    # ... and the same containers: no untyped error, no string taken as a list
    for classes, edges, field in ((["a"], None, "edges"), (None, [], "classes"),
                                  ("ab", [], "classes"), (["a", 1], [], "classes")):
        with pytest.raises(ParseError, match=f"^graph '{field}' must be a list of "):
            AccessGraph.build(classes, edges)
    pair = AccessGraph.build(["a", "b"], [["a", "b"]])
    assert pair.edges == frozenset({("a", "b")})
    assert AccessGraph.build(("a", "b"), (("a", "b"),)) == pair


def test_partition_check_single_node():
    graph = AccessGraph.build(["solo"], [])
    assert graph.partition_check("solo")
    assert graph.forbidden_set("solo") == frozenset()
    assert graph.ancestor_set("solo") == frozenset()
    assert graph.theorem_sequence("solo") == ("solo",)
