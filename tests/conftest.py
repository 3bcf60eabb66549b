"""Shared fixtures: the standard graph shapes, the CLI snapshot's writer
script and the parity-leak scheme it builds, a random DAG builder, a
support-scan counter, a counter of scheme files read through json, the
Fraction references for entropies, marginals and independence, the check
of a distribution's canonical form, a tuple that counts the walks over
its items, and the reference encoder for canonical JSON."""

from __future__ import annotations

import importlib.util
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import hkas.scheme
from hkas import AccessGraph, JointDistribution, Scheme
from hkas.graph import graph_to_json
from hkas.jsonutil import prob_str, round_float, value_sort_key

DATA_DIR = Path(__file__).parent / "data"

Rows = list[tuple[dict, Fraction]]

# The CLI snapshot's writer script, loaded as a module: its commands, and
# the parity-leak scheme it writes, which the checker tests share.
_spec = importlib.util.spec_from_file_location("cli_snapshot", DATA_DIR / "cli_snapshot.py")
cli_snapshot = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_snapshot)
make_parity_leak = cli_snapshot.parity_leak_scheme


def make_chain4() -> AccessGraph:
    return AccessGraph.build(
        ["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")]
    )


def make_diamond() -> AccessGraph:
    return AccessGraph.build(
        ["r", "a", "b", "c"],
        [("r", "a"), ("r", "b"), ("a", "c"), ("b", "c")],
    )


def make_tree7() -> AccessGraph:
    return AccessGraph.build(
        ["r", "a", "b", "c", "d", "e", "f"],
        [("r", "a"), ("r", "b"), ("a", "c"), ("a", "d"), ("b", "e"), ("b", "f")],
    )


def make_antichain4() -> AccessGraph:
    return AccessGraph.build(["a", "b", "c", "d"], [])


def make_dag8() -> AccessGraph:
    """The benchmark's eight-class DAG; n5 may not reach n3, so gen_leaky
    with target n3 and leaker n5 leaks."""
    return AccessGraph.build(
        [f"n{i}" for i in range(8)],
        [("n0", "n1"), ("n0", "n2"), ("n1", "n3"), ("n2", "n3"), ("n3", "n4"),
         ("n5", "n6"), ("n6", "n7"), ("n2", "n6")],
    )


def make_random_dag(rng: random.Random, max_nodes: int,
                    min_nodes: int = 1, edge_prob: float = 0.4) -> AccessGraph:
    """Random DAG: edges only go forward along a shuffled node order."""
    count = rng.randint(min_nodes, max_nodes)
    labels = [f"n{i}" for i in range(count)]
    order = labels[:]
    rng.shuffle(order)
    edges = []
    for i in range(count):
        for j in range(i + 1, count):
            if rng.random() < edge_prob:
                edges.append((order[i], order[j]))
    return AccessGraph.build(labels, edges)


@pytest.fixture
def chain4() -> AccessGraph:
    return make_chain4()


@pytest.fixture
def diamond() -> AccessGraph:
    return make_diamond()


@pytest.fixture
def tree7() -> AccessGraph:
    return make_tree7()


@pytest.fixture
def antichain4() -> AccessGraph:
    return make_antichain4()


def fraction_conditional_entropy(rows: list[tuple[dict, Fraction]],
                                 targets: list[str], givens: list[str]) -> float:
    """H(targets | givens) of support rows by the Fraction reference formula
    -sum float(p(t,g)) * log2(float(p(t,g) / p(g))); empty givens give H(targets)."""
    joint: dict[tuple, Fraction] = {}
    given: dict[tuple, Fraction] = {}
    for assignment, p in rows:
        gkey = tuple(assignment[var] for var in givens)
        key = gkey + tuple(assignment[var] for var in targets)
        joint[key] = joint.get(key, 0) + p
        given[gkey] = given.get(gkey, 0) + p
    cut = len(givens)
    return -math.fsum(
        float(p) * math.log2(float(p / given[key[:cut]])) for key, p in joint.items()
    ) + 0.0


def oracle_marginal(rows: Rows, variables: list[str]) -> dict[tuple, Fraction]:
    """The Fraction marginal of support rows on variables, in that order."""
    agg: dict[tuple, Fraction] = {}
    for assignment, p in rows:
        key = tuple(assignment[v] for v in variables)
        agg[key] = agg.get(key, Fraction(0)) + p
    return agg


def oracle_independent(rows: Rows, groups: list[list[str]]) -> bool:
    """p(x1, ..., xn) == p(x1) * ... * p(xn) on the whole product space."""
    margs = [oracle_marginal(rows, group) for group in groups]
    joint = oracle_marginal(rows, [var for group in groups for var in group])
    return all(
        joint.get(sum(parts, ()), 0) == math.prod(m[part] for m, part in zip(margs, parts))
        for parts in itertools.product(*margs)
    )


def assert_canonical_form(dist: JointDistribution) -> None:
    """The fields are the unique int-coded form: the variables and the
    rows' codes strictly increase, each variable's decoding strictly
    increases by value_sort_key with every code used, and the weights
    are positive and coprime."""
    assert all(a < b for a, b in itertools.pairwise(dist.variables))
    assert all(a < b for a, b in itertools.pairwise(dist.codes))
    assert len(dist.decoding) == len(dist.variables)
    for j, values in enumerate(dist.decoding):
        keys = [value_sort_key(value) for value in values]
        assert all(a < b for a, b in itertools.pairwise(keys))
        assert {row[j] for row in dist.codes} == set(range(len(values)))
    assert len(dist.weights) == len(dist.codes) and min(dist.weights) > 0
    assert math.gcd(*dist.weights) == 1


@pytest.fixture
def support_scans(monkeypatch) -> SimpleNamespace:
    """Counts the passes over a distribution's support made through
    JointDistribution._scan and _undetermined, the two primitives its
    queries scan with, and the rows those passes read. Reset the fields
    to count a stretch."""
    counter = SimpleNamespace(scans=0, rows=0)
    for name in ("_scan", "_undetermined"):
        def counted(self, *groups, scan=getattr(JointDistribution, name)):
            counter.scans += 1
            counter.rows += self.support_size()
            return scan(self, *groups)

        monkeypatch.setattr(JointDistribution, name, counted)
    return counter


@pytest.fixture
def fallbacks(monkeypatch) -> SimpleNamespace:
    """Counts the scheme files load_scheme_file reads through json and
    load_scheme, the path for every text serialize_scheme would not
    write; the others take the row template."""
    counter = SimpleNamespace(count=0)
    decode = hkas.scheme.load_scheme

    def counted(*args):
        counter.count += 1
        return decode(*args)

    monkeypatch.setattr(hkas.scheme, "load_scheme", counted)
    return counter


class Walked(tuple):
    """A tuple that counts, in Walked.walks, the walks over its items:
    json's encoder, dumps_at and value_sort_key all iterate a tuple to
    read it, and hashing or comparing one does not."""

    walks = 0

    def __iter__(self):
        Walked.walks += 1
        return super().__iter__()


def walked(value, copies: dict):
    """value with each tuple in it copied to a Walked. copies maps each
    copied tuple to its copy, by id, holding both, so tuples that share
    an object share its copy, and only those."""
    if not isinstance(value, tuple):
        return value
    if id(value) not in copies:
        copies[id(value)] = (value, Walked([walked(item, copies) for item in value]))
    return copies[id(value)][1]


def sub_tuples(values) -> dict[int, tuple]:
    """Every tuple object in values, the values included, by id."""
    found: dict[int, tuple] = {}
    stack = list(values)
    while stack:
        value = stack.pop()
        if isinstance(value, tuple) and id(value) not in found:
            found[id(value)] = value
            stack.extend(value)
    return found


def _reference_value(value):
    if isinstance(value, tuple):
        return [_reference_value(item) for item in value]
    return value


def _reference_normalise(obj):
    if isinstance(obj, Fraction):
        return prob_str(obj)
    if isinstance(obj, float):
        return round_float(obj)
    if isinstance(obj, dict):
        return {key: _reference_normalise(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_reference_normalise(item) for item in obj]
    return obj


def reference_dumps(doc) -> str:
    """The reference canonical encoder: copy the document, rendering
    Fractions as "num/den", rounding floats to 12 significant digits and
    turning tuples into lists, then json.dumps the copy. dumps_canonical
    and serialize_scheme must match it byte for byte."""
    return json.dumps(_reference_normalise(doc), sort_keys=True, indent=2) + "\n"


def reference_serialize_scheme(scheme: Scheme) -> str:
    """A scheme through the reference encoder, each value copied to lists."""
    support = [
        {
            "assignment": {var: _reference_value(val) for var, val in assignment.items()},
            "p": prob_str(p),
        }
        for assignment, p in scheme.dist.rows()
    ]
    return reference_dumps({"graph": graph_to_json(scheme.graph), "support": support})
