"""Canonical output, byte for byte against the reference encoder in
conftest: schemes, goldens and the CLI's check, entropy and validate
documents."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from conftest import (
    DATA_DIR,
    make_antichain4,
    make_chain4,
    make_diamond,
    make_random_dag,
    reference_dumps,
    reference_serialize_scheme,
)
import hkas.scheme
from hkas import (
    AccessGraph,
    JointDistribution,
    Scheme,
    evaluate_entropy_expr,
    gen_correlated,
    gen_leaky,
    gen_random_correct,
    gen_trivial,
    load_scheme,
    load_scheme_file,
    run_checks,
    run_validation,
    scheme_to_json,
    serialize_scheme,
)
from hkas.cli import main
from hkas.graph import graph_to_json
from hkas.scheme import key_var, secret_var

SHAPES = {"diamond": make_diamond, "chain4": make_chain4, "antichain4": make_antichain4}


def _assert_canonical(scheme) -> None:
    text = serialize_scheme(scheme)
    assert text == reference_serialize_scheme(scheme)
    assert load_scheme(json.loads(text)) == scheme
    assert load_scheme(scheme_to_json(scheme)) == scheme


@pytest.mark.parametrize("name", ["golden-random-q2-s42.json", "golden-random-q2-s2.json"])
def test_goldens_match_reference(name):
    path = DATA_DIR / name
    scheme = load_scheme_file(str(path))
    _assert_canonical(scheme)
    assert serialize_scheme(scheme).encode() == path.read_bytes()


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("q", [2, 3])
def test_every_gen_kind_matches_reference(shape, q):
    graph = SHAPES[shape]()
    labels = sorted(graph.classes)
    target = next(u for u in labels if graph.forbidden_set(u))
    leaker = sorted(graph.forbidden_set(target))[0]
    for scheme in (gen_trivial(graph, q),
                   gen_leaky(graph, q, target, leaker),
                   gen_correlated(graph, q, labels[0], labels[-1]),
                   gen_random_correct(graph, q, 0),
                   gen_random_correct(graph, q, 1)):
        _assert_canonical(scheme)


def test_random_dag_schemes_match_reference():
    rng = random.Random(8)
    for seed in range(30):
        graph = make_random_dag(rng, max_nodes=4)
        _assert_canonical(gen_random_correct(graph, rng.choice([2, 3]), seed))


HOSTILE_LABELS = ["é", "ab\u2028", "ÿy"]
HOSTILE_VALUES = [0, -1, 10 ** 40, "", "é", 'q"\n\t', (), ((),), (("a", ()), -7),
                  ((((0,),),),)]


def test_hostile_schemes_match_reference():
    """Escapes (quotes, control characters, U+2028, non-ASCII labels and
    values), empty and nested arrays and big ints at every place a row
    template puts a value, over schemes of 1 to 6 rows with several
    distinct probabilities."""
    rng = random.Random(10)
    for _ in range(40):
        labels = rng.sample(HOSTILE_LABELS, rng.randint(1, 3))
        edges = [(u, v) for i, u in enumerate(labels) for v in labels[i + 1:]
                 if rng.random() < 0.5]
        graph = AccessGraph.build(labels, edges)
        names = [var(u) for u in labels for var in (key_var, secret_var)]
        outcomes = {}
        for _ in range(rng.randint(1, 6)):
            assignment = {var: rng.choice(HOSTILE_VALUES) for var in names}
            outcomes[json.dumps(assignment, sort_keys=True)] = assignment
        weights = [rng.randint(1, 5) for _ in outcomes]
        rows = [(assignment, Fraction(w, sum(weights)))
                for assignment, w in zip(outcomes.values(), weights)]
        _assert_canonical(Scheme(graph=graph, dist=JointDistribution.from_rows(rows)))


def test_serialize_encodes_each_distinct_value_once(monkeypatch):
    """Encoding work is per distinct (variable, value) pair, not per row:
    one fragment per pair, plus one for the graph."""
    labels = ["n0", "n1", "n2", "n3", "n4", "n5"]
    graph = AccessGraph.build(labels, [("n0", "n1"), ("n0", "n2"), ("n1", "n3"),
                                       ("n2", "n3"), ("n4", "n5")])
    scheme = gen_leaky(graph, 3, "n3", "n4")
    calls = 0
    encode = hkas.scheme.dumps_at

    def counted(value, depth):
        nonlocal calls
        calls += 1
        return encode(value, depth)

    monkeypatch.setattr(hkas.scheme, "dumps_at", counted)
    text = serialize_scheme(scheme)
    pairs = {(var, json.dumps(value)) for assignment, _ in scheme.dist.rows()
             for var, value in assignment.items()}
    assert scheme.dist.support_size() == 729
    assert calls <= len(pairs) + 1
    assert text == reference_serialize_scheme(scheme)


def _raw_report(report) -> dict:
    """A check report with its witness floats as computed, not rounded."""
    return {
        "kind": report.kind,
        "passed": report.passed,
        "witnesses": [
            {"class": w.cls, "secrets": w.secrets, "keys": w.keys,
             "h_key": w.h_key, "h_key_given": w.h_key_given}
            for w in report.witnesses
        ],
    }


def _stdout(capsys, argv: list[str]) -> str:
    main(argv)
    return capsys.readouterr().out


@pytest.mark.parametrize("q", [2, 3])
def test_cli_documents_match_reference(capsys, tmp_path, q):
    graph = make_diamond()
    graph_path = tmp_path / "diamond.json"
    graph_path.write_text(json.dumps(graph_to_json(graph)))
    for scheme in (gen_trivial(graph, q), gen_leaky(graph, q, "a", "b"),
                   gen_correlated(graph, q, "a", "r"), gen_random_correct(graph, q, 5)):
        path = tmp_path / "scheme.json"
        path.write_text(serialize_scheme(scheme))
        for mode in ("correctness", "ki", "ski", "key-indep", "all"):
            for exhaustive in (False, True):
                reports = run_checks(scheme, mode, exhaustive)
                if len(reports) == 1:
                    doc: object = _raw_report(reports[0])
                else:
                    doc = {"passed": all(r.passed for r in reports),
                           "reports": [_raw_report(r) for r in reports]}
                argv = ["check", "--scheme", str(path), "--mode", mode, "--json"]
                assert _stdout(capsys, argv + ["--exhaustive"] * exhaustive) \
                    == reference_dumps(doc)
        for expr in ("H(K:a)", "H(K:a | S:b)", "I(K:a ; S:b)", "H(K:c | S:a, S:b)"):
            doc = {"expr": expr, "value": evaluate_entropy_expr(scheme, expr)}
            argv = ["entropy", "--scheme", str(path), "--expr", expr, "--json"]
            assert _stdout(capsys, argv) == reference_dumps(doc)
    for seed in (0, 3):
        doc = run_validation(graph, q, 10, seed)
        argv = ["validate", "--graph", str(graph_path), "--q", str(q),
                "--trials", "10", "--seed", str(seed), "--json"]
        assert _stdout(capsys, argv) == reference_dumps(doc)
