"""Checker verdicts and witnesses on fixtures with known behavior."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import make_random_dag
from hkas import (
    AccessGraph,
    CoalitionSpaceTooLarge,
    JointDistribution,
    Scheme,
    SplitMix64,
    check_correctness,
    check_key_independence,
    check_ki,
    check_ski,
    gen_correlated,
    gen_leaky,
    gen_random_correct,
    gen_trivial,
    run_checks,
)

TOL = 1e-9


def test_trivial_passes_everything(diamond):
    scheme = gen_trivial(diamond, 2)
    for report in run_checks(scheme, "all", exhaustive=True):
        assert report.passed, report.kind
        assert report.witnesses == ()


def test_leaky_verdicts(diamond):
    scheme = gen_leaky(diamond, 2, "a", "b")
    assert check_correctness(scheme).passed
    assert check_key_independence(scheme).passed

    maximal = check_ki(scheme)
    assert not maximal.passed
    assert [w.cls for w in maximal.witnesses] == ["a"]
    witness = maximal.witnesses[0]
    assert witness.secrets == ("b", "c")
    assert witness.keys == ()
    assert witness.h_key == pytest.approx(1.0, abs=TOL)
    assert witness.h_key_given == pytest.approx(0.0, abs=TOL)

    exhaustive = check_ki(scheme, exhaustive=True)
    assert not exhaustive.passed
    assert exhaustive.witnesses[0].cls == "a"
    assert exhaustive.witnesses[0].secrets == ("b",)

    ski = check_ski(scheme, exhaustive=True)
    assert not ski.passed
    assert ski.witnesses[0].cls == "a"
    assert ski.witnesses[0].secrets == ("b",)
    assert ski.witnesses[0].keys == ()


def test_correlated_verdicts(diamond):
    scheme = gen_correlated(diamond, 2, "a", "r")
    assert check_correctness(scheme).passed

    ki = check_ki(scheme, exhaustive=True)
    assert not ki.passed
    assert [(w.cls, w.secrets) for w in ki.witnesses] == [("r", ("a",))]

    ski = check_ski(scheme, exhaustive=True)
    assert not ski.passed
    # a falls to its ancestor's key alone: X empty, Y = {r}
    first = ski.witnesses[0]
    assert (first.cls, first.secrets, first.keys) == ("a", (), ("r",))

    indep = check_key_independence(scheme)
    assert not indep.passed
    assert indep.witnesses[0].cls == "r"
    assert indep.witnesses[0].keys == ("a", "b", "c")
    assert indep.witnesses[0].h_key_given == pytest.approx(0.0, abs=TOL)


def test_exhaustive_witnesses_with_keys_held(diamond):
    # the one SKI witness family that holds ancestor keys; the JSON shape
    # is what `check --exhaustive --json` prints
    scheme = gen_correlated(diamond, 2, "a", "r")
    ski = check_ski(scheme, exhaustive=True).to_json()["witnesses"]
    assert [(w["class"], w["secrets"], w["keys"]) for w in ski] == [
        ("a", [], ["r"]),
        ("r", ["a"], []),
    ]
    ki = check_ki(scheme, exhaustive=True).to_json()["witnesses"]
    assert [(w["class"], w["secrets"], w["keys"]) for w in ki] == [("r", ["a"], [])]


def test_correctness_witness_shape(diamond):
    # break correctness: keys independent of secrets entirely
    labels = sorted(diamond.classes)
    rows = []
    for bit in (0, 1):
        assignment = {}
        for u in labels:
            assignment[f"K:{u}"] = bit
            assignment[f"S:{u}"] = 0
        rows.append((assignment, Fraction(1, 2)))
    scheme = Scheme(graph=diamond, dist=JointDistribution.from_rows(rows))
    report = check_correctness(scheme)
    assert not report.passed
    # every (v, u) accessible pair fails; u=a, v=a comes first
    first = report.witnesses[0]
    assert first.cls == "a"
    assert first.secrets == ("a",)
    assert first.h_key_given == pytest.approx(1.0, abs=TOL)
    pairs = {(w.secrets[0], w.cls) for w in report.witnesses}
    assert ("r", "c") in pairs and ("a", "c") in pairs


def test_vacuous_passes():
    solo = AccessGraph.build(["only"], [])
    scheme = gen_trivial(solo, 3)
    for report in run_checks(scheme, "all", exhaustive=True):
        assert report.passed, report.kind
    assert check_ki(scheme).witnesses == ()


def test_mode_agreement_random_corpus(diamond, chain4, antichain4):
    rng = SplitMix64(2024)
    schemes = []
    for graph in (diamond, chain4, antichain4):
        schemes.append(gen_trivial(graph, 2))
        schemes.append(gen_correlated(graph, 2, *sorted(graph.classes)[:2]))
        for _ in range(6):
            schemes.append(gen_random_correct(graph, 2, rng.next_u64()))
    for target in sorted(diamond.classes):
        for leaker in sorted(diamond.forbidden_set(target)):
            schemes.append(gen_leaky(diamond, 2, target, leaker))
    assert len(schemes) >= 30
    for scheme in schemes:
        assert check_ki(scheme).passed == check_ki(scheme, exhaustive=True).passed
        assert check_ski(scheme).passed == check_ski(scheme, exhaustive=True).passed


def test_ski_fails_whenever_ki_fails(diamond):
    # SKI conditions on strictly more, so a KI break implies an SKI break
    rng = random.Random(11)
    for _ in range(20):
        graph = make_random_dag(rng, max_nodes=5)
        seed = rng.getrandbits(63)
        scheme = gen_random_correct(graph, 2, seed)
        ki = check_ki(scheme)
        ski = check_ski(scheme)
        if not ki.passed:
            assert not ski.passed


def test_exhaustive_cap():
    labels = [f"n{i:02d}" for i in range(22)]
    graph = AccessGraph.build(labels, [])
    assignment = {}
    for u in labels:
        assignment[f"K:{u}"] = 0
        assignment[f"S:{u}"] = ((u, 0),)
    scheme = Scheme(
        graph=graph,
        dist=JointDistribution.from_rows([(assignment, Fraction(1))]),
    )
    # maximal mode handles 21-member coalitions fine
    assert check_ki(scheme).passed
    assert check_ski(scheme).passed
    with pytest.raises(CoalitionSpaceTooLarge):
        check_ki(scheme, exhaustive=True)
    with pytest.raises(CoalitionSpaceTooLarge):
        check_ski(scheme, exhaustive=True)


def test_run_checks_modes(diamond):
    scheme = gen_leaky(diamond, 2, "a", "b")
    assert [r.kind for r in run_checks(scheme)] == [
        "correctness", "ki", "ski", "key-indep"
    ]
    only_ki = run_checks(scheme, "ki")
    assert len(only_ki) == 1 and only_ki[0].kind == "ki"
    with pytest.raises(ValueError):
        run_checks(scheme, "everything")


def test_report_json_shape(diamond):
    report = check_ki(gen_leaky(diamond, 2, "a", "b"), exhaustive=True)
    doc = report.to_json()
    assert doc["kind"] == "ki"
    assert doc["passed"] is False
    assert doc["witnesses"] == [
        {
            "class": "a",
            "secrets": ["b"],
            "keys": [],
            "h_key": pytest.approx(1.0, abs=TOL),
            "h_key_given": pytest.approx(0.0, abs=TOL),
        }
    ]
