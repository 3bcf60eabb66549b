"""Checker verdicts and witnesses on fixtures with known behavior."""

from __future__ import annotations

import functools
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

import hkas.checks
from conftest import (
    fraction_conditional_entropy,
    make_parity_leak,
    make_random_dag,
    oracle_independent,
)
from hkas import (
    AccessGraph,
    CoalitionSpaceTooLarge,
    JointDistribution,
    Scheme,
    SplitMix64,
    Witness,
    build_corpus,
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


def incorrect_scheme(graph: AccessGraph) -> Scheme:
    """Breaks correctness: the keys are independent of the secrets entirely."""
    rows = []
    for bit in (0, 1):
        assignment = {}
        for u in sorted(graph.classes):
            assignment[f"K:{u}"] = bit
            assignment[f"S:{u}"] = 0
        rows.append((assignment, Fraction(1, 2)))
    return Scheme(graph=graph, dist=JointDistribution.from_rows(rows))


def mixed_leak_scheme() -> Scheme:
    """r→a, with b and c isolated; uniform bits k_r, k_b, k_c and x, and
    k_a = k_r XOR x. S:b = (k_b, x) and S:c = (k_c, k_a), the rest spell
    out their keys. K:a is independent of S:b and of K:r, but not of
    both, so SKI at a first fails for secrets {b} and keys {r}; KI at a
    fails for {c}, which comes later in witness order, first as {b, c}."""
    rows = [({"K:a": kr ^ x, "K:b": kb, "K:c": kc, "K:r": kr,
              "S:a": kr ^ x, "S:b": (kb, x), "S:c": (kc, kr ^ x), "S:r": (kr, kr ^ x)},
             Fraction(1, 16))
            for kr, kb, kc, x in itertools.product((0, 1), repeat=4)]
    return Scheme(graph=AccessGraph.build(["a", "b", "c", "r"], [("r", "a")]),
                  dist=JointDistribution.from_rows(rows))


def test_correctness_witness_shape(diamond):
    scheme = incorrect_scheme(diamond)
    report = check_correctness(scheme)
    assert not report.passed
    # every (v, u) accessible pair fails; u=a, v=a comes first
    first = report.witnesses[0]
    assert first.cls == "a"
    assert first.secrets == ("a",)
    assert first.h_key_given == pytest.approx(1.0, abs=TOL)
    pairs = {(w.secrets[0], w.cls) for w in report.witnesses}
    assert ("r", "c") in pairs and ("a", "c") in pairs


def test_witness_floats_match_fraction_reference(diamond):
    rng = random.Random(29)
    schemes = [incorrect_scheme(diamond), make_parity_leak(), mixed_leak_scheme()]
    for trial in range(24):
        graph = make_random_dag(rng, max_nodes=5, min_nodes=2)
        q = 2 + trial % 2
        schemes.append(gen_random_correct(graph, q, rng.getrandbits(63)))
        schemes.append(gen_correlated(graph, q, *rng.sample(sorted(graph.classes), 2)))
    kinds = set()
    for scheme in schemes:
        rows = scheme.dist.rows()
        for exhaustive in (False, True):
            reports = run_checks(scheme, "all", exhaustive=exhaustive)
            # "all" decides KI and SKI on one engine per class; each check
            # run alone decides them on its own.
            assert reports == [check_correctness(scheme), check_ki(scheme, exhaustive),
                               check_ski(scheme, exhaustive), check_key_independence(scheme)]
            for report in reports:
                for w in report.witnesses:
                    target = [f"K:{w.cls}"]
                    givens = [f"S:{v}" for v in w.secrets] + [f"K:{v}" for v in w.keys]
                    assert w.h_key == fraction_conditional_entropy(rows, target, [])
                    assert w.h_key_given == fraction_conditional_entropy(rows, target, givens)
                    kinds.add(report.kind)
    assert kinds == {"correctness", "ki", "ski", "key-indep"}


def test_each_decided_coalition_scans_the_support_once(diamond, support_scans):
    trivial = gen_trivial(diamond, 2)
    leaky = gen_leaky(diamond, 2, "a", "b")
    correlated = gen_correlated(diamond, 2, "a", "r")
    exhaustive_ki = functools.partial(check_ki, exhaustive=True)
    exhaustive_ski = functools.partial(check_ski, exhaustive=True)
    # Maximal mode decides one coalition per class with a non-empty one:
    # KI three, SKI four; key independence decides each key against the
    # keys before it and stops at the third, r. Exhaustive mode decides
    # every coalition of those classes (13 for KI, 28 for SKI) from one
    # scan per class. The witness of a failure reads the deciding joint.
    for check, scheme, scans, failures in (
            (check_ki, leaky, 3, 1), (check_ski, leaky, 4, 1),
            (check_key_independence, correlated, 3, 1),
            (exhaustive_ki, trivial, 3, 0), (exhaustive_ski, trivial, 4, 0),
            (exhaustive_ki, leaky, 3, 1), (exhaustive_ski, correlated, 4, 2)):
        support_scans.scans = 0
        report = check(scheme)
        assert len(report.witnesses) == failures, report.kind
        assert support_scans.scans == scans, report.kind


def test_run_checks_scans_once_per_class_and_engine(diamond, support_scans):
    # Correctness decides all the keys a class can access in one scan per
    # class, and reads each failing pair's witness from one more; the other
    # checks scan once per engine, as above. The incorrect scheme fails all
    # nine accessible pairs, SKI at every class and key independence at b.
    # "all" decides KI and SKI on one engine per class, so it scans as
    # correctness, SKI and key independence do, in either coalition mode.
    for scheme, scans, everything in (
            (gen_trivial(diamond, 2), {"correctness": 4, "ki": 3, "ski": 4, "key-indep": 3},
             {False: 11, True: 11}),
            (incorrect_scheme(diamond),
             {"correctness": 4 + 9, "ki": 3, "ski": 4, "key-indep": 1}, {False: 18})):
        for kind, want in scans.items():
            support_scans.scans = 0
            run_checks(scheme, kind)
            assert support_scans.scans == want, kind
        for exhaustive, want in everything.items():
            support_scans.scans = 0
            run_checks(scheme, "all", exhaustive)
            assert support_scans.scans == want, exhaustive


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


def test_verdicts_match_the_reports(diamond):
    # passes reads the first item of the walk that check_ki and check_ski
    # drain, so each verdict is the report's.
    schemes = build_corpus(diamond, 2, 200, 7) + [make_parity_leak()]
    rng = random.Random(33)
    for _ in range(30):
        graph = make_random_dag(rng, max_nodes=5, min_nodes=2)
        labels = sorted(graph.classes)
        schemes += [gen_trivial(graph, 2), gen_correlated(graph, 2, *rng.sample(labels, 2)),
                    gen_random_correct(graph, 2, rng.getrandbits(64))]
        schemes += [gen_leaky(graph, 2, target, leaker) for target in labels[:1]
                    for leaker in sorted(graph.forbidden_set(target))[:1]]
    verdicts = set()
    for scheme in dict.fromkeys(schemes):
        for kind, check in (("ki", check_ki), ("ski", check_ski)):
            verdict = hkas.checks.passes(scheme, kind)
            assert verdict == check(scheme).passed, kind
            verdicts.add((kind, verdict))
    assert verdicts == {("ki", True), ("ki", False), ("ski", True), ("ski", False)}


def test_a_verdict_walks_up_to_the_first_failing_class(antichain4, monkeypatch):
    # KI and SKI fail at b and at d; a verdict decides a and b only, and
    # derives no later class's members either. _first_failure takes the
    # class's key by variable index, decoded here to the class's label.
    scheme = gen_correlated(antichain4, 2, "b", "d")
    walked, derived = [], []
    walk, positions = hkas.checks._first_failure, AccessGraph._positions

    def walking(scheme, key, *args):
        walked.append(scheme.dist.variables[key].removeprefix("K:"))
        return walk(scheme, key, *args)

    def deriving(graph, u, kind):
        if kind == "forbidden":
            derived.append(u)
        return positions(graph, u, kind)

    monkeypatch.setattr(hkas.checks, "_first_failure", walking)
    monkeypatch.setattr(AccessGraph, "_positions", deriving)
    for kind, check in (("ki", check_ki), ("ski", check_ski)):
        walked.clear()
        assert [w.cls for w in check(scheme).witnesses] == ["b", "d"]
        assert walked == ["a", "b", "c", "d"]
        walked.clear()
        derived.clear()
        assert not hkas.checks.passes(scheme, kind)
        assert walked == ["a", "b"]
        assert derived == ["a", "b"]


def test_the_checks_look_up_no_variable_name(diamond, monkeypatch):
    # The checks take the class order from the graph and hand the
    # coalition engine variable indices, so no engine resolves a name.
    labels = [f"c{i:03d}" for i in range(200)]
    chain = AccessGraph.build(labels, list(zip(labels, labels[1:])))
    one_row = Scheme(chain, JointDistribution.from_rows(
        [({var + u: 0 for u in labels for var in ("K:", "S:")}, Fraction(1))]))
    leaky = gen_leaky(diamond, 2, "a", "b")
    lookups = []
    for name in ("_resolve", "_positions"):
        def counted(dist, *args, lookup=getattr(JointDistribution, name), name=name, **kwargs):
            lookups.append(name)
            return lookup(dist, *args, **kwargs)

        monkeypatch.setattr(JointDistribution, name, counted)
    reports = run_checks(one_row, "all") + run_checks(leaky, "all", True)
    verdicts = [hkas.checks.passes(scheme, kind) for scheme in (one_row, leaky)
                for kind in ("ki", "ski")]
    assert lookups == []
    assert [report.passed for report in reports] == [True] * 5 + [False, False, True]
    assert verdicts == [True, True, False, False]


def test_exhaustive_cap(monkeypatch):
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

    # The budget refuses before any lattice is built, so a loosened budget
    # fails here at once, instead of walking 2**21 coalitions.
    def unbuilt(*_args):
        raise AssertionError("a lattice was built past the exhaustive budget")

    monkeypatch.setattr(hkas.checks, "_Coalitions", unbuilt)
    with pytest.raises(CoalitionSpaceTooLarge):
        check_ki(scheme, exhaustive=True)
    with pytest.raises(CoalitionSpaceTooLarge):
        check_ski(scheme, exhaustive=True)


def test_exhaustive_budget_bounds_the_lattice(monkeypatch):
    # Twelve classes with no edges: each class's coalition has only 11
    # members, but 2**11 coalitions times 4,097 (the 4,096 support rows
    # plus one) exceeds the budget.
    antichain = gen_trivial(AccessGraph.build([f"n{i:02d}" for i in range(12)], []), 2)
    assert check_ki(antichain).passed
    for check in (check_ki, check_ski):
        with pytest.raises(CoalitionSpaceTooLarge):
            check(antichain, exhaustive=True)
    # The budget admits the 8-class DAG at q=3 (2**7 coalitions over 6,561
    # rows); with the lattice stubbed out, only the budget runs.
    labels = "abcdefgh"
    edges = ((0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (5, 6), (6, 7), (2, 6))
    dag8 = gen_trivial(AccessGraph.build(list(labels), [(labels[i], labels[j])
                                                        for i, j in edges]), 3)
    monkeypatch.setattr(hkas.checks, "_first_failure", lambda *args: None)
    for check in (check_ki, check_ski):
        assert check(dag8, exhaustive=True).passed


def test_exhaustive_budget_boundary(monkeypatch, support_scans):
    # On b→a at q=2 (4 rows), KI at b holds S:a and SKI at a holds K:b:
    # one member each, so 2**1 * (4 + 1) = 10 bounds each lattice.
    scheme = gen_trivial(AccessGraph.build(["a", "b"], [("b", "a")]), 2)
    monkeypatch.setattr(hkas.checks, "MAX_LATTICE_WORK", 10)
    for check in (check_ki, check_ski):
        assert check(scheme, exhaustive=True).passed
    assert all(report.passed for report in run_checks(scheme, "all", True))
    monkeypatch.setattr(hkas.checks, "MAX_LATTICE_WORK", 9)

    def unbuilt(*_args):
        raise AssertionError("a lattice was built past the exhaustive budget")

    monkeypatch.setattr(hkas.checks, "_Coalitions", unbuilt)
    # "all" refuses as KI does, before SKI, and before any other work.
    for check, cls in ((check_ki, "b"), (check_ski, "a"),
                       (functools.partial(run_checks, mode="all"), "b")):
        support_scans.scans = 0
        with pytest.raises(CoalitionSpaceTooLarge) as refused:
            check(scheme, exhaustive=True)
        assert str(refused.value) == (
            f"class {cls!r} has 1 coalition members over 4 support rows: "
            "2**1 * 5 exceeds the exhaustive mode's budget of 9")
        assert support_scans.scans == 0


def _witness_order(forbidden, ancestors):
    """Every non-empty (secrets, keys) coalition, smallest first."""
    def subsets(labels):
        return [combo for size in range(len(labels) + 1)
                for combo in itertools.combinations(sorted(labels), size)]
    return sorted((secrets, keys) for secrets in subsets(forbidden)
                  for keys in subsets(ancestors) if secrets or keys)


def test_exhaustive_witness_is_the_first_dependent_coalition(diamond, chain4, antichain4):
    schemes = [make_parity_leak(), mixed_leak_scheme()]
    for graph in (diamond, chain4, antichain4):
        labels = sorted(graph.classes)
        schemes.append(gen_trivial(graph, 2))
        schemes += [gen_leaky(graph, 2, target, leaker) for target in labels
                    for leaker in sorted(graph.forbidden_set(target))]
        schemes.append(gen_correlated(graph, 2, labels[0], labels[-1]))
        schemes += [gen_random_correct(graph, 2, seed) for seed in (3, 4)]
    failures = 0
    for scheme in schemes:
        rows = scheme.dist.rows()
        graph = scheme.graph
        for check, with_keys in ((check_ki, False), (check_ski, True)):
            expected = []
            for u in sorted(graph.classes):
                target = [f"K:{u}"]
                ancestors = graph.ancestor_set(u) if with_keys else ()
                for secrets, keys in _witness_order(graph.forbidden_set(u), ancestors):
                    givens = [f"S:{v}" for v in secrets] + [f"K:{w}" for w in keys]
                    if not oracle_independent(rows, [target, givens]):
                        expected.append(Witness(
                            u, secrets, keys, fraction_conditional_entropy(rows, target, []),
                            fraction_conditional_entropy(rows, target, givens)))
                        break
            assert list(check(scheme, exhaustive=True).witnesses) == expected
            failures += len(expected)
    assert failures > len(schemes)


def _decisions(scheme, kinds, exhaustive, reports):
    """Per class with a coalition, the (secrets, keys) coalitions that the
    walk decides, in order, given the verdicts it reached: SKI's witness
    order (or the coalition of every member, in maximal mode) up to its
    witness; then, only if KI runs too and that witness holds keys, the
    coalitions holding no keys that come after it (maximal mode: the one
    of all the secrets), up to KI's witness."""
    found = {kind: {w.cls: (w.secrets, w.keys) for w in report.witnesses}
             for kind, report in zip(kinds, reports)}
    graph = scheme.graph
    decided = []
    for u in sorted(graph.classes):
        forbidden = tuple(sorted(graph.forbidden_set(u)))
        ancestors = tuple(sorted(graph.ancestor_set(u))) if "ski" in kinds else ()
        if not forbidden + ancestors:
            continue
        order = (_witness_order(forbidden, ancestors) if exhaustive
                 else [(forbidden, ancestors)])
        first = found[kinds[-1]].get(u)
        walk = order[:order.index(first) + 1] if first else order
        if len(kinds) > 1 and first and first[1]:
            if exhaustive:
                rest = [(held, keys) for held, keys in order[order.index(first) + 1:] if not keys]
            else:
                rest = [(forbidden, ())] if forbidden else []
            keyless = found["ki"].get(u)
            walk += rest[:rest.index(keyless) + 1] if keyless else rest
        decided.append(walk)
    return decided


def test_one_engine_per_class_decides_each_coalition_once(diamond, chain4, antichain4,
                                                           monkeypatch):
    # Every coalition engine the coalition checks build, and each coalition
    # it decides, as (secrets, keys) labels decoded from the members'
    # variable indices; the other two checks are stubbed out so that only
    # KI's and SKI's engines are counted.
    engines = []
    build, independent = hkas.checks._Coalitions, hkas.checks._Coalitions.independent

    def built(dist, targets, members):
        engine = build(dist, targets, members)
        engines.append((engine, [dist.variables[v] for v in members], []))
        return engine

    def decided(engine, chosen=None):
        _, members, walk = next(entry for entry in engines if entry[0] is engine)
        labels = [members[i] for i in chosen]
        walk.append((tuple(v[2:] for v in labels if v.startswith("S:")),
                     tuple(v[2:] for v in labels if v.startswith("K:"))))
        return independent(engine, chosen)

    monkeypatch.setattr(hkas.checks, "_Coalitions", built)
    monkeypatch.setattr(build, "independent", decided)
    monkeypatch.setattr(hkas.checks, "check_correctness", lambda scheme: None)
    monkeypatch.setattr(hkas.checks, "check_key_independence", lambda scheme: None)
    schemes = [make_parity_leak(), incorrect_scheme(diamond), mixed_leak_scheme()]
    for graph in (diamond, chain4, antichain4):
        labels = sorted(graph.classes)
        schemes += [gen_leaky(graph, 2, target, leaker) for target in labels
                    for leaker in sorted(graph.forbidden_set(target))]
        schemes += [gen_correlated(graph, 2, high, low)
                    for high, low in itertools.permutations(labels, 2)]
        schemes += [gen_random_correct(graph, 2, seed) for seed in (3, 4)]
    for scheme in schemes:
        for exhaustive in (False, True):
            for kinds, check in ((("ki",), check_ki), (("ski",), check_ski),
                                 (("ki", "ski"), run_checks)):
                engines.clear()
                reports = check(scheme, exhaustive=exhaustive)
                reports = reports[1:3] if check is run_checks else [reports]
                assert [walk for _, _, walk in engines] == _decisions(
                    scheme, kinds, exhaustive, reports), (kinds, exhaustive)


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["leaky", "correlated"])
def test_wide_key_domain_keeps_the_joint_within_the_support(kind):
    # Each key takes q values. In the leaky scheme (q=100) each of the
    # 10,000 support rows has its own S:b code; in the correlated one
    # (q=300) each K:a code meets one K:b code. A joint stored as one
    # vector of q cells per coalition code would hold q times the support.
    graph = AccessGraph.build(["a", "b"], [])
    if kind == "leaky":
        scheme, target, given = gen_leaky(graph, 100, "a", "b"), "K:a", "S:b"
        checks = [check_ki, functools.partial(check_ski, exhaustive=True),
                  lambda scheme: run_checks(scheme, "all")[1],
                  lambda scheme: run_checks(scheme, "all", True)[1]]
    else:
        scheme, target, given = gen_correlated(graph, 300, "a", "b"), "K:b", "K:a"
        checks = [check_key_independence]
    # The peak of one flat count of the same joint, which holds one entry
    # per cell on the support.
    dist = scheme.dist
    g, t = dist.variables.index(given), dist.variables.index(target)

    def count() -> None:
        cells: dict[tuple[int, int], int] = {}
        for codes, w in zip(dist.codes, dist.weights):
            cells[codes[g], codes[t]] = cells.get((codes[g], codes[t]), 0) + w

    flat = _traced_peak(count)
    for check in checks:
        assert not check(scheme).passed
        assert _traced_peak(lambda: check(scheme)) < 10 * flat


def test_parity_leak_needs_two_members():
    scheme = make_parity_leak()
    for secret in ("S:b", "S:v"):
        assert scheme.dist.is_independent(["K:a"], [secret])
    assert not scheme.dist.is_independent(["K:a"], ["S:b", "S:v"])
    for check in (check_ki, check_ski):
        for exhaustive in (False, True):
            report = check(scheme, exhaustive=exhaustive)
            assert [(w.cls, w.secrets, w.keys) for w in report.witnesses] == [
                ("a", ("b", "v"), ()), ("b", ("a", "v"), ())]


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


def test_witness_to_json_rounds():
    witness = Witness("a", ("b",), (), math.log2(3), 8.881784197001252e-16)
    assert witness.to_json() == {
        "class": "a", "secrets": ["b"], "keys": [],
        "h_key": 1.58496250072, "h_key_given": 8.881784197e-16,
    }
