"""Theorem harness: identity values, preconditions, violation plumbing."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

import hkas.checks
import hkas.harness as harness
from conftest import make_diamond
from hkas import (
    AccessGraph,
    HkasError,
    InvalidArgument,
    JointDistribution,
    PreconditionFailed,
    Scheme,
    SplitMix64,
    TheoremViolation,
    build_corpus,
    check_correctness,
    check_ki,
    check_ski,
    gen_correlated,
    gen_leaky,
    gen_random_correct,
    gen_trivial,
    load_scheme,
    run_validation,
    verify_conditional_identities,
    verify_equivalence,
    verify_independence_sum,
    verify_main_theorem_sequence,
)

TOL = 1e-9


def _forced(monkeypatch, verdict, kinds=("ki", "ski")):
    """Make harness.passes answer verdict for these kinds, and decide the
    others as before."""
    inner = harness.passes
    monkeypatch.setattr(harness, "passes",
                        lambda scheme, kind: verdict if kind in kinds else inner(scheme, kind))


def _recorded(monkeypatch, kind):
    """The schemes harness.passes is asked to decide kind on, from now on."""
    calls, inner = [], harness.passes

    def recorded(scheme, asked):
        if asked == kind:
            calls.append(scheme)
        return inner(scheme, asked)
    monkeypatch.setattr(harness, "passes", recorded)
    return calls


def test_independence_sum_trivial(diamond):
    scheme = gen_trivial(diamond, 2)
    report = verify_independence_sum(scheme, diamond.well_ordered_all())
    assert report["sequence"] == ["c", "b", "a", "r"]
    assert report["joint_entropy"] == pytest.approx(4.0, abs=TOL)
    assert report["entropy_sum"] == pytest.approx(4.0, abs=TOL)
    assert report["abs_err"] < TOL
    assert report["identity_checks"] == 2


def test_independence_sum_single_class(diamond):
    scheme = gen_trivial(diamond, 2)
    report = verify_independence_sum(scheme, ("c",))
    assert report["identity_checks"] == 1
    assert report["abs_err"] < TOL


def test_conditional_identities_trivial(diamond):
    scheme = gen_trivial(diamond, 2)
    seq = diamond.well_ordered_all()
    report = verify_conditional_identities(scheme, seq, 3, 1)
    assert report["n"] == 3 and report["m"] == 1
    # two prefix determinism checks, two sum identities, one pivot identity
    assert report["identity_checks"] == 5
    assert report["max_abs_err"] < TOL
    # every split of the full sequence holds
    for n in range(1, len(seq) + 1):
        report = verify_conditional_identities(scheme, seq, n, len(seq) - n)
        assert report["max_abs_err"] < TOL


def test_conditional_identities_edge_splits(diamond):
    scheme = gen_trivial(diamond, 2)
    report = verify_conditional_identities(scheme, ("c",), 1, 0)
    assert report["identity_checks"] == 1
    assert report["max_abs_err"] < TOL


def test_main_theorem_sequence(diamond):
    scheme = gen_trivial(diamond, 2)
    report = verify_main_theorem_sequence(scheme, "a")
    assert report["target"] == "a"
    assert report["sequence"] == ["c", "b", "a", "r"]
    assert report["n"] == 3 and report["m"] == 1
    # five split identities plus the exact independence cross-check
    assert report["identity_checks"] == 6
    assert report["max_abs_err"] < TOL
    solo = verify_main_theorem_sequence(scheme, "r")
    assert solo["n"] == 4 and solo["m"] == 0


def test_two_class_sequences_count_the_cross_check():
    # From two classes on, the key sum is also counted as the independence
    # it rests on, and a theorem sequence as the coalition statement.
    graph = AccessGraph.build(["r", "a"], [("r", "a")])
    scheme = gen_trivial(graph, 2)
    assert verify_independence_sum(scheme, ("a", "r"))["identity_checks"] == 2
    below = verify_main_theorem_sequence(scheme, "a")
    assert below["sequence"] == ["a", "r"] and (below["n"], below["m"]) == (1, 1)
    assert below["identity_checks"] == 3 + 1
    top = verify_main_theorem_sequence(scheme, "r")
    assert (top["n"], top["m"]) == (2, 0) and top["identity_checks"] == 1 + 1 + 1


def test_preconditions(diamond):
    trivial = gen_trivial(diamond, 2)
    leaky = gen_leaky(diamond, 2, "a", "b")
    with pytest.raises(PreconditionFailed):
        verify_independence_sum(leaky, diamond.well_ordered_all())
    with pytest.raises(PreconditionFailed):
        verify_independence_sum(trivial, ("r", "c"))
    with pytest.raises(PreconditionFailed):
        verify_conditional_identities(trivial, diamond.well_ordered_all(), 2, 1)
    with pytest.raises(PreconditionFailed):
        verify_conditional_identities(trivial, diamond.well_ordered_all(), 0, 4)
    with pytest.raises(PreconditionFailed):
        verify_conditional_identities(leaky, diamond.well_ordered_all(), 3, 1)


def test_violation_carries_scheme(monkeypatch, diamond):
    # force the KI precondition to lie so the identity genuinely fails
    correlated = gen_correlated(diamond, 2, "a", "r")
    _forced(monkeypatch, True, ("ki",))
    with pytest.raises(TheoremViolation) as exc_info:
        verify_independence_sum(correlated, diamond.well_ordered_all())
    payload = exc_info.value.scheme_json
    assert payload is not None
    assert load_scheme(json.loads(payload)) == correlated


def test_undetermined_prefix_keys_are_a_violation():
    """KI holds when the secrets are constant, but then the secrets of a
    prefix cannot determine its keys: the identity fails, exactly."""
    graph = AccessGraph.build(["a", "b"], [])
    scheme = Scheme(graph=graph, dist=JointDistribution.from_rows([
        ({"K:a": ka, "K:b": kb, "S:a": 0, "S:b": 0}, Fraction(1, 4))
        for ka in (0, 1) for kb in (0, 1)]))
    assert check_ki(scheme).passed
    with pytest.raises(TheoremViolation) as exc_info:
        verify_conditional_identities(scheme, ("a", "b"), 2, 0)
    assert str(exc_info.value) == "secrets of prefix ('a',) do not determine its keys"
    assert load_scheme(json.loads(exc_info.value.scheme_json)) == scheme


def test_verify_equivalence_summary(diamond):
    corpus = [
        gen_trivial(diamond, 2),
        gen_leaky(diamond, 2, "a", "b"),
        gen_correlated(diamond, 2, "a", "r"),
    ]
    summary = verify_equivalence(corpus)
    assert summary["schemes"] == 3
    assert summary["ki_pass"] == 1
    assert summary["ki_fail"] == 2
    assert summary["discrepancies"] == 0
    assert summary["verdicts"][0] == {"ki": True, "ski": True}


def test_equivalence_needs_correctness():
    # Chain r -> a with K:a = K:r and S:r = K:r, but S:a an independent
    # bit: a cannot derive its own key. KI holds, yet r's key, which the
    # SKI coalition against a holds, gives K:a away. The paper assumes
    # correctness; without it KI and SKI disagree.
    graph = AccessGraph.build(["r", "a"], [("r", "a")])
    rows = [
        ({"K:r": k, "K:a": k, "S:r": k, "S:a": bit}, Fraction(1, 4))
        for k in (0, 1) for bit in (0, 1)
    ]
    scheme = Scheme(graph, JointDistribution.from_rows(rows))
    correctness = check_correctness(scheme)
    assert not correctness.passed
    assert {w.cls for w in correctness.witnesses} == {"a"}
    assert check_ki(scheme).passed
    ski = check_ski(scheme)
    assert not ski.passed
    assert [(w.cls, w.secrets, w.keys) for w in ski.witnesses] == [("a", (), ("r",))]
    assert verify_equivalence([scheme], strict=False)["discrepancies"] == 1


def test_verify_equivalence_strictness(monkeypatch, diamond):
    corpus = [gen_leaky(diamond, 2, "a", "b")]
    _forced(monkeypatch, True, ("ski",))
    relaxed = verify_equivalence(corpus, strict=False)
    assert relaxed["discrepancies"] == 1
    with pytest.raises(TheoremViolation):
        verify_equivalence(corpus)


def test_verify_equivalence_reads_a_one_shot_iterator(monkeypatch, diamond):
    trivial = gen_trivial(diamond, 2)
    leaky = gen_leaky(diamond, 2, "a", "b")
    corpus = [trivial, leaky, gen_correlated(diamond, 2, "a", "r"), trivial, leaky]
    expected = verify_equivalence(corpus)
    assert expected["schemes"] == 5 and expected["ki_pass"] == 2
    calls = _recorded(monkeypatch, "ski")
    assert verify_equivalence(scheme for scheme in corpus) == expected
    assert calls == corpus[:3]


def test_run_validation_totals_are_empty_without_ki_passing_schemes(monkeypatch, diamond):
    _forced(monkeypatch, False)

    def refuse(*args):
        raise AssertionError("no scheme passes KI, so no identity is verified")
    for name in ("verify_independence_sum", "verify_conditional_identities",
                 "verify_main_theorem_sequence"):
        monkeypatch.setattr(harness, name, refuse)
    summary = run_validation(diamond, 2, 3, 5)
    assert summary == {"schemes": 17, "ki_pass": 0, "ki_fail": 17, "discrepancies": 0,
                       "identity_checks": 0, "max_abs_err": 0.0}
    assert type(summary["max_abs_err"]) is float


def test_build_corpus_contents(diamond):
    corpus = build_corpus(diamond, 2, 4, 9)
    # 1 trivial + 7 leaky pairs + 6 correlated pairs + 4 random
    assert len(corpus) == 18
    again = build_corpus(diamond, 2, 4, 9)
    assert [s.dist for s in corpus] == [s.dist for s in again]
    other_seed = build_corpus(diamond, 2, 4, 10)
    assert [s.dist for s in corpus] != [s.dist for s in other_seed]


def test_corpus_trials_are_gen_random_correct_at_their_seeds(diamond, chain4):
    # The corpus ends with one scheme per trial, equal to gen_random_correct
    # at the trial's derived seed; a trial that draws the uniform branch is
    # the corpus's trivial scheme itself: 93 of validate's 200 on the diamond.
    for graph, q, trials, seed, uniforms in ((diamond, 2, 200, 7, 93), (chain4, 3, 20, 5, 11)):
        corpus = build_corpus(graph, q, trials, seed)
        rng = SplitMix64(seed)
        uniform = 0
        for scheme in corpus[len(corpus) - trials:]:
            trial_seed = rng.next_u64()
            assert scheme == gen_random_correct(graph, q, trial_seed)
            if SplitMix64(trial_seed).next_u64() & 1:
                assert scheme is corpus[0]
                uniform += 1
        assert uniform == uniforms
        assert corpus[0] == gen_trivial(graph, q)


def test_corpus_seed_must_be_one_word(diamond):
    for seed in (-1, 2 ** 64):
        with pytest.raises(InvalidArgument,
                           match=rf"^seed must be in range\(2\*\*64\), got {seed}$"):
            build_corpus(diamond, 2, 0, seed)
        with pytest.raises(InvalidArgument):
            run_validation(diamond, 2, 1, seed)
    low, high = (build_corpus(diamond, 2, 2, seed) for seed in (0, 2 ** 64 - 1))
    assert low[:-2] == high[:-2] and low[-2:] != high[-2:]


def test_run_validation_rejects_bad_arguments(diamond):
    with pytest.raises(HkasError):
        run_validation(diamond, 2, -1, 0)
    with pytest.raises(HkasError):
        run_validation(diamond, 1, 0, 0)


def test_run_validation_summary(diamond):
    summary = run_validation(diamond, 2, 5, 123)
    assert set(summary) == {
        "schemes", "ki_pass", "ki_fail", "discrepancies",
        "identity_checks", "max_abs_err",
    }
    assert summary["schemes"] == 19
    assert summary["ki_pass"] + summary["ki_fail"] == 19
    assert summary["discrepancies"] == 0
    assert summary["identity_checks"] > 0
    assert summary["max_abs_err"] < TOL


def test_identities_decided_exactly(monkeypatch):
    # Keys of an antichain {a, b} with S:u = K:u and each key pair at
    # probability 1/4 +- 1e-6: I(K:a; K:b) is about 1.15e-11 bits, far below
    # any float tolerance, yet the keys are dependent.
    graph = AccessGraph.build(["a", "b"], [])
    skew = Fraction(1, 10**6)
    rows = [
        ({"K:a": ka, "S:a": ka, "K:b": kb, "S:b": kb},
         Fraction(1, 4) + (skew if ka == kb else -skew))
        for ka in (0, 1) for kb in (0, 1)
    ]
    scheme = Scheme(graph, JointDistribution.from_rows(rows))
    assert 0 < scheme.dist.mutual_information(["K:a"], ["K:b"]) < 1e-10
    _forced(monkeypatch, True, ("ki",))
    with pytest.raises(TheoremViolation):
        verify_conditional_identities(scheme, ("a", "b"), 1, 1)
    with pytest.raises(TheoremViolation):
        verify_independence_sum(scheme, ("a", "b"))


def test_run_validation_names_corpus_scheme(monkeypatch, diamond):
    _forced(monkeypatch, True, ("ki",))
    with pytest.raises(TheoremViolation, match=r"^corpus scheme 1: ") as exc_info:
        run_validation(diamond, 2, 0, 0)
    payload = exc_info.value.scheme_json
    assert payload is not None
    assert load_scheme(json.loads(payload)) == build_corpus(diamond, 2, 0, 0)[1]


@pytest.mark.parametrize("shape", ["diamond", "antichain3"])
@pytest.mark.parametrize("q", [2, 3])
def test_run_validation_totals_public_verifiers(shape, q):
    # run_validation decides each distinct scheme once; its totals must
    # still equal those of the public verifiers called on every KI-passing
    # corpus scheme (at q=3 the float gaps are not all zero).
    graph = make_diamond() if shape == "diamond" else AccessGraph.build(["a", "b", "c"], [])
    seq = graph.well_ordered_all()
    identity_checks = 0
    max_abs_err = 0.0
    for scheme in build_corpus(graph, q, 4, 31):
        if not check_ki(scheme).passed:
            continue
        summed = verify_independence_sum(scheme, seq)
        identity_checks += summed["identity_checks"]
        max_abs_err = max(max_abs_err, summed["abs_err"])
        reports = [verify_conditional_identities(scheme, seq, n, len(seq) - n)
                   for n in range(1, len(seq) + 1)]
        reports += [verify_main_theorem_sequence(scheme, u) for u in sorted(graph.classes)]
        for report in reports:
            identity_checks += report["identity_checks"]
            max_abs_err = max(max_abs_err, report["max_abs_err"])
    summary = run_validation(graph, q, 4, 31)
    assert summary["identity_checks"] == identity_checks
    assert summary["max_abs_err"] == max_abs_err


def test_run_validation_decides_each_distinct_scheme_once(monkeypatch, diamond):
    # 121 of the 214 schemes are distinct, and the 94 KI-passing ones are
    # all gen_trivial's scheme.
    ski = _recorded(monkeypatch, "ski")
    summed, inner = [], harness.verify_independence_sum
    monkeypatch.setattr(harness, "verify_independence_sum",
                        lambda *args: summed.append(args[0]) or inner(*args))
    summary = run_validation(diamond, 2, 200, 7)
    assert (len(ski), len(summed)) == (121, 1)
    assert summary == {"schemes": 214, "ki_pass": 94, "ki_fail": 120,
                       "discrepancies": 0, "identity_checks": 3666, "max_abs_err": 0.0}


def test_run_validation_decides_ki_once_per_distinct_scheme(monkeypatch, diamond):
    # verify_equivalence decides KI on each of the 121 distinct schemes;
    # the public verifiers that run_validation calls take that verdict
    # rather than decide it again in their precondition.
    calls = _recorded(monkeypatch, "ki")
    summary = run_validation(diamond, 2, 200, 7)
    assert len(calls) == len(set(calls)) == 121
    assert summary["ki_pass"] == 94 and summary["identity_checks"] == 3666


def test_verifiers_decide_ki_unless_given_the_verdict(monkeypatch, diamond):
    calls = _recorded(monkeypatch, "ki")
    trivial, leaky = gen_trivial(diamond, 2), gen_leaky(diamond, 2, "a", "b")
    seq = diamond.well_ordered_all()
    assert (verify_independence_sum(trivial, seq)
            == verify_independence_sum(trivial, seq, True))
    assert (verify_main_theorem_sequence(trivial, "c")
            == verify_main_theorem_sequence(trivial, "c", True))
    assert calls == [trivial, trivial]
    with pytest.raises(PreconditionFailed, match="not KI-secure"):
        verify_conditional_identities(leaky, seq, 3, 1)
    with pytest.raises(PreconditionFailed, match="not KI-secure"):
        verify_conditional_identities(trivial, seq, 3, 1, False)
    assert calls == [trivial, trivial, leaky]


def test_run_validation_stops_each_verdict_at_its_first_failing_class(monkeypatch, diamond):
    # A verdict reads the walk up to its first failing class, and builds
    # no witness: a report builds one per failing class, and 847 walks
    # and 782 witnesses were made when every report was drained in full.
    counts = {"walks": 0, "witnesses": 0}
    walk, witness = hkas.checks._first_failure, hkas.checks.Witness

    def walked(*args):
        counts["walks"] += 1
        return walk(*args)

    def built(*args):
        counts["witnesses"] += 1
        return witness(*args)
    monkeypatch.setattr(hkas.checks, "_first_failure", walked)
    monkeypatch.setattr(hkas.checks, "Witness", built)
    summary = run_validation(diamond, 2, 200, 7)
    assert counts["walks"] <= 277 and counts["witnesses"] == 0
    assert summary["ki_pass"] == 94 and summary["identity_checks"] == 3666
