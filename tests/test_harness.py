"""Theorem harness: identity values, preconditions, violation plumbing."""

from __future__ import annotations

import json

import pytest

import hkas.harness as harness
from hkas import (
    CheckReport,
    HkasError,
    PreconditionFailed,
    TheoremViolation,
    build_corpus,
    gen_correlated,
    gen_leaky,
    gen_trivial,
    load_scheme,
    run_validation,
    verify_conditional_identities,
    verify_equivalence,
    verify_independence_sum,
    verify_main_theorem_sequence,
)

TOL = 1e-9


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
    monkeypatch.setattr(
        harness, "check_ki", lambda scheme: CheckReport("ki", True, ())
    )
    with pytest.raises(TheoremViolation) as exc_info:
        verify_independence_sum(correlated, diamond.well_ordered_all())
    payload = exc_info.value.scheme_json
    assert payload is not None
    assert load_scheme(json.loads(payload)) == correlated


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


def test_verify_equivalence_strictness(monkeypatch, diamond):
    corpus = [gen_leaky(diamond, 2, "a", "b")]
    monkeypatch.setattr(
        harness, "check_ski",
        lambda scheme, exhaustive=False: CheckReport("ski", True, ()),
    )
    relaxed = verify_equivalence(corpus, strict=False)
    assert relaxed["discrepancies"] == 1
    with pytest.raises(TheoremViolation):
        verify_equivalence(corpus)


def test_build_corpus_contents(diamond):
    corpus = build_corpus(diamond, 2, 4, 9)
    # 1 trivial + 7 leaky pairs + 6 correlated pairs + 4 random
    assert len(corpus) == 18
    again = build_corpus(diamond, 2, 4, 9)
    assert [s.dist for s in corpus] == [s.dist for s in again]
    other_seed = build_corpus(diamond, 2, 4, 10)
    assert [s.dist for s in corpus] != [s.dist for s in other_seed]


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
