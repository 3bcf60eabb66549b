"""Empirical validation of the structural theorems behind the checkers.

The identities verified here are the load-bearing facts the checkers
rely on:

* on a well-ordered sequence of a KI-secure scheme, the joint entropy of
  the keys equals the sum of the individual key entropies and the keys
  are mutually independent;
* conditioning a later block of keys on an earlier class's key and the
  earlier secrets does not reduce the block's entropy below the sum of
  its parts (and equals it exactly);
* the key of a class keeps full entropy given later keys plus earlier
  secrets;
* along a well-ordered prefix the secrets determine the keys exactly.

Float identities are compared at absolute tolerance TOL; verdicts that
feed pass/fail decisions are cross-checked with exact predicates.
Violations raise TheoremViolation carrying the serialized scheme so a
failure is reproducible from the error alone.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .checks import check_ki, check_ski
from .errors import InvalidArgument, PreconditionFailed, TheoremViolation
from .generate import SplitMix64, gen_correlated, gen_leaky, gen_random_correct, gen_trivial
from .graph import AccessGraph
from .scheme import Scheme, key_var, secret_var, serialize_scheme

TOL = 1e-9


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise PreconditionFailed(message)


def _violation(scheme: Scheme, message: str) -> TheoremViolation:
    return TheoremViolation(message, scheme_json=serialize_scheme(scheme))


def _require_preconditions(scheme: Scheme, labels: tuple[str, ...]) -> None:
    _require(scheme.graph.is_well_ordered(labels),
             f"sequence {labels!r} is not well ordered")
    _require(check_ki(scheme).passed, "scheme is not KI-secure")


def verify_independence_sum(scheme: Scheme, seq: Sequence[str]) -> dict:
    """Joint key entropy equals the sum over a well-ordered sequence.

    Preconditions: the scheme passes the KI check and seq is well
    ordered. Also asserts exact mutual independence of the keys.
    """
    labels = tuple(seq)
    _require_preconditions(scheme, labels)
    return _independence_sum(scheme, labels)


def _independence_sum(scheme: Scheme, labels: tuple[str, ...]) -> dict:
    keys = [key_var(u) for u in labels]
    joint = scheme.dist.entropy(keys)
    total = math.fsum(scheme.dist.entropy([k]) for k in keys)
    abs_err = abs(joint - total)
    if abs_err >= TOL:
        raise _violation(
            scheme,
            f"joint key entropy {joint!r} differs from sum {total!r} "
            f"on sequence {labels!r}",
        )
    if len(labels) >= 2:
        if not scheme.dist.is_mutually_independent([(k,) for k in keys]):
            raise _violation(
                scheme, f"keys of {labels!r} are not mutually independent"
            )
    return {
        "sequence": list(labels),
        "joint_entropy": joint,
        "entropy_sum": total,
        "abs_err": abs_err,
        "identity_checks": 2 if len(labels) >= 2 else 1,
    }


def verify_conditional_identities(
    scheme: Scheme, seq: Sequence[str], n: int, m: int
) -> dict:
    """Conditional-entropy identities on a well-ordered sequence split (n, m).

    With the sequence split into a prefix of n classes and a suffix of m,
    writing P for the secrets of the first n-1 classes, p for the key of
    class n, and T for the keys of the suffix:

    * H(T | p, P) == sum of individual suffix key entropies,
    * H(T | P) == the same sum,
    * H(p | T, P) == H(p),
    * the secrets of any proper prefix of the first n classes determine
      that prefix's keys exactly.

    Raises PreconditionFailed unless the scheme is KI-secure, seq is well
    ordered, and len(seq) == n + m with n >= 1, m >= 0. Raises
    TheoremViolation when an identity misses by TOL or more.
    """
    labels = tuple(seq)
    _require(n >= 1 and m >= 0, f"invalid split n={n}, m={m}")
    _require(len(labels) == n + m,
             f"sequence length {len(labels)} does not match n+m={n + m}")
    _require_preconditions(scheme, labels)
    return _conditional_identities(scheme, labels, n, m)


def _conditional_identities(scheme: Scheme, labels: tuple[str, ...],
                            n: int, m: int) -> dict:
    checks = 0
    max_err = 0.0
    prefix_secrets = [secret_var(v) for v in labels[: n - 1]]
    pivot_key = key_var(labels[n - 1])
    suffix_keys = [key_var(u) for u in labels[n:]]

    for j in range(2, n + 1):
        head = labels[: j - 1]
        determined = scheme.dist.is_functionally_determined(
            [key_var(u) for u in head], [secret_var(u) for u in head]
        )
        checks += 1
        if not determined:
            raise _violation(
                scheme,
                f"secrets of prefix {head!r} do not determine its keys",
            )

    if m >= 1:
        parts = math.fsum(scheme.dist.entropy([k]) for k in suffix_keys)
        given_pivot = scheme.dist.conditional_entropy(
            suffix_keys, [pivot_key] + prefix_secrets
        )
        checks += 1
        max_err = max(max_err, abs(given_pivot - parts))
        if abs(given_pivot - parts) >= TOL:
            raise _violation(
                scheme,
                f"H(suffix keys | pivot key, prefix secrets) = {given_pivot!r} "
                f"differs from entropy sum {parts!r} on {labels!r} split "
                f"n={n}, m={m}",
            )
        without_pivot = scheme.dist.conditional_entropy(suffix_keys, prefix_secrets)
        checks += 1
        max_err = max(max_err, abs(without_pivot - parts))
        if abs(without_pivot - parts) >= TOL:
            raise _violation(
                scheme,
                f"H(suffix keys | prefix secrets) = {without_pivot!r} differs "
                f"from entropy sum {parts!r} on {labels!r} split n={n}, m={m}",
            )

    pivot_plain = scheme.dist.entropy([pivot_key])
    pivot_given = scheme.dist.conditional_entropy(
        [pivot_key], suffix_keys + prefix_secrets
    )
    checks += 1
    max_err = max(max_err, abs(pivot_given - pivot_plain))
    if abs(pivot_given - pivot_plain) >= TOL:
        raise _violation(
            scheme,
            f"H(pivot key | suffix keys, prefix secrets) = {pivot_given!r} "
            f"differs from H(pivot key) = {pivot_plain!r} on {labels!r} "
            f"split n={n}, m={m}",
        )

    return {
        "sequence": list(labels),
        "n": n,
        "m": m,
        "identity_checks": checks,
        "max_abs_err": max_err,
    }


def verify_main_theorem_sequence(scheme: Scheme, u: str) -> dict:
    """Run the conditional identities on theorem_sequence(u).

    The split is n = |forbidden_set(u)| + 1 (prefix ends at u itself) and
    m = |ancestor_set(u)|, so the pivot identity states that u's key keeps
    full entropy against the maximal SKI coalition. The float verdict is
    cross-checked with the exact independence predicate.
    """
    seq = scheme.graph.theorem_sequence(u)
    _require_preconditions(scheme, seq)
    return _main_theorem(scheme, u, seq)


def _main_theorem(scheme: Scheme, u: str, seq: tuple[str, ...]) -> dict:
    graph = scheme.graph
    n = len(graph.forbidden_set(u)) + 1
    m = len(graph.ancestor_set(u))
    report = _conditional_identities(scheme, seq, n, m)
    others = [secret_var(v) for v in sorted(graph.forbidden_set(u))]
    others += [key_var(w) for w in sorted(graph.ancestor_set(u))]
    if others:
        if not scheme.dist.is_independent([key_var(u)], others):
            raise _violation(
                scheme,
                f"key of {u!r} is not exactly independent of the maximal "
                f"coalition despite the entropy identity",
            )
        report["identity_checks"] += 1
    report["target"] = u
    return report


def verify_equivalence(schemes: Iterable[Scheme], strict: bool = True) -> dict:
    """KI and SKI verdicts must agree on every scheme.

    Returns a summary with per-scheme verdicts; with strict=True (the
    default) a disagreement raises TheoremViolation carrying the first
    offending scheme.
    """
    ki_pass = 0
    ki_fail = 0
    discrepancies = 0
    verdicts: list[dict] = []
    first_bad: Scheme | None = None
    for scheme in schemes:
        ki = check_ki(scheme)
        ski = check_ski(scheme)
        if ki.passed:
            ki_pass += 1
        else:
            ki_fail += 1
        if ki.passed != ski.passed:
            discrepancies += 1
            if first_bad is None:
                first_bad = scheme
        verdicts.append({"ki": ki.passed, "ski": ski.passed})
    if strict and first_bad is not None:
        raise _violation(
            first_bad,
            f"KI and SKI verdicts disagree on {discrepancies} scheme(s)",
        )
    return {
        "schemes": len(verdicts),
        "ki_pass": ki_pass,
        "ki_fail": ki_fail,
        "discrepancies": discrepancies,
        "verdicts": verdicts,
    }


def build_corpus(graph: AccessGraph, q: int, trials: int, seed: int) -> list[Scheme]:
    """Fixture schemes plus seeded random ones for a validation run.

    Contents: the trivial scheme, one leaky scheme per (target, leaker)
    pair with the leaker forbidden to the target, one correlated scheme
    per unordered class pair, and `trials` schemes from
    gen_random_correct with per-trial seeds derived via splitmix64.
    Raises InvalidArgument when trials is negative.
    """
    if trials < 0:
        raise InvalidArgument(f"trials must be non-negative, got {trials}")
    corpus: list[Scheme] = [gen_trivial(graph, q)]
    for target in sorted(graph.classes):
        for leaker in sorted(graph.forbidden_set(target)):
            corpus.append(gen_leaky(graph, q, target, leaker))
    labels = sorted(graph.classes)
    for i, u in enumerate(labels):
        for w in labels[i + 1:]:
            corpus.append(gen_correlated(graph, q, u, w))
    rng = SplitMix64(seed)
    for _ in range(trials):
        corpus.append(gen_random_correct(graph, q, rng.next_u64()))
    return corpus


def run_validation(graph: AccessGraph, q: int, trials: int, seed: int) -> dict:
    """Full validation pass over a generated corpus; returns the summary.

    Checks KI/SKI agreement on every scheme, then runs the entropy
    identities on every KI-passing scheme: the independence sum on the
    graph's full well-ordered sequence, the conditional identities on
    every split of that sequence, and the theorem sequence of every
    class. Preconditions are decided once: KI per scheme, taken from the
    verdicts verify_equivalence computed, and well-orderedness per
    sequence of the graph. Summary fields: schemes, ki_pass, ki_fail,
    discrepancies, identity_checks, max_abs_err.
    """
    corpus = build_corpus(graph, q, trials, seed)
    equivalence = verify_equivalence(corpus, strict=False)
    identity_checks = 0
    max_abs_err = 0.0
    full_seq = graph.well_ordered_all()
    theorem_seqs = {u: graph.theorem_sequence(u) for u in sorted(graph.classes)}
    for seq in (full_seq, *theorem_seqs.values()):
        _require(graph.is_well_ordered(seq), f"sequence {seq!r} is not well ordered")
    for scheme, verdict in zip(corpus, equivalence["verdicts"]):
        if not verdict["ki"]:
            continue
        report = _independence_sum(scheme, full_seq)
        identity_checks += report["identity_checks"]
        max_abs_err = max(max_abs_err, report["abs_err"])
        for n in range(1, len(full_seq) + 1):
            report = _conditional_identities(scheme, full_seq, n, len(full_seq) - n)
            identity_checks += report["identity_checks"]
            max_abs_err = max(max_abs_err, report["max_abs_err"])
        for u, seq in theorem_seqs.items():
            report = _main_theorem(scheme, u, seq)
            identity_checks += report["identity_checks"]
            max_abs_err = max(max_abs_err, report["max_abs_err"])
    return {
        "schemes": equivalence["schemes"],
        "ki_pass": equivalence["ki_pass"],
        "ki_fail": equivalence["ki_fail"],
        "discrepancies": equivalence["discrepancies"],
        "identity_checks": identity_checks,
        "max_abs_err": max_abs_err,
    }
