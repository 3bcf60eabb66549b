"""Empirical validation of the structural theorems behind the checkers.

The identities verified here are the load-bearing facts the checkers
rely on, on well-ordered sequences of a KI-secure scheme:

* the joint entropy of the keys equals the sum of their entropies;
* a later block of keys, given an earlier class's key and the earlier
  secrets, keeps the sum of its parts' entropies;
* the key of a class keeps full entropy given later keys plus earlier
  secrets;
* along a well-ordered prefix the secrets determine the keys exactly.

Verdicts are exact. Each entropy identity reads H(T_1..T_m | G) ==
H(T_1) + ... + H(T_m) and holds exactly when T_1, ..., T_m and G are
mutually independent, so _identity decides it with that predicate,
is_mutually_independent; determination uses is_functionally_determined.
The float sides only report (abs_err, max_abs_err): they are the
distribution's own conditional_entropy and entropy. Violations raise
TheoremViolation carrying the serialized scheme, so the error alone
reproduces them.

The harness needs verdicts, not reports: verify_equivalence and the
verifiers' KI precondition decide through checks.passes, whose walk
stops at the first failing class and builds no witness at all. KI and
SKI are still decided by separate walks, each on its own engines, so
the two sides of the theorem under test stay independent.

run_validation streams its corpus and keeps only running totals. A
multinomial trial differs from the trivial scheme only in its int
weights, so checks._Family decides it on the trivial scheme's plans; its
scheme is built only when it passes KI, for the identity verifiers.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

from .checks import _Family, passes
from .errors import InvalidArgument, PreconditionFailed, TheoremViolation
from .generate import (SplitMix64, _check_seed, _draw, _draw_size, _random, gen_correlated,
                       gen_leaky, gen_trivial)
from .graph import AccessGraph
from .scheme import Scheme, key_var, secret_var, serialize_scheme


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise PreconditionFailed(message)


def _violation(scheme: Scheme, message: str) -> TheoremViolation:
    return TheoremViolation(message, scheme_json=serialize_scheme(scheme))


def _require_preconditions(scheme: Scheme, labels: tuple[str, ...],
                           ki_passed: bool | None) -> None:
    """The verifiers' preconditions; ki_passed, when not None, is the
    scheme's KI verdict as its caller decided it, and is not decided again."""
    _require(scheme.graph.is_well_ordered(labels),
             f"sequence {labels!r} is not well ordered")
    if ki_passed is None:
        ki_passed = passes(scheme, "ki")
    _require(ki_passed, "scheme is not KI-secure")


def _identity(scheme: Scheme, parts: Sequence[str], givens: Sequence[str],
              claim: str) -> tuple[float, float]:
    """Decide H(parts | givens) == sum of H(part); return both float sides.

    It holds exactly when each part, and the givens as one more group,
    are mutually independent (trivially for fewer than two groups), which
    is_mutually_independent decides by the chain rule. The floats only
    report: conditional_entropy and the sum of each part's entropy.
    """
    dist = scheme.dist
    lhs = dist.conditional_entropy(parts, givens)
    rhs = math.fsum(dist.entropy([part]) for part in parts)
    groups = [[part] for part in parts] + ([givens] if givens else [])
    if len(groups) > 1 and not dist.is_mutually_independent(groups):
        raise _violation(scheme, f"{claim} does not hold: {lhs!r} vs {rhs!r}")
    return lhs, rhs


def verify_independence_sum(scheme: Scheme, seq: Sequence[str],
                            ki_passed: bool | None = None) -> dict:
    """Joint key entropy equals the sum over a well-ordered sequence.

    Preconditions: the scheme passes the KI check and seq is well
    ordered. ki_passed, here and in the other verifiers, is the KI
    verdict when the caller has decided it already; None decides it.
    Decided as exact mutual independence of the keys; joint_entropy,
    entropy_sum and abs_err only report. identity_checks
    counts the sum and, over two or more classes, the independence.
    """
    labels = tuple(seq)
    _require_preconditions(scheme, labels, ki_passed)
    joint, total = _identity(
        scheme, [key_var(u) for u in labels], [],
        f"H(keys) == sum of key entropies on sequence {labels!r}",
    )
    return {
        "sequence": list(labels),
        "joint_entropy": joint,
        "entropy_sum": total,
        "abs_err": abs(joint - total),
        "identity_checks": 2 if len(labels) >= 2 else 1,
    }


def verify_conditional_identities(
    scheme: Scheme, seq: Sequence[str], n: int, m: int, ki_passed: bool | None = None
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

    Each is decided exactly; max_abs_err reports the largest float gap
    between the sides of an entropy identity. identity_checks counts the
    n-1 determinations plus 3 entropy identities (1 when m == 0).
    Raises PreconditionFailed unless the scheme is KI-secure, seq is well
    ordered, and len(seq) == n + m with n >= 1, m >= 0. Raises
    TheoremViolation when an identity fails.
    """
    labels = tuple(seq)
    _require(n >= 1 and m >= 0, f"invalid split n={n}, m={m}")
    _require(len(labels) == n + m,
             f"sequence length {len(labels)} does not match n+m={n + m}")
    _require_preconditions(scheme, labels, ki_passed)
    prefix_secrets = [secret_var(v) for v in labels[: n - 1]]
    pivot_key = key_var(labels[n - 1])
    suffix_keys = [key_var(u) for u in labels[n:]]
    where = f"on {labels!r} split n={n}, m={m}"

    for j in range(2, n + 1):
        head = labels[: j - 1]
        if not scheme.dist.is_functionally_determined(
                [key_var(u) for u in head], [secret_var(u) for u in head]):
            raise _violation(scheme, f"secrets of prefix {head!r} do not determine its keys")

    sides = []
    if m >= 1:
        sides.append(_identity(
            scheme, suffix_keys, [pivot_key] + prefix_secrets,
            f"H(suffix keys | pivot key, prefix secrets) == entropy sum {where}",
        ))
        sides.append(_identity(
            scheme, suffix_keys, prefix_secrets,
            f"H(suffix keys | prefix secrets) == entropy sum {where}",
        ))
    sides.append(_identity(
        scheme, [pivot_key], suffix_keys + prefix_secrets,
        f"H(pivot key | suffix keys, prefix secrets) == H(pivot key) {where}",
    ))
    return {
        "sequence": list(labels),
        "n": n,
        "m": m,
        "identity_checks": n - 1 + len(sides),
        "max_abs_err": max(abs(lhs - rhs) for lhs, rhs in sides),
    }


def verify_main_theorem_sequence(scheme: Scheme, u: str,
                                 ki_passed: bool | None = None) -> dict:
    """Run the conditional identities on theorem_sequence(u).

    The split is n = |forbidden_set(u)| + 1 (prefix ends at u itself) and
    m = |ancestor_set(u)|, so the pivot identity states that u's key is
    independent of the maximal SKI coalition (forbidden secrets plus
    ancestor keys). identity_checks counts that statement once more when
    the coalition is non-empty; it shares the pivot identity's decision.
    """
    seq = scheme.graph.theorem_sequence(u)
    n = seq.index(u) + 1
    report = verify_conditional_identities(scheme, seq, n, len(seq) - n, ki_passed)
    report["identity_checks"] += int(len(seq) >= 2)
    report["target"] = u
    return report


def verify_equivalence(schemes: Iterable[Scheme], strict: bool = True) -> dict:
    """KI and SKI verdicts must agree on every scheme.

    Each distinct scheme is decided once, and the summary's counts and
    verdicts are read from one (scheme, ki, ski) record per scheme passed
    in. With strict=True (the default) a disagreement raises
    TheoremViolation carrying the first offending scheme.
    """
    decided: dict[Scheme, tuple[bool, bool]] = {}
    records = []
    for scheme in schemes:
        if scheme not in decided:
            decided[scheme] = (passes(scheme, "ki"), passes(scheme, "ski"))
        records.append((scheme, *decided[scheme]))
    disagree = [scheme for scheme, ki, ski in records if ki != ski]
    if strict and disagree:
        raise _violation(
            disagree[0], f"KI and SKI verdicts disagree on {len(disagree)} scheme(s)")
    ki_pass = sum(ki for _, ki, _ in records)
    return {
        "schemes": len(records),
        "ki_pass": ki_pass,
        "ki_fail": len(records) - ki_pass,
        "discrepancies": len(disagree),
        "verdicts": [{"ki": ki, "ski": ski} for _, ki, ski in records],
    }


def _fixtures(graph: AccessGraph, q: int) -> Iterator[Scheme]:
    """The corpus's fixture schemes, in corpus order: the trivial scheme,
    one leaky scheme per (target, leaker) pair with the leaker forbidden
    to the target, and one correlated scheme per unordered class pair."""
    yield gen_trivial(graph, q)
    for target in sorted(graph.classes):
        for leaker in sorted(graph.forbidden_set(target)):
            yield gen_leaky(graph, q, target, leaker)
    labels = sorted(graph.classes)
    for i, u in enumerate(labels):
        for w in labels[i + 1:]:
            yield gen_correlated(graph, q, u, w)


def _draw_total(graph: AccessGraph, q: int, trials: int, seed: int) -> int:
    """generate._draw_size, once trials and seed are checked."""
    if trials < 0:
        raise InvalidArgument(f"trials must be non-negative, got {trials}")
    _check_seed(seed)
    return _draw_size(graph, q)


def build_corpus(graph: AccessGraph, q: int, trials: int, seed: int) -> list[Scheme]:
    """Fixture schemes plus seeded random ones for a validation run.

    Contents: the _fixtures, then `trials` schemes, each equal to
    gen_random_correct at a per-trial seed derived via splitmix64. A
    trial that draws the uniform branch is the trivial scheme itself,
    corpus[0], and is not built again. Raises InvalidArgument when trials
    is negative or seed lies outside range(2**64), then as
    generate._draw_size does, before any scheme is built.
    """
    total = _draw_total(graph, q, trials, seed)
    corpus = list(_fixtures(graph, q))
    rng = SplitMix64(seed)
    for _ in range(trials):
        corpus.append(_random(graph, q, _draw(rng.next_u64(), total), corpus[0]))
    return corpus


def _identities(index: int, scheme: Scheme, seq: tuple[str, ...]) -> tuple[int, float]:
    """The identity_checks and max_abs_err totals, on a KI-passing corpus
    scheme, of verify_independence_sum on the full well-ordered sequence
    seq, verify_conditional_identities on every split of it and
    verify_main_theorem_sequence for every class; a violation is
    re-raised prefixed "corpus scheme <index>: "."""
    try:
        summed = verify_independence_sum(scheme, seq, True)
        reports = [verify_conditional_identities(scheme, seq, n, len(seq) - n, True)
                   for n in range(1, len(seq) + 1)]
        reports += [verify_main_theorem_sequence(scheme, u, True)
                    for u in sorted(scheme.graph.classes)]
    except TheoremViolation as exc:
        raise TheoremViolation(f"corpus scheme {index}: {exc}",
                               scheme_json=exc.scheme_json) from None
    return (summed["identity_checks"] + sum(r["identity_checks"] for r in reports),
            max([summed["abs_err"]] + [r["max_abs_err"] for r in reports]))


def run_validation(graph: AccessGraph, q: int, trials: int, seed: int) -> dict:
    """Validation pass over build_corpus(graph, q, trials, seed), streamed;
    returns the summary.

    Decides KI and SKI on every corpus scheme, as it arrives, and runs
    _identities on every KI-passing one. The trivial scheme is its own
    _Family's weighting, per kind, and a multinomial trial the same
    plans weighed by its ball counts; the trial's scheme is built only
    when KI passes. A uniform trial reuses the trivial scheme's verdicts
    and totals. Summary fields: schemes, ki_pass, ki_fail and
    discrepancies, as verify_equivalence counts them, then
    identity_checks and max_abs_err.
    """
    total = _draw_total(graph, q, trials, seed)
    seq = graph.well_ordered_all()
    summary = {"schemes": 0, "ki_pass": 0, "ki_fail": 0, "discrepancies": 0,
               "identity_checks": 0, "max_abs_err": 0.0}
    fixtures = _fixtures(graph, q)
    trivial = next(fixtures)
    families = [_Family(trivial, kind) for kind in ("ki", "ski")]

    def tally(ki: bool, ski: bool, totals: tuple[int, float]) -> None:
        summary["schemes"] += 1
        summary["ki_pass" if ki else "ki_fail"] += 1
        summary["discrepancies"] += ki != ski
        summary["identity_checks"] += totals[0]
        summary["max_abs_err"] = max(summary["max_abs_err"], totals[1])

    uniform = [family.passes(trivial.dist.weights) for family in families]
    uniform_totals = _identities(0, trivial, seq) if uniform[0] else (0, 0.0)
    tally(*uniform, uniform_totals)
    for index, scheme in enumerate(fixtures, 1):
        ki, ski = passes(scheme, "ki"), passes(scheme, "ski")
        tally(ki, ski, _identities(index, scheme, seq) if ki else (0, 0.0))
    rng = SplitMix64(seed)
    for index in range(summary["schemes"], summary["schemes"] + trials):
        counts = _draw(rng.next_u64(), total)
        if not counts:
            tally(*uniform, uniform_totals)
            continue
        rows, weights = zip(*counts)
        ki, ski = (family.passes(weights, rows) for family in families)
        tally(ki, ski, _identities(index, _random(graph, q, counts, trivial), seq)
              if ki else (0, 0.0))
    return summary
