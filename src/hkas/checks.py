"""Security checks over schemes: correctness, KI, SKI, key independence.

All verdicts are decided with exact rational arithmetic; the float
entropies carried by witnesses are reporting detail only.

KI and SKI share one coalition check. Against class u, an SKI coalition
holds the secrets of classes in forbidden_set(u) and the keys of classes
in ancestor_set(u); KI is SKI with no keys held.

Coalition checks run in one of two modes:

* maximal (default): test only the largest legal coalition per class.
  Conditioning on more can only lower conditional entropy, so a class
  passes against the maximal coalition iff it passes against every
  sub-coalition.
* exhaustive: enumerate every legal coalition. Kept as an independent
  oracle for the maximal-mode shortcut; refuses to run when a class has
  more than MAX_EXHAUSTIVE coalition members.

Witnesses: maximal mode reports the maximal coalition; exhaustive mode
reports the lexicographically smallest failing coalition, ordered by its
secrets first and its keys second, with subsets compared as sorted label
tuples.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from .errors import CoalitionSpaceTooLarge, InvalidArgument
from .scheme import CheckReport, Scheme, Witness, key_var, secret_var

MAX_EXHAUSTIVE = 20

CHECK_KINDS = ("correctness", "ki", "ski", "key-indep")


def _sorted_subsets(labels: Iterable[str]) -> list[tuple[str, ...]]:
    """Every subset of labels as a sorted tuple, all in order, the empty one first."""
    pool = sorted(labels)
    subsets: list[tuple[str, ...]] = []
    for size in range(len(pool) + 1):
        subsets.extend(itertools.combinations(pool, size))
    subsets.sort()
    return subsets


def _witness(scheme: Scheme, cls: str,
             secrets: tuple[str, ...], keys: tuple[str, ...]) -> Witness:
    target = [key_var(cls)]
    givens = [secret_var(v) for v in secrets] + [key_var(w) for w in keys]
    return Witness(
        cls=cls,
        secrets=secrets,
        keys=keys,
        h_key=scheme.dist.entropy(target),
        h_key_given=scheme.dist.conditional_entropy(target, givens),
    )


def check_correctness(scheme: Scheme) -> CheckReport:
    """Every class must be able to derive the keys below it.

    For each v and each u accessible from v, the secret of v must
    functionally determine the key of u.
    """
    witnesses: list[Witness] = []
    for v in sorted(scheme.graph.classes):
        for u in sorted(scheme.graph.accessible_set(v)):
            if not scheme.dist.is_functionally_determined([key_var(u)], [secret_var(v)]):
                witnesses.append(_witness(scheme, u, (v,), ()))
    return CheckReport(kind="correctness", passed=not witnesses,
                       witnesses=tuple(witnesses))


def _check_coalitions(scheme: Scheme, kind: str, with_keys: bool,
                      exhaustive: bool) -> CheckReport:
    """Each key must be independent of every legal coalition against it.

    The coalition against u holds secrets of forbidden_set(u) and, when
    with_keys is set, keys of ancestor_set(u).
    """
    graph = scheme.graph
    witnesses: list[Witness] = []
    for u in sorted(graph.classes):
        forbidden = graph.forbidden_set(u)
        ancestors = graph.ancestor_set(u) if with_keys else frozenset()
        if not forbidden and not ancestors:
            continue
        if not exhaustive:
            coalitions: Iterable[tuple[tuple[str, ...], tuple[str, ...]]] = [
                (tuple(sorted(forbidden)), tuple(sorted(ancestors)))
            ]
        else:
            if len(forbidden) + len(ancestors) > MAX_EXHAUSTIVE:
                raise CoalitionSpaceTooLarge(
                    f"class {u!r} has {len(forbidden) + len(ancestors)} coalition "
                    f"candidates; exhaustive mode is capped at {MAX_EXHAUSTIVE}"
                )
            key_subsets = _sorted_subsets(ancestors)
            coalitions = (
                (secrets, keys)
                for secrets in _sorted_subsets(forbidden)
                for keys in key_subsets
                if secrets or keys
            )
        for secrets, keys in coalitions:
            givens = [secret_var(v) for v in secrets] + [key_var(w) for w in keys]
            if not scheme.dist.is_independent([key_var(u)], givens):
                witnesses.append(_witness(scheme, u, secrets, keys))
                break
    return CheckReport(kind=kind, passed=not witnesses, witnesses=tuple(witnesses))


def check_ki(scheme: Scheme, exhaustive: bool = False) -> CheckReport:
    """Keys must be independent of the secrets of any forbidden coalition."""
    return _check_coalitions(scheme, "ki", with_keys=False, exhaustive=exhaustive)


def check_ski(scheme: Scheme, exhaustive: bool = False) -> CheckReport:
    """Keys must stay independent even when ancestors contribute their keys.

    The coalition holds the secrets of classes forbidden to reach u plus
    the keys (not secrets) of classes above u.
    """
    return _check_coalitions(scheme, "ski", with_keys=True, exhaustive=exhaustive)


def check_key_independence(scheme: Scheme) -> CheckReport:
    """All keys taken together must be mutually independent."""
    labels = sorted(scheme.graph.classes)
    if len(labels) < 2:
        return CheckReport(kind="key-indep", passed=True, witnesses=())
    groups = [(key_var(u),) for u in labels]
    if scheme.dist.is_mutually_independent(groups):
        return CheckReport(kind="key-indep", passed=True, witnesses=())
    # Mutual independence fails iff some key depends on the joint of the
    # keys before it (in any fixed order); the first such prefix is the
    # witness.
    for i in range(1, len(labels)):
        prefix = tuple(labels[:i])
        prefix_keys = [key_var(w) for w in prefix]
        if not scheme.dist.is_independent([key_var(labels[i])], prefix_keys):
            witness = _witness(scheme, labels[i], (), prefix)
            return CheckReport(kind="key-indep", passed=False, witnesses=(witness,))
    raise AssertionError("mutual independence failed but every prefix passed")


def run_checks(scheme: Scheme, mode: str = "all", exhaustive: bool = False) -> list[CheckReport]:
    """Run one named check, or all four in a fixed order."""
    if mode == "all":
        kinds: tuple[str, ...] = CHECK_KINDS
    elif mode in CHECK_KINDS:
        kinds = (mode,)
    else:
        raise InvalidArgument(f"unknown check mode {mode!r}")
    reports: list[CheckReport] = []
    for kind in kinds:
        if kind == "correctness":
            reports.append(check_correctness(scheme))
        elif kind == "ki":
            reports.append(check_ki(scheme, exhaustive=exhaustive))
        elif kind == "ski":
            reports.append(check_ski(scheme, exhaustive=exhaustive))
        else:
            reports.append(check_key_independence(scheme))
    return reports
