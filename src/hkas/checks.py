"""Security checks over schemes: correctness, KI, SKI, key independence.

All verdicts are decided with exact rational arithmetic; witness floats
only report, and are read from the one scan that decided the coalition.

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

from .dist import _Query
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


def _query_against(scheme: Scheme, cls: str,
                   secrets: tuple[str, ...], keys: tuple[str, ...]) -> _Query:
    """K:cls given a coalition holding these classes' secrets and keys."""
    givens = [secret_var(v) for v in secrets] + [key_var(w) for w in keys]
    return scheme.dist._query([[key_var(cls)]], givens)


def _witness_from(query: _Query, cls: str,
                  secrets: tuple[str, ...], keys: tuple[str, ...]) -> Witness:
    return Witness(cls, secrets, keys, query.part_entropies[0], query.conditional_entropy)


def check_correctness(scheme: Scheme) -> CheckReport:
    """Every class must be able to derive the keys below it.

    For each v and each u accessible from v, the secret of v must
    functionally determine the key of u.
    """
    witnesses: list[Witness] = []
    for v in sorted(scheme.graph.classes):
        for u in sorted(scheme.graph.accessible_set(v)):
            if not scheme.dist.is_functionally_determined([key_var(u)], [secret_var(v)]):
                query = _query_against(scheme, u, (v,), ())
                witnesses.append(_witness_from(query, u, (v,), ()))
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
            query = _query_against(scheme, u, secrets, keys)
            if not query.independent:
                witnesses.append(_witness_from(query, u, secrets, keys))
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
    """All keys taken together must be mutually independent.

    By the chain rule they are iff each key, in sorted order, is
    independent of the keys before it; the first that is not is the
    witness.
    """
    labels = sorted(scheme.graph.classes)
    for i in range(1, len(labels)):
        prefix = tuple(labels[:i])
        query = _query_against(scheme, labels[i], (), prefix)
        if not query.independent:
            witness = _witness_from(query, labels[i], (), prefix)
            return CheckReport(kind="key-indep", passed=False, witnesses=(witness,))
    return CheckReport(kind="key-indep", passed=True, witnesses=())


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
