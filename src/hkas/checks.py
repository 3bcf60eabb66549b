"""Security checks over schemes: correctness, KI, SKI, key independence.

All verdicts are decided with exact rational arithmetic; witness floats
only report, and are read from the joint that decided the coalition.
Correctness is decided once per secret, in one scan over the keys it must fix.

KI and SKI share one coalition check. Against class u, an SKI coalition
holds the secrets of classes in forbidden_set(u) and the keys of classes
in ancestor_set(u); KI is SKI with no keys held. The check is one lazy
walk over the classes, yielding each failing class's coalition in class
order: a report (check_ki, check_ski, run_checks) drains it and builds
each one's witness, and a verdict (passes) reads only its first item
and builds no witness. Each coalition is decided on its own joint with
K:u, through dist._Coalitions: one scan
of the support per class builds the joint of the largest coalition, and
each smaller one is summed from a joint one member larger. run_checks'
"all" mode builds one engine per class, over SKI's members, and decides
KI from it too: in one walk in SKI's witness order, each coalition that
holds no keys is decided once for both, and once SKI's witness is found
the walk goes on over those coalitions alone, to find KI's.

Coalition checks run in one of two modes:

* maximal (default): test only the largest legal coalition per class.
  Conditioning on more can only lower conditional entropy, so a class
  passes against the maximal coalition iff it passes against every
  sub-coalition.
* exhaustive: test every legal coalition, each on its own joint, with
  no appeal to that argument. Kept as an independent oracle for the
  maximal-mode shortcut. A joint holds at most one cell per support
  row, so for a class with n members, 2**n * (support size + 1) bounds
  the cells and coalitions of its lattice. Before any work, exhaustive
  mode refuses with CoalitionSpaceTooLarge when that bound exceeds
  MAX_LATTICE_WORK for some class.

Witnesses: maximal mode reports the maximal coalition; exhaustive mode
reports the lexicographically smallest failing coalition, ordered by its
secrets first and its keys second, with subsets compared as sorted label
tuples.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator

from .dist import _Coalitions
from .errors import CoalitionSpaceTooLarge, InvalidArgument
from .scheme import CheckReport, Scheme, Witness, key_var, secret_var

MAX_LATTICE_WORK = 2 ** 21


def _sorted_subsets(pool: range) -> list[tuple[int, ...]]:
    """Every subset of pool as an increasing tuple, in lexicographic order,
    the empty one first."""
    return sorted(itertools.chain.from_iterable(
        itertools.combinations(pool, size) for size in range(len(pool) + 1)))


# A coalition against a class: the indices of the members it holds,
# strictly increasing, secrets before keys.
Chosen = tuple[int, ...]


def _first_failure(scheme: Scheme, cls: str, secrets: list[str], keys: list[str],
                   exhaustive: bool, keyless_too: bool
                   ) -> tuple[_Coalitions, Chosen, Chosen | None] | None:
    """Two coalitions against cls, each holding some of these sorted
    secrets and keys: the first that K:cls depends on, and the first
    holding no keys that K:cls depends on (or None), with the engine
    that decided them; or None when K:cls depends on none. Maximal mode
    tests the coalition of them all, and exhaustive mode every non-empty
    one, in witness order. The walk goes on past the first failure, over
    the coalitions holding no keys, only if keyless_too is set; in
    maximal mode that is the coalition of all the secrets. (If the
    coalition of them all passes, so does each of those, as maximal mode
    holds.)"""
    cut = len(secrets)
    coalitions = _Coalitions(scheme.dist, (key_var(cls),), [secret_var(v) for v in secrets]
                             + [key_var(w) for w in keys])
    if exhaustive:
        held_secrets = _sorted_subsets(range(cut))
        key_subsets = _sorted_subsets(range(cut, cut + len(keys)))
    else:
        held_secrets = [tuple(range(cut))]
        key_subsets = [tuple(range(cut, cut + len(keys)))]
    walk = ((i, held + held_keys) for i, held in enumerate(held_secrets)
            for held_keys in key_subsets if held or held_keys)
    i, first = next(((i, chosen) for i, chosen in walk if not coalitions.independent(chosen)),
                    (None, None))
    if first is None:
        return None
    if first[-1] < cut:  # it holds no keys
        return coalitions, first, first
    if not keyless_too:
        return coalitions, first, None
    # Exhaustively, each coalition holding no keys and at most the secrets
    # held by first came before it in the walk.
    rest = held_secrets[i + 1:] if exhaustive else held_secrets
    keyless = next((held for held in rest if held and not coalitions.independent(held)), None)
    return coalitions, first, keyless


def _witness(cls: str, secrets: list[str], keys: list[str], coalitions: _Coalitions,
             chosen: Chosen) -> Witness:
    """The witness of a coalition that _first_failure returned, its floats
    read from the engine that decided it."""
    members = secrets + keys
    held = sum(i < len(secrets) for i in chosen)
    labels = [members[i] for i in chosen]
    return Witness(cls, tuple(labels[:held]), tuple(labels[held:]),
                   coalitions.entropy(), coalitions.conditional_entropy(chosen))


def check_correctness(scheme: Scheme) -> CheckReport:
    """Every class must be able to derive the keys below it.

    For each v and each u accessible from v, the secret of v must
    functionally determine the key of u.
    """
    witnesses: list[Witness] = []
    for v in sorted(scheme.graph.classes):
        label = {key_var(u): u for u in sorted(scheme.graph.accessible_set(v))}
        for var in scheme.dist._undetermined(tuple(label), (secret_var(v),)):
            coalition = _Coalitions(scheme.dist, (var,), [secret_var(v)])
            witnesses.append(Witness(label[var], (v,), (), coalition.entropy(),
                                     coalition.conditional_entropy()))
    return CheckReport(kind="correctness", passed=not witnesses,
                       witnesses=tuple(witnesses))


# A failing coalition, as _witness takes it: the class, its sorted
# forbidden secrets and ancestor keys, the engine and the coalition.
Failure = tuple[str, list[str], list[str], _Coalitions, Chosen]


def _check_coalitions(scheme: Scheme, kinds: tuple[str, ...],
                      exhaustive: bool) -> Iterator[tuple[str, Failure]]:
    """Each key must be independent of every legal coalition against it:
    the (kind, failure) of each class that fails, in class order.

    The coalition against u holds secrets of forbidden_set(u) and, for
    "ski", keys of ancestor_set(u). kinds is ("ki",), ("ski",) or both:
    then one engine per class decides both, KI's coalitions being SKI's
    that hold no keys. The walk is lazy: maximal mode derives a class's
    members only when it reaches the class, and exhaustive mode derives
    them all and refuses, before it decides any coalition.
    """
    graph = scheme.graph
    with_keys = "ski" in kinds
    classes = ((u, sorted(graph.forbidden_set(u)), sorted(graph.ancestor_set(u)) if with_keys
                else []) for u in sorted(graph.classes))
    if exhaustive:
        classes = list(classes)
        rows = scheme.dist.support_size()
        for kind in kinds:  # KI's refusal comes before SKI's
            for u, forbidden, ancestors in classes:
                members = len(forbidden) + (len(ancestors) if kind == "ski" else 0)
                if 2 ** members * (rows + 1) > MAX_LATTICE_WORK:
                    raise CoalitionSpaceTooLarge(
                        f"class {u!r} has {members} coalition members over {rows} support "
                        f"rows: 2**{members} * {rows + 1} exceeds the exhaustive mode's "
                        f"budget of {MAX_LATTICE_WORK}"
                    )
    for u, forbidden, ancestors in classes:
        if forbidden or ancestors:
            found = _first_failure(scheme, u, forbidden, ancestors, exhaustive, len(kinds) > 1)
            if found is None:
                continue
            coalitions, *chosen = found
            # The first failure is the last kind's, and the first holding no
            # keys is KI's when both kinds run.
            for kind, first in zip(kinds[::-1], chosen):
                if first is not None:
                    yield kind, (u, forbidden, ancestors, coalitions, first)


def _reports(scheme: Scheme, kinds: tuple[str, ...], exhaustive: bool) -> list[CheckReport]:
    """One report per kind, from the whole walk, with a witness for each
    failure."""
    witnesses: dict[str, list[Witness]] = {kind: [] for kind in kinds}
    for kind, failure in _check_coalitions(scheme, kinds, exhaustive):
        witnesses[kind].append(_witness(*failure))
    return [CheckReport(kind=kind, passed=not failed, witnesses=tuple(failed))
            for kind, failed in witnesses.items()]


def passes(scheme: Scheme, kind: str) -> bool:
    """check_ki's or check_ski's verdict ("ki" or "ski"), read from the
    walk's first item: the walk stops at the first class that fails, and
    no witness is built."""
    return next(_check_coalitions(scheme, (kind,), False), None) is None


def check_ki(scheme: Scheme, exhaustive: bool = False) -> CheckReport:
    """Keys must be independent of the secrets of any forbidden coalition."""
    return _reports(scheme, ("ki",), exhaustive)[0]


def check_ski(scheme: Scheme, exhaustive: bool = False) -> CheckReport:
    """Keys must stay independent even when ancestors contribute their keys.

    The coalition holds the secrets of classes forbidden to reach u plus
    the keys (not secrets) of classes above u.
    """
    return _reports(scheme, ("ski",), exhaustive)[0]


def check_key_independence(scheme: Scheme) -> CheckReport:
    """All keys taken together must be mutually independent.

    By the chain rule they are iff each key, in sorted order, is
    independent of the keys before it; the first that is not is the
    witness.
    """
    labels = sorted(scheme.graph.classes)
    for i in range(1, len(labels)):
        found = _first_failure(scheme, labels[i], [], labels[:i], False, False)
        if found is not None:
            witness = _witness(labels[i], [], labels[:i], *found[:2])
            return CheckReport(kind="key-indep", passed=False, witnesses=(witness,))
    return CheckReport(kind="key-indep", passed=True, witnesses=())


# Each check kind, in the order "all" reports them, and how to run it on
# a scheme in a coalition mode (exhaustive or not).
CHECK_KINDS: dict[str, Callable[[Scheme, bool], CheckReport]] = {
    "correctness": lambda scheme, exhaustive: check_correctness(scheme),
    "ki": check_ki,
    "ski": check_ski,
    "key-indep": lambda scheme, exhaustive: check_key_independence(scheme),
}


def run_checks(scheme: Scheme, mode: str = "all", exhaustive: bool = False) -> list[CheckReport]:
    """Run one named check, or all four in a fixed order. "all" decides KI
    and SKI on one engine per class, first, so that exhaustive mode
    refuses before any work."""
    if mode == "all":
        ki, ski = _reports(scheme, ("ki", "ski"), exhaustive)
        return [check_correctness(scheme), ki, ski, check_key_independence(scheme)]
    if mode not in CHECK_KINDS:
        raise InvalidArgument(f"unknown check mode {mode!r}")
    return [CHECK_KINDS[mode](scheme, exhaustive)]
