"""Security checks over schemes: correctness, KI, SKI, key independence.

All verdicts are decided with exact rational arithmetic; witness floats
only report, and are read from the joint that decided the coalition.
Correctness is decided once per secret, in one scan over the keys it must fix.
Variables are addressed by index: the i-th of n classes in label order
has its key at i and its secret at n + i, and the graph gives each
class's sets as increasing positions. Classes are named only in witnesses.

KI and SKI share one coalition check. Against class u, an SKI coalition
holds the secrets of classes in forbidden_set(u) and the keys of classes
in ancestor_set(u); KI is SKI with no keys held. A report (check_ki,
check_ski, run_checks) drains one lazy walk over the classes, which
yields each failing class's coalition in class order, and builds each
one's witness. Each coalition is decided on its own joint with K:u,
through dist._Coalitions: one coding pass of the support per class
plans the joint of the largest coalition, the scheme's weights weigh
it, and each smaller joint is summed from a joint one member larger.
run_checks' "all" mode builds one engine per class, over SKI's members,
and decides KI from it too: in one walk in SKI's witness order, each
coalition that holds no keys is decided once for both, and once SKI's
witness is found the walk goes on over those coalitions alone, to find
KI's.

A verdict (passes) is read through a _Family, which decides weightings
of one scheme's rows on plans coded once per class; passes weighs them
by the scheme's own weights. It walks maximal mode's coalitions, stops
at the first class that fails and builds no witness.

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
from typing import Callable, Iterator, Sequence

from .dist import _Coalitions, _Plan
from .errors import CoalitionSpaceTooLarge, InvalidArgument
from .graph import AccessGraph
from .scheme import CheckReport, Scheme, Witness

MAX_LATTICE_WORK = 2 ** 21


def _sorted_subsets(pool: range) -> list[tuple[int, ...]]:
    """Every subset of pool as an increasing tuple, in lexicographic order,
    the empty one first."""
    return sorted(itertools.chain.from_iterable(
        itertools.combinations(pool, size) for size in range(len(pool) + 1)))


# A coalition against a class: the indices of the members it holds,
# strictly increasing, secrets before keys.
Chosen = tuple[int, ...]


def _first_failure(scheme: Scheme, key: int, secrets: list[int], keys: list[int],
                   exhaustive: bool, keyless_too: bool, coalitions: _Coalitions | None = None
                   ) -> tuple[_Coalitions, Chosen, Chosen | None] | None:
    """Two coalitions against the key at index key, each holding some of
    these secrets and keys (increasing variable indices): the first that
    the key depends on, and the first holding no keys that it depends on
    (or None), with the engine that decided them (coalitions, when
    given, else the scheme's own); or None when it depends on none.
    Maximal mode tests the coalition of them all, and exhaustive mode
    every non-empty one, in witness order. The walk goes on past the
    first failure, over the coalitions holding no keys, only if
    keyless_too is set; in maximal mode that is the coalition of all the
    secrets. (If the coalition of them all passes, so does each of those,
    as maximal mode holds.)"""
    cut = len(secrets)
    if coalitions is None:
        coalitions = _Coalitions(scheme.dist, (key,), secrets + keys)
    subsets = _sorted_subsets if exhaustive else lambda pool: [tuple(pool)]
    held_secrets, key_subsets = subsets(range(cut)), subsets(range(cut, cut + len(keys)))
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


def _witness(labels: tuple[str, ...], key: int, secrets: list[int], keys: list[int],
             coalitions: _Coalitions, chosen: Chosen) -> Witness:
    """The witness of a coalition that _first_failure returned, its floats
    read from the engine that decided it; variable v is of class labels[v % n]."""
    members = secrets + keys
    held = sum(i < len(secrets) for i in chosen)
    names = [labels[members[i] % len(labels)] for i in chosen]
    return Witness(labels[key], tuple(names[:held]), tuple(names[held:]),
                   coalitions.entropy(), coalitions.conditional_entropy(chosen))


def check_correctness(scheme: Scheme) -> CheckReport:
    """Every class must be able to derive the keys below it.

    For each v and each u accessible from v, the secret of v must
    functionally determine the key of u.
    """
    graph = scheme.graph
    witnesses: list[Witness] = []
    for secret, v in enumerate(graph._labels, len(graph.classes)):
        for key in scheme.dist._undetermined(graph._positions(v, "accessible"), (secret,)):
            coalition = _Coalitions(scheme.dist, (key,), (secret,))
            witnesses.append(Witness(graph._labels[key], (v,), (), coalition.entropy(),
                                     coalition.conditional_entropy()))
    return CheckReport(kind="correctness", passed=not witnesses,
                       witnesses=tuple(witnesses))


def _classes(graph: AccessGraph, kinds: tuple[str, ...]
             ) -> Iterator[tuple[int, list[int], list[int]]]:
    """Each class's index and the members of the coalitions against it,
    lazily, in class order: the secrets of forbidden_set(u) and, for
    "ski", the keys of ancestor_set(u), as variable indices."""
    n = len(graph.classes)
    return ((i, [n + v for v in graph._positions(u, "forbidden")],
             graph._positions(u, "ancestor") if "ski" in kinds else [])
            for i, u in enumerate(graph._labels))


def _check_coalitions(scheme: Scheme, kinds: tuple[str, ...],
                      exhaustive: bool) -> Iterator[tuple[str, tuple]]:
    """Each key must be independent of every legal coalition against it:
    the (kind, failure) of each class that fails, in class order, the
    failure being _witness's arguments after the labels.

    The coalition against u holds secrets of forbidden_set(u) and, for
    "ski", keys of ancestor_set(u). kinds is ("ki",), ("ski",) or both:
    then one engine per class decides both, KI's coalitions being SKI's
    that hold no keys. The walk is lazy: maximal mode derives a class's
    members only when it reaches the class, and exhaustive mode derives
    them all and refuses, before it decides any coalition.
    """
    graph = scheme.graph
    classes = _classes(graph, kinds)
    if exhaustive:
        classes = list(classes)
        rows = scheme.dist.support_size()
        for kind in kinds:  # KI's refusal comes before SKI's
            for i, forbidden, ancestors in classes:
                members = len(forbidden) + (len(ancestors) if kind == "ski" else 0)
                if 2 ** members * (rows + 1) > MAX_LATTICE_WORK:
                    raise CoalitionSpaceTooLarge(
                        f"class {graph._labels[i]!r} has {members} coalition members over "
                        f"{rows} support rows: 2**{members} * {rows + 1} exceeds the "
                        f"exhaustive mode's budget of {MAX_LATTICE_WORK}"
                    )
    for i, forbidden, ancestors in classes:
        if forbidden or ancestors:
            found = _first_failure(scheme, i, forbidden, ancestors, exhaustive, len(kinds) > 1)
            if found is None:
                continue
            coalitions, *chosen = found
            # The first failure is the last kind's, and the first holding no
            # keys is KI's when both kinds run.
            for kind, first in zip(kinds[::-1], chosen):
                if first is not None:
                    yield kind, (i, forbidden, ancestors, coalitions, first)


def _reports(scheme: Scheme, kinds: tuple[str, ...], exhaustive: bool) -> list[CheckReport]:
    """One report per kind, from the whole walk, with a witness for each
    failure."""
    witnesses: dict[str, list[Witness]] = {kind: [] for kind in kinds}
    for kind, failure in _check_coalitions(scheme, kinds, exhaustive):
        witnesses[kind].append(_witness(scheme.graph._labels, *failure))
    return [CheckReport(kind=kind, passed=not failed, witnesses=tuple(failed))
            for kind, failed in witnesses.items()]


class _Family:
    """KI's or SKI's verdict (kind "ki" or "ski") on weightings of one
    scheme's rows: the schemes with its graph, keys and secrets and other
    positive int weights, as _Plan.weigh reads them. Each class's members
    are derived, and its plan coded, once, when a walk first reaches the
    class; a weighting only weighs the plans. A walk is maximal mode's,
    in class order: it stops at the first class that fails, and builds
    no witness."""

    def __init__(self, scheme: Scheme, kind: str) -> None:
        self.scheme, self.kind = scheme, kind
        self._unreached = _classes(scheme.graph, (kind,))
        self._reached: list[tuple[int, list[int], list[int], _Plan]] = []

    def _walk(self) -> Iterator[tuple[int, list[int], list[int], _Plan]]:
        """Each class with a coalition against it, in class order, with
        its secrets, its keys and its plan."""
        yield from self._reached
        for i, secrets, keys in self._unreached:
            if secrets or keys:
                self._reached.append((i, secrets, keys,
                                      self.scheme.dist._plan(secrets + keys, (i,))))
                yield self._reached[-1]

    def passes(self, weights: Sequence[int], rows: Sequence[int] | None = None) -> bool:
        """The verdict at these weights, one per row or, given rows, one
        per row listed."""
        return not any(_first_failure(self.scheme, i, secrets, keys, False, False,
                                      _Coalitions.weighed(plan, weights, rows))
                       for i, secrets, keys, plan in self._walk())


def passes(scheme: Scheme, kind: str) -> bool:
    """check_ki's or check_ski's verdict ("ki" or "ski"): the scheme
    weighed by its own weights, as its _Family reads it."""
    return _Family(scheme, kind).passes(scheme.dist.weights)


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
    labels = scheme.graph._labels
    for i in range(1, len(labels)):
        found = _first_failure(scheme, i, [], list(range(i)), False, False)
        if found is not None:
            witness = _witness(labels, i, [], list(range(i)), *found[:2])
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
