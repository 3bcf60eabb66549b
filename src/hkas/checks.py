"""Security checks over schemes: correctness, KI, SKI, key independence.

All verdicts are decided with exact rational arithmetic; witness floats
only report, and are read from the joint that decided the coalition.
Correctness is decided once per secret, in one scan over the keys it must fix.

KI and SKI share one coalition check. Against class u, an SKI coalition
holds the secrets of classes in forbidden_set(u) and the keys of classes
in ancestor_set(u); KI is SKI with no keys held. Each coalition is
decided on its own joint with K:u, through dist._Coalitions: one scan
of the support per class builds the joint of the largest coalition, and
each smaller one is summed from a joint one member larger.

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
from typing import Callable, Iterable

from .dist import _Coalitions
from .errors import CoalitionSpaceTooLarge, InvalidArgument
from .scheme import CheckReport, Scheme, Witness, key_var, secret_var

MAX_LATTICE_WORK = 2 ** 21


def _sorted_subsets(pool: range) -> list[tuple[int, ...]]:
    """Every subset of pool as an increasing tuple, in lexicographic order,
    the empty one first."""
    return sorted(itertools.chain.from_iterable(
        itertools.combinations(pool, size) for size in range(len(pool) + 1)))


def _first_failure(scheme: Scheme, cls: str, secrets: list[str], keys: list[str],
                   exhaustive: bool) -> Witness | None:
    """The witness of the first coalition against cls, holding some of these
    sorted secrets and keys, that K:cls depends on, or None. Maximal mode
    tests the coalition of them all; exhaustive mode tests every non-empty
    one, in witness order."""
    members = secrets + keys
    coalitions = _Coalitions(scheme.dist, (key_var(cls),), [secret_var(v) for v in secrets]
                             + [key_var(w) for w in keys])
    if exhaustive:
        key_subsets = _sorted_subsets(range(len(secrets), len(members)))
        order: Iterable[tuple[int, ...]] = (
            held + held_keys
            for held in _sorted_subsets(range(len(secrets)))
            for held_keys in key_subsets
            if held or held_keys
        )
    else:
        order = [tuple(range(len(members)))]
    for chosen in order:
        if not coalitions.independent(chosen):
            labels = [members[i] for i in chosen]
            cut = sum(i < len(secrets) for i in chosen)
            return Witness(cls, tuple(labels[:cut]), tuple(labels[cut:]),
                           coalitions.entropy(), coalitions.conditional_entropy(chosen))
    return None


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


def _check_coalitions(scheme: Scheme, kind: str, with_keys: bool,
                      exhaustive: bool) -> CheckReport:
    """Each key must be independent of every legal coalition against it.

    The coalition against u holds secrets of forbidden_set(u) and, when
    with_keys is set, keys of ancestor_set(u).
    """
    graph = scheme.graph
    rows = scheme.dist.support_size()
    classes = []
    for u in sorted(graph.classes):
        forbidden = sorted(graph.forbidden_set(u))
        ancestors = sorted(graph.ancestor_set(u)) if with_keys else []
        members = len(forbidden) + len(ancestors)
        if exhaustive and 2 ** members * (rows + 1) > MAX_LATTICE_WORK:
            raise CoalitionSpaceTooLarge(
                f"class {u!r} has {members} coalition members over {rows} support "
                f"rows: 2**{members} * {rows + 1} exceeds the exhaustive mode's "
                f"budget of {MAX_LATTICE_WORK}"
            )
        if members:
            classes.append((u, forbidden, ancestors))
    witnesses = [witness for u, forbidden, ancestors in classes
                 if (witness := _first_failure(scheme, u, forbidden, ancestors, exhaustive))]
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
        witness = _first_failure(scheme, labels[i], [], labels[:i], exhaustive=False)
        if witness is not None:
            return CheckReport(kind="key-indep", passed=False, witnesses=(witness,))
    return CheckReport(kind="key-indep", passed=True, witnesses=())


# Each check kind, in the order "all" runs them, and how to run it on a
# scheme in a coalition mode (exhaustive or not).
CHECK_KINDS: dict[str, Callable[[Scheme, bool], CheckReport]] = {
    "correctness": lambda scheme, exhaustive: check_correctness(scheme),
    "ki": check_ki,
    "ski": check_ski,
    "key-indep": lambda scheme, exhaustive: check_key_independence(scheme),
}


def run_checks(scheme: Scheme, mode: str = "all", exhaustive: bool = False) -> list[CheckReport]:
    """Run one named check, or all four in a fixed order."""
    if mode != "all" and mode not in CHECK_KINDS:
        raise InvalidArgument(f"unknown check mode {mode!r}")
    return [CHECK_KINDS[kind](scheme, exhaustive)
            for kind in (CHECK_KINDS if mode == "all" else (mode,))]
