"""Scheme generators for a given access graph.

All generators share one construction: enumerate key tuples over the
classes (sorted by label) and give every class the secret

    S_u = tuple of (v, k_v) pairs for v in accessible_set(u), sorted by label,

so a class's secret spells out every key it may derive and correctness
holds by construction. The generators differ in the distribution over
key tuples and in deliberate defects:

* gen_trivial: independent uniform keys over {0..q-1}; passes all checks.
* gen_leaky: like trivial, but one leaker's secret also carries the key
  of a class the leaker must not reach; correctness still holds, KI fails.
* gen_correlated: forces k_u == k_w for one pair; key independence fails.
* gen_random_correct: seeded; either the uniform product distribution or
  a 64-ball multinomial over key tuples (all probabilities have
  denominator at most 64). Correct by construction; KI may or may not
  hold.

One core, _scheme, knows each value's code and so builds every scheme
in the distribution's int-coded form (see dist), with no per-row dict.

Determinism: gen_random_correct uses splitmix64 seeded by the given
integer, so equal inputs produce byte-identical serialized schemes.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from operator import itemgetter
from typing import Iterable

from .dist import _build, _getter
from .errors import InvalidArgument, InvalidLeak, SupportTooLarge
from .graph import AccessGraph
from .scheme import Scheme, _variables, max_support_size

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64 PRNG: tiny, fast, and reproducible across platforms."""

    GAMMA = 0x9E3779B97F4A7C15
    MIX1 = 0xBF58476D1CE4E5B9
    MIX2 = 0x94D049BB133111EB

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + self.GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * self.MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * self.MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_below(self, n: int) -> int:
        """Unbiased draw from range(n) via rejection sampling."""
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n


def _check_q(q: int) -> None:
    if q < 2:
        raise InvalidArgument(f"q must be at least 2, got {q}")


def _check_bound(q: int, exponent: int) -> int:
    """The number q**exponent of key tuples, if within the support bound."""
    total = q ** exponent
    bound = max_support_size()
    if total > bound:
        raise SupportTooLarge(
            f"q**{exponent} = {total} key tuples with q={q} "
            f"exceeds the support bound {bound}"
        )
    return total


def _secret_members(graph: AccessGraph) -> dict[str, tuple[str, ...]]:
    return {
        u: tuple(sorted(graph.accessible_set(u)))
        for u in graph.classes
    }


def _scheme(graph: AccessGraph, members: dict[str, tuple[str, ...]],
            weighted_keys: Iterable[tuple[tuple[int, ...], Fraction]]) -> Scheme:
    """The generator core: one support row per weighted key tuple, built
    directly in the distribution's int-coded form.

    Key tuples are aligned with the sorted class labels and strictly
    increase; the secret of u lists (v, k_v) for every v in members[u].
    A key's code is its rank among its class's keys on the support, and
    a secret's the rank of its members' key tuple, as its labels are
    fixed. So the rows are canonical in the order given, which _build
    and the constructor check. Secrets share one tuple per (v, k_v), so
    serialize_scheme encodes each pair once.
    """
    labels = tuple(sorted(graph.classes))
    position = {u: i for i, u in enumerate(labels)}
    combos, weights = zip(*weighted_keys)
    pairs: dict[tuple[str, int], tuple[str, int]] = {}  # one tuple per (v, k_v)
    columns, decoding = [], []
    # Every K:u, then every S:u with its members' labels: the variables' order.
    for i, names in enumerate([None] * len(labels) + [members[u] for u in labels]):
        pick = itemgetter(i) if names is None else _getter([position[v] for v in names])
        column = list(map(pick, combos))
        values = sorted(set(column))
        rank = {value: code for code, value in enumerate(values)}
        codes = map(rank.__getitem__, column)
        # Codes below 256 pack into bytes, which zip reads back as the
        # interpreter's shared small ints: the rows hold the same objects.
        columns.append(bytes(codes) if len(values) <= 256 else list(codes))
        decoding.append(tuple(values) if names is None else tuple(
            [tuple([pairs.setdefault(pair, pair) for pair in zip(names, keys)])
             for keys in values]))
        del column  # free the per-row values before the next column is built
    del combos  # and the key tuples before the rows are zipped
    return Scheme(graph, _build(_variables(graph), tuple(decoding), list(zip(*columns)),
                                weights, 1))


def _uniform_scheme(graph: AccessGraph, q: int,
                    members: dict[str, tuple[str, ...]]) -> Scheme:
    """Independent uniform keys over {0..q-1}, secrets spelling out members."""
    size = len(graph.classes)
    p = Fraction(1, _check_bound(q, size))
    combos = itertools.product(range(q), repeat=size)
    return _scheme(graph, members, ((combo, p) for combo in combos))


def gen_trivial(graph: AccessGraph, q: int) -> Scheme:
    """Independent uniform keys; passes correctness, KI, SKI, key-indep."""
    _check_q(q)
    return _uniform_scheme(graph, q, _secret_members(graph))


def gen_leaky(graph: AccessGraph, q: int, target: str, leaker: str) -> Scheme:
    """Trivial scheme plus a leak: the leaker's secret carries the target's key.

    The leaker must belong to forbidden_set(target), otherwise the leak
    would be legitimate access and InvalidLeak is raised. Correctness
    still passes; KI fails at the target with the leaker as witness.
    """
    _check_q(q)
    graph._check_class(target)
    graph._check_class(leaker)
    if leaker not in graph.forbidden_set(target):
        raise InvalidLeak(
            f"class {leaker!r} can already access {target!r}; "
            f"a leak needs a forbidden pair"
        )
    members = _secret_members(graph)
    members[leaker] = tuple(sorted(set(members[leaker]) | {target}))
    return _uniform_scheme(graph, q, members)


def gen_correlated(graph: AccessGraph, q: int, u: str, w: str) -> Scheme:
    """Trivial scheme with k_u == k_w forced; key independence fails.

    The pair is unordered. Support size is q**(len(classes)-1).
    """
    _check_q(q)
    graph._check_class(u)
    graph._check_class(w)
    if u == w:
        raise InvalidLeak("correlated pair must name two distinct classes")
    labels = sorted(graph.classes)
    free = labels.index(min(u, w))
    forced = labels.index(max(u, w))
    p = Fraction(1, _check_bound(q, len(labels) - 1))
    # Tuples range over every class but the forced one. free < forced, so
    # the free key keeps its own index; a copy is inserted at forced's.
    combos = itertools.product(range(q), repeat=len(labels) - 1)
    return _scheme(graph, _secret_members(graph), (
        (combo[:forced] + (combo[free],) + combo[forced:], p) for combo in combos
    ))


def gen_random_correct(graph: AccessGraph, q: int, seed: int) -> Scheme:
    """Seeded correct-by-construction scheme with small denominators.

    One PRNG bit selects the shape: the uniform product distribution over
    key tuples, or a multinomial from dropping 64 balls onto the q**n key
    tuples (probabilities count/64). Raises SupportTooLarge when q**n
    exceeds the support bound, regardless of seed, so failure does not
    depend on the drawn branch.
    """
    _check_q(q)
    size = len(graph.classes)
    total = _check_bound(q, size)
    members = _secret_members(graph)
    rng = SplitMix64(seed)
    if rng.next_u64() & 1:
        return _uniform_scheme(graph, q, members)
    counts: dict[int, int] = {}
    for _ in range(64):
        index = rng.next_below(total)
        counts[index] = counts.get(index, 0) + 1
    # Key tuple number `index` of the product order: its base-q digits,
    # the first label most significant.
    return _scheme(graph, members, [
        (tuple([index // q ** (size - 1 - i) % q for i in range(size)]),
         Fraction(counts[index], 64))
        for index in sorted(counts)
    ])
