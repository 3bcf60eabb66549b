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
in the distribution's int-coded form (see dist), with no per-row dict
and with int weights over one int total, as dist._build takes them.

Determinism: gen_random_correct uses splitmix64 seeded by the given
integer, so equal inputs produce byte-identical serialized schemes. The
seed must lie in range(2**64), so that each seed names one scheme. Its
branch and draw live in _random, which harness.build_corpus shares, and
SplitMix64._draws is the one rejection sampler.
"""

from __future__ import annotations

import itertools
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
        return self._draws(1 << 64, 1)[0]

    def next_below(self, n: int) -> int:
        """Unbiased draw from range(n) via rejection sampling."""
        return self._draws(n, 1)[0]

    def _draws(self, n: int, count: int) -> list[int]:
        """count unbiased draws from range(n), 0 < n <= 2**64: each output
        word below the largest multiple of n that fits in 64 bits gives one
        draw, and every other word is rejected."""
        if not 0 < n <= 1 << 64:
            raise ValueError(f"n must be in 1..2**64, got {n}")
        limit = (1 << 64) - (1 << 64) % n
        gamma, mix1, mix2 = self.GAMMA, self.MIX1, self.MIX2
        state = self.state
        draws: list[int] = []
        while len(draws) < count:
            state = (state + gamma) & _MASK64
            z = ((state ^ (state >> 30)) * mix1) & _MASK64
            z = ((z ^ (z >> 27)) * mix2) & _MASK64
            z ^= z >> 31
            if z < limit:
                draws.append(z % n)
        self.state = state
        return draws


def _check_q(q: int) -> None:
    if q < 2:
        raise InvalidArgument(f"q must be at least 2, got {q}")


def _check_seed(seed: int) -> None:
    """splitmix64 reads the seed as one 64-bit word; any other int would
    alias one, so it is refused rather than reduced."""
    if not 0 <= seed <= _MASK64:
        raise InvalidArgument(f"seed must be in range(2**64), got {seed}")


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
            weighted_keys: Iterable[tuple[tuple[int, ...], int]], total: int) -> Scheme:
    """The generator core: one support row per weighted key tuple, with
    probability its int weight over total, built directly in the
    distribution's int-coded form.

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
                                weights, total))


def _uniform_scheme(graph: AccessGraph, q: int,
                    members: dict[str, tuple[str, ...]]) -> Scheme:
    """Independent uniform keys over {0..q-1}, secrets spelling out members."""
    size = len(graph.classes)
    total = _check_bound(q, size)
    combos = itertools.product(range(q), repeat=size)
    return _scheme(graph, members, ((combo, 1) for combo in combos), total)


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
    total = _check_bound(q, len(labels) - 1)
    # Tuples range over every class but the forced one. free < forced, so
    # the free key keeps its own index; a copy is inserted at forced's.
    combos = itertools.product(range(q), repeat=len(labels) - 1)
    return _scheme(graph, _secret_members(graph), (
        (combo[:forced] + (combo[free],) + combo[forced:], 1) for combo in combos
    ), total)


def _draw_size(graph: AccessGraph, q: int) -> int:
    """The number q**n of key tuples a random scheme is drawn over. Raises
    InvalidArgument for q < 2, and SupportTooLarge when q**n exceeds the
    support bound or 2**64, the most that one 64-bit word can index."""
    _check_q(q)
    size = len(graph.classes)
    total = _check_bound(q, size)
    if total > 1 << 64:
        raise SupportTooLarge(
            f"q**{size} = {total} key tuples with q={q} "
            f"exceeds 2**64, the most a 64-bit draw can index"
        )
    return total


def _random(graph: AccessGraph, q: int, seed: int, members: dict[str, tuple[str, ...]],
            total: int, uniform: Scheme | None) -> Scheme:
    """gen_random_correct's scheme for this seed, given its secret members
    and the total from _draw_size. uniform, when not None, is the
    uniform branch's scheme, _uniform_scheme(graph, q, members), made
    once by the caller; a multinomial draw never builds it."""
    rng = SplitMix64(seed)
    if rng.next_u64() & 1:
        return uniform if uniform is not None else _uniform_scheme(graph, q, members)
    size = len(graph.classes)
    # Key tuple number `index` of the product order: its base-q digits,
    # the first label most significant.
    powers = [q ** (size - 1 - i) for i in range(size)]
    return _scheme(graph, members, [
        (tuple([index // power % q for power in powers]), len(list(balls)))
        for index, balls in itertools.groupby(sorted(rng._draws(total, 64)))
    ], 64)


def gen_random_correct(graph: AccessGraph, q: int, seed: int) -> Scheme:
    """Seeded correct-by-construction scheme with small denominators.

    One PRNG bit selects the shape: the uniform product distribution over
    key tuples, or a multinomial from dropping 64 balls onto the q**n key
    tuples (probabilities count/64). Raises InvalidArgument for a seed
    outside range(2**64), then as _draw_size does, whatever the seed, so
    failure does not depend on the drawn branch.
    """
    _check_seed(seed)
    total = _draw_size(graph, q)
    return _random(graph, q, seed, _secret_members(graph), total, None)
