"""Finite joint distributions with exact rational probabilities.

A JointDistribution stores an explicit support: every outcome with
positive probability, probabilities as Fractions summing to exactly 1.
Queries never do Fraction arithmetic: each distribution lazily computes
the common denominator D (the lcm of the denominators) and an int weight
w = p * D per outcome, and decides verdicts (independence, functional
determination) exactly on these ints. Entropies are floats, converted
only at the final step of each term, and equal those of the Fraction
formulas bit for bit: a term needs p = w / D and p(t,g) / p(g) =
w_tg / w_g, and int / int true division is correctly rounded, as is
float(Fraction).

Queries never hash or compare outcome values either. from_rows validates
and sort-keys each distinct value object once (memoised by identity), and
codes each value as its rank among its variable's distinct values. Each
distribution keeps the rank tuples of its outcomes as a second cached
view (_codes), in canonical order: a tuple's sort key is the tuple of its
items' keys, so sorting rank tuples sorts outcomes canonically. Every
query reads that view, so its joint keys are flat int tuples; marginal
maps its codes back to values. A reader that has ranked the values
itself (the scheme loader's row template) builds a distribution from
the rank tuples with _from_codes, which checks their order.

Entropy and independence queries wrap one private query, _query: one
pass over the support sums the joint of (givens, parts), and independence,
H(parts | givens) and each H(part) are read from that joint and from
marginals summed from it once, only when first needed.

Entropies use log base 2. Conditional entropy is computed directly from
its definition, H(T|G) = -sum p(t,g) log2(p(t,g)/p(g)), not as a
difference of entropies, so chain-rule identities are genuinely checked
by the test suite rather than holding by construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter, lt
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from .errors import (
    DistributionError,
    DuplicateOutcome,
    EmptyVariableSet,
    OverlappingVariableSets,
    ProbabilityError,
    UnknownVariable,
)
from .jsonutil import Value, value_sort_key

Codes = tuple[int, ...]
Counts = dict[Codes, int]
# Per variable: id(value) -> (value, value_sort_key(value)). The entry
# holds the value, so its id is not reused while the memo lives.
SortKeyMemo = dict[int, tuple[Value, tuple]]
# Per variable, its distinct values in sort-key order: a value's code is
# its index.
Decoding = tuple[tuple[Value, ...], ...]


def _neg_fsum(terms: Iterable[float]) -> float:
    # "+ 0.0" normalizes -0.0 so exact-zero entropies print as 0.0.
    return -math.fsum(terms) + 0.0


def _getter(positions: Sequence[int]) -> Callable[[Codes], Codes]:
    """The function that picks the codes at positions (at least one) as a tuple."""
    if len(positions) == 1:
        return itemgetter(slice(positions[0], positions[0] + 1))
    return itemgetter(*positions)


def _aggregate(pairs: Iterable[tuple[Codes, int]], positions: Sequence[int]) -> Counts:
    """Sum (codes, weight) pairs by the codes at positions."""
    pick = _getter(positions)
    agg: Counts = {}
    for codes, w in pairs:
        key = pick(codes)
        agg[key] = agg.get(key, 0) + w
    return agg


def _remember(memos: list[SortKeyMemo], outcome: tuple[Value, ...]) -> None:
    """Validate and sort-key each value of outcome not met before, by identity.

    Raises UnsupportedValue for anything but ints, strs and tuples of
    them; equality is never consulted, since True == 1 and 1.0 == 1.
    """
    for memo, value in zip(memos, outcome):
        if id(value) not in memo:
            memo[id(value)] = (value, value_sort_key(value))


def _rank(memo: Mapping[Hashable, tuple[Value, tuple]]) -> tuple[dict[Hashable, int],
                                                                  tuple[Value, ...]]:
    """Ranks of one variable's values, from a memo that maps a handle of
    each value met (its id, or the text it was read from) to the value and
    its sort key: the rank of each handle's value among the distinct
    values, and those values in rank order."""
    value_of = {key: value for value, key in memo.values()}
    keys = sorted(value_of)
    rank_of = {key: rank for rank, key in enumerate(keys)}
    return ({handle: rank_of[key] for handle, (_, key) in memo.items()},
            tuple([value_of[key] for key in keys]))


def _encode(memos: list[SortKeyMemo],
            outcomes: Iterable[tuple[Value, ...]]) -> tuple[list[Codes], Decoding]:
    """Outcomes as rank tuples, and the decoding, from the memos of their values."""
    ranks_by_id, decoding = zip(*map(_rank, memos))
    codes = [tuple([ranks[id(value)] for ranks, value in zip(ranks_by_id, outcome)])
             for outcome in outcomes]
    return codes, decoding


def _canonical(variables: tuple[str, ...], decoding: Decoding,
               rows: Iterable[tuple[Codes, tuple[Value, ...], Fraction]]) -> "JointDistribution":
    """The distribution of rows (codes, outcome, p), in code order, with
    its int-coded view set from the codes and the decoding."""
    codes, outcomes, probs = zip(*sorted(rows, key=itemgetter(0)))
    dist = JointDistribution(variables=variables, outcomes=outcomes, probs=probs)
    # What the cached property would compute; it lives in the instance dict.
    object.__setattr__(dist, "_codes", (codes, decoding))
    return dist


def _from_codes(variables: tuple[str, ...], decoding: Decoding, codes: list[Codes],
                probs: list[Fraction]) -> "JointDistribution":
    """The distribution whose i-th row holds the values codes[i] picks
    from decoding, with the positive probability probs[i]. Raises a
    DistributionError unless the codes strictly increase, so the rows
    are distinct and in canonical order, and the probabilities sum to
    exactly 1."""
    if not all(map(lt, codes, itertools.islice(codes, 1, None))):
        raise DistributionError("rows are not in strictly increasing canonical order")
    outcomes = [tuple(map(tuple.__getitem__, decoding, row)) for row in codes]
    dist = _canonical(variables, decoding, zip(codes, outcomes, probs))
    total, weights = dist._weights
    if sum(weights) != total:
        raise ProbabilityError(f"probabilities sum to {Fraction(sum(weights), total)}, expected 1")
    return dist


@dataclass(frozen=True)
class _Query:
    """Weights of (givens, parts) out of total from one scan of the support.

    The givens fill the first cut values of each joint key; spans slices
    out each group, the givens first when non-empty, then each part.
    """

    joint: Counts
    cut: int
    spans: list[tuple[int, int]]
    total: int

    @cached_property
    def _margs(self) -> list[Counts]:
        return [_aggregate(self.joint.items(), range(start, stop))
                for start, stop in self.spans]

    @cached_property
    def independent(self) -> bool:
        """Whether the groups are mutually independent; fewer than two are.

        For k groups, p(key) == prod p(group) reads w * total**(k-1) == prod w_group.
        """
        if len(self.spans) < 2:
            return True
        margs = self._margs
        if len(self.joint) != math.prod(len(marg) for marg in margs):
            return False
        scale = self.total ** (len(self.spans) - 1)
        for key, w in self.joint.items():
            product = 1
            for (start, stop), marg in zip(self.spans, margs):
                product *= marg[key[start:stop]]
            if w * scale != product:
                return False
        return True

    @cached_property
    def conditional_entropy(self) -> float:
        """H(parts | givens) = -sum p(t,g) log2(p(t,g) / p(g)), in bits."""
        cut, total = self.cut, self.total
        given = self._margs[0] if cut else {(): total}
        return _neg_fsum(w / total * math.log2(w / given[key[:cut]])
                         for key, w in self.joint.items())

    @cached_property
    def part_entropies(self) -> list[float]:
        """H(part) of each part, in bits."""
        total = self.total
        return [_neg_fsum(w / total * math.log2(w / total) for w in marg.values())
                for marg in self._margs[bool(self.cut):]]


@dataclass(frozen=True)
class JointDistribution:
    """Canonical finite joint distribution.

    variables are sorted; outcomes are value tuples aligned with the
    variables and sorted canonically; probs are positive Fractions that
    sum to 1. Equality of two distributions is equality of these fields.
    The integer views the queries read (_weights, and _codes: each
    outcome as a tuple of int ranks) and the variable index are cached
    properties, not fields, so they never enter == or hash.
    """

    variables: tuple[str, ...]
    outcomes: tuple[tuple[Value, ...], ...]
    probs: tuple[Fraction, ...]

    @staticmethod
    def from_rows(rows: Iterable[tuple[Mapping[str, Value], Fraction]]) -> "JointDistribution":
        """Build from (assignment, probability) pairs.

        Every assignment must cover the same variable set; probabilities
        must be positive and sum to exactly 1; assignments must be unique.
        """
        materialized = list(rows)
        if not materialized:
            raise ProbabilityError("a distribution needs at least one outcome")
        variables = tuple(sorted(materialized[0][0]))
        if not variables:
            raise EmptyVariableSet("outcomes must assign at least one variable")
        varset = set(variables)
        memos: list[SortKeyMemo] = [{} for _ in variables]
        table: dict[tuple[Value, ...], Fraction] = {}
        for assignment, raw_p in materialized:
            if set(assignment) != varset:
                extra = sorted(set(assignment) - varset)
                missing = sorted(varset - set(assignment))
                raise UnknownVariable(
                    f"outcome variables differ from {sorted(varset)}: "
                    f"extra {extra}, missing {missing}"
                )
            p = Fraction(raw_p)
            if p <= 0:
                raise ProbabilityError(f"probability must be positive, got {raw_p}")
            outcome = tuple([assignment[var] for var in variables])
            _remember(memos, outcome)  # before hashing: rejects lists, bools
            if outcome in table:
                raise DuplicateOutcome(f"outcome {outcome!r} appears more than once")
            table[outcome] = p
        total = sum(table.values())
        if total != 1:
            raise ProbabilityError(f"probabilities sum to {total}, expected 1")
        codes, decoding = _encode(memos, table)
        return _canonical(variables, decoding, zip(codes, table, table.values()))

    def support_size(self) -> int:
        return len(self.outcomes)

    def rows(self) -> list[tuple[dict[str, Value], Fraction]]:
        """Outcomes as dicts, in canonical order."""
        return [
            (dict(zip(self.variables, outcome)), p)
            for outcome, p in zip(self.outcomes, self.probs)
        ]

    @cached_property
    def _index(self) -> dict[str, int]:
        return {var: i for i, var in enumerate(self.variables)}

    def _resolve(self, variables: Iterable[str], allow_empty: bool = False) -> tuple[str, ...]:
        ordered = tuple(sorted(set(variables)))
        if not ordered and not allow_empty:
            raise EmptyVariableSet("at least one variable is required")
        for var in ordered:
            if var not in self._index:
                raise UnknownVariable(f"unknown variable {var!r}")
        return ordered

    @cached_property
    def _weights(self) -> tuple[int, tuple[int, ...]]:
        """(D, w): D is the lcm of the denominators and w[i] == probs[i] * D."""
        total = math.lcm(*(p.denominator for p in self.probs))
        return total, tuple(p.numerator * (total // p.denominator) for p in self.probs)

    @cached_property
    def _codes(self) -> tuple[tuple[Codes, ...], Decoding]:
        """(codes, decoding): codes[i] holds the rank of each value of
        outcomes[i] among its variable's values, and decoding[j][r] is the
        value of variables[j] with rank r. Set by the constructors; computed
        here only for a distribution built from its fields."""
        memos: list[SortKeyMemo] = [{} for _ in self.variables]
        for outcome in self.outcomes:
            _remember(memos, outcome)
        codes, decoding = _encode(memos, self.outcomes)
        return tuple(codes), decoding

    def _positions(self, *groups: tuple[str, ...]) -> list[int]:
        """Indices of the concatenated groups, which must be disjoint."""
        names = [var for group in groups for var in group]
        if len(set(names)) != len(names):
            shared = sorted({var for var in names if names.count(var) > 1})
            raise OverlappingVariableSets(f"variable sets share {shared}")
        return [self._index[var] for var in names]

    def _pmf(self, *groups: tuple[str, ...]) -> Counts:
        """Joint weights of the concatenated groups; they sum to _weights[0]."""
        return _aggregate(zip(self._codes[0], self._weights[1]), self._positions(*groups))

    def marginal(self, variables: Iterable[str]) -> "JointDistribution":
        """Marginal distribution over a non-empty variable subset."""
        ordered = self._resolve(variables)
        total = self._weights[0]
        decoding = tuple(self._codes[1][i] for i in self._positions(ordered))
        return _canonical(ordered, decoding, [
            (key, tuple([values[code] for values, code in zip(decoding, key)]),
             Fraction(w, total))
            for key, w in self._pmf(ordered).items()])

    def _query(self, parts: Sequence[Iterable[str]], givens: Iterable[str]) -> _Query:
        """Parts (non-empty groups) given givens (maybe empty), all disjoint."""
        groups = [self._resolve(part) for part in parts]
        given_vars = self._resolve(givens, allow_empty=True)
        if given_vars:
            groups.insert(0, given_vars)
        bounds = itertools.accumulate((len(group) for group in groups), initial=0)
        return _Query(self._pmf(*groups), len(given_vars),
                      list(itertools.pairwise(bounds)), self._weights[0])

    def entropy(self, variables: Iterable[str]) -> float:
        """Shannon entropy H of the given variables, in bits."""
        return self._query([variables], ()).conditional_entropy

    def conditional_entropy(self, targets: Iterable[str], givens: Iterable[str]) -> float:
        """H(targets | givens); an empty given set means plain entropy."""
        return self._query([targets], givens).conditional_entropy

    def mutual_information(self, left: Iterable[str], right: Iterable[str]) -> float:
        """I(left; right) = H(left) - H(left | right)."""
        query = self._query([left], right)
        return query.part_entropies[0] - query.conditional_entropy

    def conditional_mutual_information(
        self, left: Iterable[str], right: Iterable[str], givens: Iterable[str]
    ) -> float:
        """I(left; right | givens) = H(left | givens) - H(left | right, givens)."""
        given_vars = self._resolve(givens, allow_empty=True)
        right_vars = self._resolve(right)
        both = tuple(sorted(set(right_vars) | set(given_vars)))
        return self.conditional_entropy(left, given_vars) - self.conditional_entropy(left, both)

    def is_functionally_determined(self, targets: Iterable[str], givens: Iterable[str]) -> bool:
        """True iff the given variables determine the targets on the support.

        Exact predicate: no given-value has two target-values.
        Equivalent to H(targets | givens) == 0. Reads only the codes.
        """
        target_vars = self._resolve(targets)
        given_vars = self._resolve(givens)
        positions = self._positions(given_vars, target_vars)
        joint = set(map(_getter(positions), self._codes[0]))
        cut = len(given_vars)
        return len({key[:cut] for key in joint}) == len(joint)

    def is_independent(self, left: Iterable[str], right: Iterable[str]) -> bool:
        """Exact independence of two disjoint variable sets: the product
        condition on every combination, zero-probability ones included."""
        return self._query([left, right], ()).independent

    def is_mutually_independent(self, groups: Sequence[Iterable[str]]) -> bool:
        """Exact mutual independence of two or more disjoint variable groups."""
        if len(groups) < 2:
            raise EmptyVariableSet("mutual independence needs at least two groups")
        return self._query(groups, ()).independent
