"""Finite joint distributions with exact rational probabilities.

A JointDistribution stores an explicit support: every outcome with
positive probability, probabilities as Fractions summing to exactly 1.
Queries never do Fraction arithmetic. Each distribution lazily computes
one integer view of its probabilities: the common denominator D (the lcm
of the denominators) and an int weight w = p * D per outcome. Verdicts
(independence, functional determination) are decided exactly on these
ints; entropies are reported as floats, converting to float only at the
final step of each term.

The floats equal those of the Fraction formulas bit for bit: a term
needs p = w / D and a ratio p(t,g) / p(g) = w_tg / w_g, and Python's
int / int true division is correctly rounded, as is float(Fraction).

Every query makes one pass over the support, summing it into the joint
weights of the variables it names; each marginal the query also needs is
summed from that joint, not from another pass over the support.

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
from typing import Iterable, Mapping, Sequence

from .errors import (
    DuplicateOutcome,
    EmptyVariableSet,
    OverlappingVariableSets,
    ProbabilityError,
    UnknownVariable,
)
from .jsonutil import Value, value_sort_key

Pmf = dict[tuple[Value, ...], Fraction]
Counts = dict[tuple[Value, ...], int]


def _neg_fsum(terms: Iterable[float]) -> float:
    # "+ 0.0" normalizes -0.0 so exact-zero entropies print as 0.0.
    return -math.fsum(terms) + 0.0


def _aggregate(pairs: Iterable[tuple[tuple[Value, ...], int]],
               positions: Sequence[int]) -> Counts:
    """Sum (outcome, weight) pairs by the outcome's values at positions."""
    agg: Counts = {}
    for outcome, w in pairs:
        key = tuple([outcome[i] for i in positions])
        agg[key] = agg.get(key, 0) + w
    return agg


def _conditional_entropy(joint: Counts, cut: int, total: int) -> float:
    """H(rest | first cut values) of joint weights out of total."""
    given = _aggregate(joint.items(), range(cut))
    return _neg_fsum(
        w / total * math.log2(w / given[key[:cut]]) for key, w in joint.items()
    )


def _independent(joint: Counts, spans: Sequence[tuple[int, int]], total: int) -> bool:
    """Whether joint is the product of its marginals over the key slices spans.

    Weights are probabilities times total, so for k slices the product
    condition p(key) == prod p(slice) reads w * total**(k-1) == prod w_slice.
    """
    margs = [_aggregate(joint.items(), range(start, stop)) for start, stop in spans]
    if len(joint) != math.prod(len(marg) for marg in margs):
        return False
    scale = total ** (len(spans) - 1)
    for key, w in joint.items():
        product = 1
        for (start, stop), marg in zip(spans, margs):
            product *= marg[key[start:stop]]
        if w * scale != product:
            return False
    return True


def _canonical(variables: tuple[str, ...], table: Pmf) -> "JointDistribution":
    """The distribution of table's outcomes in canonical order."""
    ordered = sorted(table, key=lambda out: tuple(value_sort_key(v) for v in out))
    return JointDistribution(
        variables=variables,
        outcomes=tuple(ordered),
        probs=tuple(table[out] for out in ordered),
    )


@dataclass(frozen=True)
class JointDistribution:
    """Canonical finite joint distribution.

    variables are sorted; outcomes are value tuples aligned with the
    variables and sorted canonically; probs are positive Fractions that
    sum to 1. Equality of two distributions is equality of these fields.
    The integer view the queries read (_weights) and the variable index
    are cached properties, not fields, so they never enter == or hash.
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
        table: Pmf = {}
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
            outcome = tuple(assignment[var] for var in variables)
            if outcome in table:
                raise DuplicateOutcome(f"outcome {outcome!r} appears more than once")
            table[outcome] = p
        total = sum(table.values())
        if total != 1:
            raise ProbabilityError(f"probabilities sum to {total}, expected 1")
        return _canonical(variables, table)

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

    def _positions(self, *groups: tuple[str, ...]) -> list[int]:
        """Indices of the concatenated groups, which must be disjoint."""
        names = [var for group in groups for var in group]
        if len(set(names)) != len(names):
            shared = sorted({var for var in names if names.count(var) > 1})
            raise OverlappingVariableSets(f"variable sets share {shared}")
        return [self._index[var] for var in names]

    def _pmf(self, *groups: tuple[str, ...]) -> Counts:
        """Joint weights of the concatenated groups; they sum to _weights[0]."""
        return _aggregate(zip(self.outcomes, self._weights[1]), self._positions(*groups))

    def marginal(self, variables: Iterable[str]) -> "JointDistribution":
        """Marginal distribution over a non-empty variable subset."""
        ordered = self._resolve(variables)
        total = self._weights[0]
        return _canonical(ordered, {key: Fraction(w, total)
                                    for key, w in self._pmf(ordered).items()})

    def entropy(self, variables: Iterable[str]) -> float:
        """Shannon entropy H of the given variables, in bits."""
        return _conditional_entropy(self._pmf(self._resolve(variables)), 0,
                                    self._weights[0])

    def conditional_entropy(self, targets: Iterable[str], givens: Iterable[str]) -> float:
        """H(targets | givens); an empty given set means plain entropy."""
        target_vars = self._resolve(targets)
        given_vars = self._resolve(givens, allow_empty=True)
        joint = self._pmf(given_vars, target_vars)
        return _conditional_entropy(joint, len(given_vars), self._weights[0])

    def mutual_information(self, left: Iterable[str], right: Iterable[str]) -> float:
        """I(left; right) = H(left) - H(left | right)."""
        return self.entropy(left) - self.conditional_entropy(left, right)

    def conditional_mutual_information(
        self, left: Iterable[str], right: Iterable[str], givens: Iterable[str]
    ) -> float:
        """I(left; right | givens); empty givens reduce to mutual information."""
        given_vars = self._resolve(givens, allow_empty=True)
        if not given_vars:
            return self.mutual_information(left, right)
        right_vars = self._resolve(right)
        both = tuple(sorted(set(right_vars) | set(given_vars)))
        return self.conditional_entropy(left, given_vars) - self.conditional_entropy(left, both)

    def is_functionally_determined(self, targets: Iterable[str], givens: Iterable[str]) -> bool:
        """True iff the given variables determine the targets on the support.

        Exact predicate: no given-value has two target-values.
        Equivalent to H(targets | givens) == 0. Reads only the outcomes.
        """
        target_vars = self._resolve(targets)
        given_vars = self._resolve(givens)
        positions = self._positions(given_vars, target_vars)
        joint = {tuple([outcome[i] for i in positions]) for outcome in self.outcomes}
        cut = len(given_vars)
        return len({key[:cut] for key in joint}) == len(joint)

    def is_independent(self, left: Iterable[str], right: Iterable[str]) -> bool:
        """Exact independence of two disjoint variable sets.

        Checks the full product condition including zero-probability
        combinations: the joint support must have exactly
        |support(left)| * |support(right)| points and every joint
        probability must equal the product of the marginals.
        """
        return self.is_mutually_independent([left, right])

    def is_mutually_independent(self, groups: Sequence[Iterable[str]]) -> bool:
        """Exact mutual independence of two or more disjoint variable groups."""
        resolved = [self._resolve(group) for group in groups]
        if len(resolved) < 2:
            raise EmptyVariableSet("mutual independence needs at least two groups")
        # Each group owns one slice start:stop of every joint key.
        bounds = itertools.accumulate((len(group) for group in resolved), initial=0)
        return _independent(self._pmf(*resolved), list(itertools.pairwise(bounds)),
                            self._weights[0])

    def _identity(self, parts: Iterable[str], givens: Iterable[str]) -> tuple[float, bool]:
        """H(parts | givens) and whether each part, and the givens as one
        more group when non-empty, are mutually independent.

        Both come from one joint; fewer than two groups are independent.
        """
        part_vars = self._resolve(parts)
        given_vars = self._resolve(givens, allow_empty=True)
        joint = self._pmf(given_vars, part_vars)
        cut = len(given_vars)
        spans = [(0, cut)] if cut else []
        spans += [(i, i + 1) for i in range(cut, cut + len(part_vars))]
        total = self._weights[0]
        return (_conditional_entropy(joint, cut, total),
                len(spans) < 2 or _independent(joint, spans, total))
