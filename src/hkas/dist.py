"""Finite joint distributions with exact rational probabilities.

A JointDistribution stores an explicit support, every outcome with
positive probability, in one int-coded canonical form. Each value is
coded as its rank, by value_sort_key, among its variable's values on
the support; decoding maps the ranks back to values. Each row is the
tuple of its codes, and the rows strictly increase: a tuple's sort key
is the tuple of its items' keys, so this is the canonical order of the
outcomes. Row i has probability weights[i] / total, with positive int
weights that share no common factor, so total is the common
denominator (the lcm of the reduced denominators). The value tuples
and Fractions are decoded views, computed only when read.

The constructor checks that form, all but the order of the decoding.
One private builder, _build, checks that the probabilities sum to 1
and reduces the weights; from_rows, marginal, the scheme loader's row
template and the generator core all build through it. from_rows, the
json path and the generators' test oracle, validates and sort-keys
each distinct value object once (memoised by identity, never by
equality), and ranks them; the row template ranks the values it
decoded itself, the generator core the keys it enumerated; marginal
takes its codes and summed weights from its parent.

Queries never do Fraction arithmetic and never hash or compare values:
each decision reads the support once, exactly, on the codes and int
weights. _undetermined finds the targets that the givens do not
determine. _scan sums each row's weight into the vector of a target
group's weights at its coalition value: the top joint of _Coalitions,
the one engine of every entropy and independence verdict, which sums
each smaller coalition's joint from a joint one member larger. The
target is independent of a coalition iff every vector is proportional to
the target's marginal; k groups are mutually independent iff, by the
chain rule, each is independent of those before it. An entropy term,
w / total * log2(w / w_given), turns ints into floats only at that final
step, and math.fsum rounds the terms' exact sum once: int / int true
division is correctly rounded, as is float(Fraction), so the floats
equal those of the Fraction formulas bit for bit.

Entropies use log base 2. Conditional entropy is computed directly from
its definition, H(T|G) = -sum p(t,g) log2(p(t,g)/p(g)), not as a
difference of entropies, so chain-rule identities are genuinely checked
by the test suite rather than holding by construction.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property
from operator import itemgetter, lt, ne
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
from .record import Record

Codes = tuple[int, ...]
# Per variable, its distinct values in sort-key order: a value's code is
# its index.
Decoding = tuple[tuple[Value, ...], ...]


def _neg_fsum(terms: Iterable[float]) -> float:
    # "+ 0.0" normalizes -0.0 so exact-zero entropies print as 0.0.
    return -math.fsum(terms) + 0.0


def _getter(positions: Sequence[int]) -> Callable[[Codes], Codes]:
    """The function that picks the codes at positions as a tuple."""
    if len(positions) == 1:
        return itemgetter(slice(positions[0], positions[0] + 1))
    return itemgetter(*positions) if positions else lambda codes: ()


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


def _build(variables: tuple[str, ...], decoding: Decoding, codes: Sequence[Codes],
           weights: Sequence[int | Fraction], total: int) -> "JointDistribution":
    """The distribution whose i-th row holds the values codes[i] picks
    from decoding, with probability weights[i] / total; the weights are
    positive ints or Fractions, and are stored as coprime ints. Raises a
    ProbabilityError unless the probabilities sum to exactly 1, and
    whatever the constructor raises."""
    scale = math.lcm(*(w.denominator for w in weights))
    ints = [w.numerator * (scale // w.denominator) for w in weights]
    if sum(ints) != total * scale:
        raise ProbabilityError(
            f"probabilities sum to {Fraction(sum(ints), total * scale)}, expected 1")
    common = math.gcd(*ints)
    return JointDistribution(variables, decoding, tuple(codes),
                             tuple([w // common for w in ints]))


# The weights of a coalition's target at one value of the coalition: a
# dict from each target code met there to its positive summed weight.
Vector = dict[int, int]


class _Coalitions:
    """The joint of one target group with each coalition of members.

    A coalition is given by the strictly increasing indices of the
    members it holds, at least one when there are members; None means
    all of them. Its joint maps the coalition's codes, in member order,
    to the Vector of the target's weights there. A vector holds only the
    cells on the support, so a joint holds at most one cell per support
    row, whatever the size of the target's domain. The top joint, of
    every member, comes from one scan of the support; every other joint
    is summed from its parent, the memoised joint of the coalition plus
    the smallest member it lacks. Vectors are never mutated, so a joint
    shares each one that a single parent key gives.

    The target is independent of a coalition iff each vector of its
    joint is proportional to the target's marginal: p(c, t) = p(c) p(t)
    for every t. With r the marginal divided by its gcd, a vector v is
    proportional to it iff v == gcd(v) * r, one dict comparison. Every
    entry of r is positive, so a vector that misses a code fails, as it
    must; a c off the joint has p(c) = 0 and satisfies the product
    condition.
    """

    def __init__(self, dist: "JointDistribution", targets: tuple[str, ...],
                 members: Sequence[str]) -> None:
        joint = dist._scan(tuple(members), targets)
        self._marginal = marginal = self._sum(list(joint.values()))
        common = math.gcd(*marginal.values())
        self._reduced = {code: w // common for code, w in marginal.items()}
        self._total = dist.total
        self._everyone = tuple(range(len(members)))
        self._memo = {self._everyone: joint}

    @staticmethod
    def _sum(vectors: list[Vector]) -> Vector:
        """The vector of the summed weights, in one pass over the cells."""
        summed = dict(vectors[0])
        for vector in vectors[1:]:
            for code, w in vector.items():
                summed[code] = summed.get(code, 0) + w
        return summed

    @classmethod
    def _summed(cls, parent: dict[Codes, Vector], positions: Sequence[int]) -> dict[Codes, Vector]:
        """The joint of the parent's members at these positions, in one pass
        over the parent's joint."""
        keep = _getter(positions)
        groups: dict[Codes, list[Vector]] = {}
        for key, vector in parent.items():
            key = keep(key)
            group = groups.get(key)
            if group is None:
                groups[key] = [vector]
            else:
                group.append(vector)
        return {key: group[0] if len(group) == 1 else cls._sum(group)
                for key, group in groups.items()}

    def _joint(self, chosen: tuple[int, ...] | None) -> dict[Codes, Vector]:
        if chosen is None:
            chosen = self._everyone
        joint = self._memo.get(chosen)
        if joint is None:
            # The smallest member not held; it sits at position drop of the parent.
            drop = next(i for i, held in enumerate(chosen + (-1,)) if held != i)
            parent = chosen[:drop] + (drop,) + chosen[drop:]
            joint = self._summed(self._joint(parent),
                                 [i for i in range(len(parent)) if i != drop])
            if drop:  # only a coalition holding member 0 is ever a parent
                self._memo[chosen] = joint
        return joint

    def independent(self, chosen: tuple[int, ...] | None = None) -> bool:
        """Whether the target is independent of the coalition chosen. The
        reduced marginal is scaled once per distinct gcd; a vector with
        fewer cells fails before any scaled copy is built."""
        reduced = self._reduced
        scaled: dict[int, Vector] = {}
        for vector in self._joint(chosen).values():
            if len(vector) != len(reduced):
                return False
            common = math.gcd(*vector.values())
            expected = scaled.get(common)
            if expected is None:
                expected = scaled[common] = {code: common * w for code, w in reduced.items()}
            if vector != expected:
                return False
        return True

    def entropy(self) -> float:
        """H(target), in bits: each term is w / total * log2(w / total)."""
        total = self._total
        return _neg_fsum(w / total * math.log2(w / total) for w in self._marginal.values())

    def conditional_entropy(self, chosen: tuple[int, ...] | None = None) -> float:
        """H(target | coalition chosen), in bits: each term is
        w / total * log2(w / w_given), w_given the sum of w's vector."""
        total = self._total
        terms = []
        for vector in self._joint(chosen).values():
            given = sum(vector.values())
            terms.extend(w / total * math.log2(w / given) for w in vector.values())
        return _neg_fsum(terms)


class JointDistribution(Record):
    """Canonical finite joint distribution, in int-coded form.

    variables are sorted, and decoding[j] holds the values of
    variables[j] on the support, strictly increasing by value_sort_key.
    Each row of codes holds, per variable, the rank of its value in
    decoding, every rank is used, and the rows strictly increase. Row i
    has probability weights[i] / total, with positive int weights that
    share no common factor. The form is unique, so equality of two
    distributions is equality of these fields. total, the decoded views
    outcomes and probs, and the variable index are cached properties,
    not fields, so they never enter == or hash.

    The constructor checks that the variables and the rows strictly
    increase, that there is one weight per row, and that the weights are
    positive with no common factor, raising a DistributionError
    otherwise. It takes the decoding as given: checking its order would
    sort-key every value on every load.
    """

    variables: tuple[str, ...]
    decoding: Decoding
    codes: tuple[Codes, ...]
    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        if not all(map(lt, self.variables, self.variables[1:])):
            raise DistributionError("variables are not in strictly increasing order")
        if not all(map(lt, self.codes, itertools.islice(self.codes, 1, None))):
            raise DistributionError("rows are not in strictly increasing canonical order")
        if len(self.weights) != len(self.codes):
            raise DistributionError(
                f"{len(self.weights)} weights for {len(self.codes)} rows")
        if min(self.weights, default=0) <= 0 or math.gcd(*self.weights) != 1:
            raise ProbabilityError("weights must be positive ints with no common factor")

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
        memos: list[dict[int, tuple[Value, tuple]]] = [{} for _ in variables]
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
            # Validate and sort-key each value object once, by identity
            # (True == 1 and 1.0 == 1), before hashing: rejects lists, bools.
            for memo, value in zip(memos, outcome):
                if id(value) not in memo:
                    memo[id(value)] = (value, value_sort_key(value))
            if outcome in table:
                raise DuplicateOutcome(f"outcome {outcome!r} appears more than once")
            table[outcome] = p
        ranks, decoding = zip(*map(_rank, memos))
        rows = sorted([(tuple([rank[id(value)] for rank, value in zip(ranks, outcome)]), p)
                       for outcome, p in table.items()], key=itemgetter(0))
        codes, probs = zip(*rows)
        return _build(variables, decoding, codes, probs, 1)

    def support_size(self) -> int:
        return len(self.codes)

    @cached_property
    def total(self) -> int:
        """The common denominator of the probabilities: the sum of the weights."""
        return sum(self.weights)

    @cached_property
    def outcomes(self) -> tuple[tuple[Value, ...], ...]:
        """The rows as value tuples aligned with the variables."""
        return tuple([tuple(map(tuple.__getitem__, self.decoding, row)) for row in self.codes])

    @cached_property
    def probs(self) -> tuple[Fraction, ...]:
        """The rows' probabilities as Fractions."""
        return tuple([Fraction(w, self.total) for w in self.weights])

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

    def _positions(self, *groups: tuple[str, ...]) -> list[int]:
        """Indices of the concatenated groups, which must be disjoint."""
        names = [var for group in groups for var in group]
        if len(set(names)) != len(names):
            shared = sorted({var for var in names if names.count(var) > 1})
            raise OverlappingVariableSets(f"variable sets share {shared}")
        return [self._index[var] for var in names]

    def _scan(self, members: tuple[str, ...], targets: tuple[str, ...]) -> dict[Codes, Vector]:
        """The members' codes mapped to the summed weights of each target code
        met there: one target keeps its own codes, a group (or none) codes
        its value tuples in the scan's order."""
        positions = self._positions(members, targets)
        cut = len(members)
        if len(targets) == 1:
            codes: Iterable[int] = map(itemgetter(positions[cut]), self.codes)
        else:
            index: dict[Codes, int] = {}
            codes = [index.setdefault(key, len(index))
                     for key in map(_getter(positions[cut:]), self.codes)]
        joint: dict[Codes, Vector] = {}
        for key, code, w in zip(map(_getter(positions[:cut]), self.codes), codes, self.weights):
            cells = joint.get(key)
            if cells is None:
                cells = joint[key] = {}
            cells[code] = cells.get(code, 0) + w
        return joint

    def _undetermined(self, targets: tuple[str, ...], givens: tuple[str, ...]) -> list[str]:
        """The targets, in the order given, that the givens do not determine:
        each distinct value is compared with the first that shares its givens."""
        cut = len(givens)
        first: dict[Codes, Codes] = {}
        differ: set[int] = set()
        for key in set(map(_getter(self._positions(givens, targets)), self.codes)):
            seen = first.setdefault(key[:cut], key)
            if seen is not key:
                differ.update(itertools.compress(range(len(key)), map(ne, key, seen)))
        return [targets[i - cut] for i in sorted(differ)]

    def marginal(self, variables: Iterable[str]) -> "JointDistribution":
        """Marginal distribution over a non-empty variable subset."""
        ordered = self._resolve(variables)
        decoding = tuple([self.decoding[i] for i in self._positions(ordered)])
        codes, cells = zip(*sorted(self._scan(ordered, ()).items()))
        return _build(ordered, decoding, codes, [cell[0] for cell in cells], self.total)

    def _coalitions(self, targets: Iterable[str], givens: Iterable[str],
                    allow_empty: bool = True) -> _Coalitions:
        """The engine of targets (a non-empty group) against each given."""
        target_vars = self._resolve(targets)
        return _Coalitions(self, target_vars, self._resolve(givens, allow_empty))

    def entropy(self, variables: Iterable[str]) -> float:
        """Shannon entropy H of the given variables, in bits."""
        return self._coalitions(variables, ()).entropy()

    def conditional_entropy(self, targets: Iterable[str], givens: Iterable[str]) -> float:
        """H(targets | givens); an empty given set means plain entropy."""
        return self._coalitions(targets, givens).conditional_entropy()

    def mutual_information(self, left: Iterable[str], right: Iterable[str]) -> float:
        """I(left; right) = H(left) - H(left | right)."""
        coalitions = self._coalitions(left, right)
        return coalitions.entropy() - coalitions.conditional_entropy()

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
        return not self._undetermined(self._resolve(targets), self._resolve(givens))

    def is_independent(self, left: Iterable[str], right: Iterable[str]) -> bool:
        """Exact independence of two disjoint variable sets: the product
        condition on every combination, zero-probability ones included."""
        return self._coalitions(left, right, allow_empty=False).independent()

    def is_mutually_independent(self, groups: Sequence[Iterable[str]]) -> bool:
        """Exact mutual independence of two or more disjoint variable groups.

        By the chain rule they are iff each group is independent of the
        groups before it; the groups are decided in turn, one scan each,
        up to the first that is not.
        """
        if len(groups) < 2:
            raise EmptyVariableSet("mutual independence needs at least two groups")
        resolved = [self._resolve(group) for group in groups]
        self._positions(*resolved)  # raises unless the groups are disjoint
        return all(_Coalitions(self, resolved[i], sum(resolved[:i], ())).independent()
                   for i in range(1, len(resolved)))
