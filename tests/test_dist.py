"""Joint distribution operators, checked against independent oracles.

The oracle computes conditional entropy as H(T,G) - H(G) from its own
marginalization, a different route than the library's direct formula, so
agreement is a real check rather than a restatement.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from conftest import (
    Rows,
    assert_canonical_form,
    fraction_conditional_entropy,
    oracle_independent,
    oracle_marginal,
    sub_tuples,
)
from hkas import (
    AccessGraph,
    DistributionError,
    DuplicateOutcome,
    EmptyVariableSet,
    JointDistribution,
    OverlappingVariableSets,
    ParseError,
    ProbabilityError,
    Scheme,
    UnknownVariable,
    UnsupportedValue,
    load_scheme,
    load_scheme_file,
    serialize_scheme,
)
from hkas.dist import _build
from hkas.jsonutil import MAX_VALUE_DEPTH, dumps_at, value_from_json, value_sort_key

TOL = 1e-9


def oracle_entropy(pmf: dict[tuple, Fraction]) -> float:
    return -math.fsum(float(p) * math.log2(float(p)) for p in pmf.values()) + 0.0


def oracle_cond_entropy(rows: Rows, targets: list[str], givens: list[str]) -> float:
    joint = oracle_entropy(oracle_marginal(rows, sorted(set(targets) | set(givens))))
    given = oracle_entropy(oracle_marginal(rows, sorted(set(givens))))
    return joint - given


def oracle_determined(rows: Rows, targets: list[str], givens: list[str]) -> bool:
    """Each given-value occurs with exactly one target-value."""
    joint = oracle_marginal(rows, givens + targets)
    target_values = oracle_marginal(rows, targets)
    return all(
        sum(gkey + tkey in joint for tkey in target_values) == 1
        for gkey in oracle_marginal(rows, givens)
    )


def xor_triple() -> tuple[JointDistribution, Rows]:
    rows: Rows = []
    for x in (0, 1):
        for y in (0, 1):
            rows.append(({"X": x, "Y": y, "Z": x ^ y}, Fraction(1, 4)))
    return JointDistribution.from_rows(rows), rows


# Values whose codes (ranks) never equal them: negative and large ints,
# strs and nested tuples, in a non-sorted order.
MIXED_POOL = ("b", -7, (1, "x"), 2**70, "", ((-3,), "y"), 5, (0,), "a", -1,
              ("a", (2**65, "z")), ())


def _values(rng: random.Random, size: int, pool: tuple | None) -> list:
    """size distinct values: range(size), or a sample of pool."""
    return list(range(size)) if pool is None else rng.sample(pool, size)


def random_dist(rng: random.Random, max_vars: int = 3, max_values: int = 3,
                pool: tuple | None = None) -> tuple[JointDistribution, Rows]:
    count = rng.randint(1, max_vars)
    variables = [f"v{i}" for i in range(count)]
    sizes = [rng.randint(1, max_values) for _ in range(count)]
    space = list(itertools.product(*[_values(rng, size, pool) for size in sizes]))
    chosen = rng.sample(space, rng.randint(1, len(space)))
    weights = [rng.randint(1, 8) for _ in chosen]
    total = sum(weights)
    rows: Rows = [
        (dict(zip(variables, outcome)), Fraction(weight, total))
        for outcome, weight in zip(chosen, weights)
    ]
    return JointDistribution.from_rows(rows), rows


def random_product_dist(rng: random.Random, max_vars: int = 4, max_values: int = 3,
                        pool: tuple | None = None) -> tuple[JointDistribution, Rows]:
    """Independent variables, each with its own random pmf."""
    pmfs = []
    for _ in range(rng.randint(1, max_vars)):
        weights = [rng.randint(1, 8) for _ in range(rng.randint(1, max_values))]
        values = _values(rng, len(weights), pool)
        pmfs.append({value: Fraction(weight, sum(weights))
                     for value, weight in zip(values, weights)})
    rows: Rows = []
    for outcome in itertools.product(*pmfs):
        assignment = {f"v{i}": value for i, value in enumerate(outcome)}
        rows.append((assignment, math.prod(pmf[v] for pmf, v in zip(pmfs, outcome))))
    return JointDistribution.from_rows(rows), rows


def test_frozen_entropy_values():
    biased = JointDistribution.from_rows(
        [({"X": 0}, Fraction(1, 4)), ({"X": 1}, Fraction(3, 4))]
    )
    # 2 - 0.75*log2(3)
    assert biased.entropy(["X"]) == pytest.approx(0.8112781244591329, abs=TOL)
    uniform3 = JointDistribution.from_rows(
        [({"X": i}, Fraction(1, 3)) for i in range(3)]
    )
    assert uniform3.entropy(["X"]) == pytest.approx(1.584962500721156, abs=TOL)
    point = JointDistribution.from_rows([({"X": 7}, Fraction(1))])
    assert point.entropy(["X"]) == 0.0


def test_xor_triple_identities():
    dist, rows = xor_triple()
    for var in ("X", "Y", "Z"):
        assert dist.entropy([var]) == pytest.approx(1.0, abs=TOL)
    assert dist.entropy(["X", "Y", "Z"]) == pytest.approx(2.0, abs=TOL)
    assert dist.conditional_entropy(["Z"], ["X", "Y"]) == 0.0
    assert dist.is_functionally_determined(["Z"], ["X", "Y"])
    assert dist.conditional_entropy(["Z"], ["X"]) == pytest.approx(1.0, abs=TOL)
    assert dist.mutual_information(["X"], ["Z"]) == pytest.approx(0.0, abs=TOL)
    assert dist.conditional_mutual_information(["X"], ["Y"], ["Z"]) == pytest.approx(
        1.0, abs=TOL
    )
    # pairwise independent but not mutually independent
    assert dist.is_independent(["X"], ["Y"])
    assert dist.is_independent(["X"], ["Z"])
    assert dist.is_independent(["Y"], ["Z"])
    assert not dist.is_mutually_independent([["X"], ["Y"], ["Z"]])
    assert not dist.is_independent(["X", "Y"], ["Z"])
    assert dist.conditional_entropy(["Z"], ["X"]) == pytest.approx(
        oracle_cond_entropy(rows, ["Z"], ["X"]), abs=1e-12
    )


def test_zero_probability_combination_breaks_independence():
    # supports multiply to 4 outcomes but only 3 are present
    rows = [
        ({"X": 0, "Y": 0}, Fraction(1, 3)),
        ({"X": 0, "Y": 1}, Fraction(1, 3)),
        ({"X": 1, "Y": 0}, Fraction(1, 3)),
    ]
    dist = JointDistribution.from_rows(rows)
    assert not dist.is_independent(["X"], ["Y"])


def test_canonical_form_ignores_input_order():
    rows_a = [
        ({"B": 1, "A": 0}, Fraction(1, 2)),
        ({"A": 1, "B": 0}, Fraction(1, 2)),
    ]
    rows_b = [
        ({"A": 1, "B": 0}, Fraction(1, 2)),
        ({"B": 1, "A": 0}, Fraction(1, 2)),
    ]
    assert JointDistribution.from_rows(rows_a) == JointDistribution.from_rows(rows_b)
    dist = JointDistribution.from_rows(rows_a)
    assert dist.variables == ("A", "B")
    assert dist.support_size() == 2
    rebuilt = JointDistribution.from_rows(dist.rows())
    assert rebuilt == dist


def test_marginal_matches_oracle():
    rng = random.Random(777)
    for _ in range(50):
        dist, rows = random_dist(rng)
        for size in range(1, len(dist.variables) + 1):
            variables = sorted(rng.sample(list(dist.variables), size))
            marg = dist.marginal(variables)
            expected = oracle_marginal(rows, variables)
            assert dict(zip(marg.outcomes, marg.probs)) == expected
            assert sum(marg.probs) == 1


def test_every_builder_keeps_the_canonical_form():
    """from_rows and marginal give the unique int-coded form, and _build,
    which every builder goes through, and the constructor reject what is
    not in it."""
    rng = random.Random(4099)
    for trial in range(40):
        make = random_product_dist if trial % 2 else random_dist
        dist, _ = make(rng, 3, 4, pool=MIXED_POOL)
        assert_canonical_form(dist)
        for size in range(1, len(dist.variables) + 1):
            for variables in itertools.combinations(dist.variables, size):
                assert_canonical_form(dist.marginal(variables))
    # summed weights that share a factor come out reduced
    half = Fraction(1, 2)
    uniform = JointDistribution.from_rows(
        [({"X": x, "Y": y}, Fraction(1, 4)) for x in (0, 1) for y in (0, 1)])
    marg = uniform.marginal(["X"])
    assert uniform.weights == (1, 1, 1, 1) and marg.weights == (1, 1) and marg.total == 2
    assert marg == JointDistribution.from_rows([({"X": 0}, half), ({"X": 1}, half)])
    # equal codes are caught by the codes alone, whatever their probabilities
    with pytest.raises(DistributionError, match="canonical order"):
        _build(("X",), ((0, 1),), [(0,), (0,)], [Fraction(1, 3), Fraction(2, 3)], 1)
    with pytest.raises(DistributionError, match="canonical order"):
        _build(("X",), ((0, 1),), [(1,), (0,)], [half, half], 1)
    with pytest.raises(DistributionError, match="variables"):
        _build(("Y", "X"), ((0,), (0,)), [(0, 0)], [1], 1)
    with pytest.raises(ProbabilityError, match="^probabilities sum to 3/4, expected 1$"):
        _build(("X",), ((0, 1),), [(0,), (1,)], [half, Fraction(1, 4)], 1)
    with pytest.raises(ProbabilityError, match="^probabilities sum to 3/4, expected 1$"):
        JointDistribution.from_rows([({"X": 0}, half), ({"X": 1}, Fraction(1, 4))])
    # the constructor rejects what would compare unequal to the same
    # distribution in canonical form: unreduced weights, a zero weight,
    # rows out of order
    for weights in ((2, 2), (0, 1)):
        with pytest.raises(ProbabilityError,
                           match="^weights must be positive ints with no common factor$"):
            JointDistribution(("X",), ((0, 1),), ((0,), (1,)), weights)
    with pytest.raises(DistributionError, match="canonical order"):
        JointDistribution(("X",), ((0, 1),), ((1,), (0,)), (1, 1))
    with pytest.raises(DistributionError, match="^1 weights for 2 rows$"):
        JointDistribution(("X",), ((0, 1),), ((0,), (1,)), (1,))
    assert JointDistribution(("X",), ((0, 1),), ((0,), (1,)), (1, 1)) == marg


def test_mixed_values_match_oracles():
    """The queries read int codes and the oracles read values; drawn from
    MIXED_POOL, no code equals its value, so a code/value mix-up shows."""
    rng = random.Random(8128)
    verdicts = set()
    for trial in range(80):
        make = random_product_dist if trial % 2 else random_dist
        dist, rows = make(rng, 3, 4, pool=MIXED_POOL)
        assert dist.outcomes == tuple(sorted(dist.outcomes, key=value_sort_key))
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert JointDistribution.from_rows(shuffled) == dist
        variables = list(dist.variables)
        for labels in itertools.product(range(3), repeat=len(variables)):
            targets = [var for var, label in zip(variables, labels) if label == 1]
            givens = [var for var, label in zip(variables, labels) if label == 2]
            if not targets:
                continue
            marg = dist.marginal(targets)
            assert dict(zip(marg.outcomes, marg.probs)) == oracle_marginal(rows, targets)
            assert marg.outcomes == tuple(sorted(marg.outcomes, key=value_sort_key))
            h_targets = fraction_conditional_entropy(rows, targets, [])
            assert marg.entropy(targets) == h_targets
            expected = fraction_conditional_entropy(rows, targets, givens)
            assert dist.conditional_entropy(targets, givens) == expected
            groups = [[var] for var in targets]
            for group in groups:
                assert dist.entropy(group) == fraction_conditional_entropy(rows, group, [])
            if givens:
                groups.insert(0, givens)
                determined = dist.is_functionally_determined(targets, givens)
                assert determined == oracle_determined(rows, targets, givens)
                independent = dist.is_independent(targets, givens)
                assert independent == oracle_independent(rows, [targets, givens])
                verdicts |= {("determined", determined), ("independent", independent)}
            if len(groups) > 1:
                mutual = dist.is_mutually_independent(groups)
                assert mutual == oracle_independent(rows, groups)
                verdicts.add(("mutual", mutual))
    assert len(verdicts) == 6


def test_entropy_properties_random():
    rng = random.Random(20240819)
    for _ in range(300):
        dist, rows = random_dist(rng)
        variables = list(dist.variables)
        assert dist.entropy(variables) >= -TOL
        assert dist.conditional_entropy(variables, []) == pytest.approx(
            dist.entropy(variables), abs=TOL
        )
        if len(variables) < 2:
            continue
        split = rng.randint(1, len(variables) - 1)
        shuffled = variables[:]
        rng.shuffle(shuffled)
        left, right = shuffled[:split], shuffled[split:]
        h_left = dist.entropy(left)
        h_given = dist.conditional_entropy(left, right)
        # conditioning cannot raise entropy; equality iff independent
        assert h_given <= h_left + TOL
        assert (h_left - h_given < TOL) == dist.is_independent(left, right)
        # chain rule, both sides from the direct formulas
        assert dist.entropy(left + right) == pytest.approx(
            dist.entropy(right) + h_given, abs=TOL
        )
        assert h_given == pytest.approx(
            oracle_cond_entropy(rows, left, right), abs=1e-12
        )
        determined = dist.is_functionally_determined(left, right)
        assert determined == (h_given < TOL)


def test_exact_predicates_match_brute_force():
    rng = random.Random(60221)
    verdicts = set()
    for trial in range(120):
        make = random_product_dist if trial % 2 else random_dist
        dist, rows = make(rng, 4, 3)
        variables = list(dist.variables)
        # every ordered pair of disjoint, non-empty subsets
        for labels in itertools.product(range(3), repeat=len(variables)):
            left = [var for var, label in zip(variables, labels) if label == 1]
            right = [var for var, label in zip(variables, labels) if label == 2]
            if not left or not right:
                continue
            determined = dist.is_functionally_determined(left, right)
            assert determined == oracle_determined(rows, left, right)
            independent = dist.is_independent(left, right)
            assert independent == oracle_independent(rows, [left, right])
            verdicts |= {("determined", determined), ("independent", independent)}
        if len(variables) >= 3:
            shuffled = variables[:]
            rng.shuffle(shuffled)
            first, second = sorted(rng.sample(range(1, len(shuffled)), 2))
            groups = [shuffled[:first], shuffled[first:second], shuffled[second:]]
            mutual = dist.is_mutually_independent(groups)
            assert mutual == oracle_independent(rows, groups)
            verdicts.add(("mutual", mutual))
    # both verdicts of every predicate are exercised
    assert len(verdicts) == 6
    # The target's vectors at c = 0, 1, 2 are 1x, 2x and 3x the non-uniform
    # (1, 2, 4): independent. One cell moved, or one code missing at c = 1,
    # and they are not.
    scaled = {(c, t): (c + 1) * w for c in range(3) for t, w in enumerate((1, 2, 4))}
    moved = {**scaled, (2, 0): 2, (2, 1): 7}
    missing = {key: w for key, w in scaled.items() if key != (1, 0)}
    for cells, expected in ((scaled, True), (moved, False), (missing, False)):
        total = sum(cells.values())
        rows = [({"c": c, "t": t}, Fraction(w, total)) for (c, t), w in cells.items()]
        dist = JointDistribution.from_rows(rows)
        assert dist.is_independent(["t"], ["c"]) == expected
        assert oracle_independent(rows, [["t"], ["c"]]) == expected


def test_conditional_mutual_information_random():
    rng = random.Random(3141)
    seen = 0
    while seen < 60:
        dist, _rows = random_dist(rng, max_vars=3, max_values=3)
        if len(dist.variables) < 3:
            continue
        seen += 1
        a, b, c = dist.variables
        i_ab = dist.conditional_mutual_information([a], [b], [c])
        i_ba = dist.conditional_mutual_information([b], [a], [c])
        assert i_ab >= -TOL
        assert i_ab == pytest.approx(i_ba, abs=TOL)
        # extra conditioning never raises conditional entropy
        assert dist.conditional_entropy([a], [b, c]) <= (
            dist.conditional_entropy([a], [c]) + TOL
        )


def test_mutual_independence_of_product():
    parts = [
        ({"X": x, "Y": y, "Z": z}, Fraction(1, 8))
        for x in (0, 1) for y in (0, 1) for z in (0, 1)
    ]
    dist = JointDistribution.from_rows(parts)
    assert dist.is_mutually_independent([["X"], ["Y"], ["Z"]])
    assert dist.is_mutually_independent([["X", "Y"], ["Z"]])
    assert dist.entropy(["X", "Y", "Z"]) == pytest.approx(3.0, abs=TOL)


def test_each_query_scans_the_support_once_per_decision(support_scans):
    # X, Y and Z are independent fair bits; W copies X.
    dist = JointDistribution.from_rows(
        [({"W": x, "X": x, "Y": y, "Z": z}, Fraction(1, 8))
         for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    # Mutual independence of k groups decides each group against the ones
    # before it, k - 1 scans, and stops at the first dependent one.
    for query, args, value, scans in (
            (dist.entropy, (["X", "Y"],), 2.0, 1),
            (dist.conditional_entropy, (["X", "W"], ["Y", "Z"]), 1.0, 1),
            (dist.mutual_information, (["X"], ["W"]), 1.0, 1),
            (dist.is_independent, (["X"], ["Y", "W"]), False, 1),
            (dist.conditional_mutual_information, (["X"], ["Y"], ["Z"]), 0.0, 2),
            (dist.is_mutually_independent, ([["X"], ["Y"], ["Z"], ["W"]],), False, 3),
            (dist.is_mutually_independent, ([["X"], ["Y"], ["Z"]],), True, 2),
            (dist.is_mutually_independent, ([["X"], ["W"], ["Y"], ["Z"]],), False, 1)):
        support_scans.scans = 0
        assert query(*args) == value, query.__name__
        assert support_scans.scans == scans, query.__name__


def test_construction_errors():
    with pytest.raises(ProbabilityError):
        JointDistribution.from_rows([])
    with pytest.raises(EmptyVariableSet):
        JointDistribution.from_rows([({}, Fraction(1))])
    with pytest.raises(UnknownVariable):
        JointDistribution.from_rows(
            [({"X": 0}, Fraction(1, 2)), ({"Y": 1}, Fraction(1, 2))]
        )
    with pytest.raises(DuplicateOutcome):
        JointDistribution.from_rows(
            [({"X": 0}, Fraction(1, 2)), ({"X": 0}, Fraction(1, 2))]
        )
    with pytest.raises(ProbabilityError, match="^probability must be positive, got 0$"):
        JointDistribution.from_rows([({"X": 0}, Fraction(0))])
    with pytest.raises(ProbabilityError):
        JointDistribution.from_rows(
            [({"X": 0}, Fraction(1, 2)), ({"X": 1}, Fraction(1, 4))]
        )
    # values outside ints, strs and tuples of those; True is not 1
    for bad in (1.5, None, [1], True, (0, 2.0)):
        with pytest.raises(UnsupportedValue):
            JointDistribution.from_rows(
                [({"X": bad}, Fraction(1, 2)), ({"X": 1}, Fraction(1, 2))]
            )
        with pytest.raises(UnsupportedValue):
            JointDistribution.from_rows([({"X": bad}, Fraction(1))])
    # an impostor after an equal valid value: checked by type, not by equality
    for good, bad in ((1, True), (0, False), (1, 1.0), (1, Fraction(1)),
                      ((0, 1), (0, True)), (("a", (1,)), ("a", (1.0,)))):
        with pytest.raises(UnsupportedValue):
            JointDistribution.from_rows(
                [({"X": good}, Fraction(1, 2)), ({"X": bad}, Fraction(1, 2))]
            )
        # distinct Y values, so the rows are no duplicates even if bad == good
        with pytest.raises(UnsupportedValue):
            JointDistribution.from_rows(
                [({"X": good, "Y": 0}, Fraction(1, 2)), ({"X": bad, "Y": 1}, Fraction(1, 2))]
            )


@pytest.mark.parametrize("good, bad", [((1,), (True,)), (((1, "a"),), ((1.0, "a"),))])
@pytest.mark.parametrize("bad_first", [False, True])
def test_sort_key_memo_is_keyed_by_identity(good, bad, bad_first):
    """from_rows keys each value object once, by identity: a value holding
    a bool or a float is refused whether the equal valid value, held by
    two rows, comes before or after it."""
    rows = [({"X": good, "Y": 0}, Fraction(1, 3)), ({"X": good, "Y": 1}, Fraction(1, 3)),
            ({"X": bad, "Y": 2}, Fraction(1, 3))]
    if bad_first:
        rows.reverse()
    with pytest.raises(UnsupportedValue):
        JointDistribution.from_rows(rows)


def _nested(depth: int) -> tuple:
    value = 0
    for _ in range(depth):
        value = (value,)
    return value


def test_from_rows_bounds_value_depth(tmp_path, fallbacks):
    """from_rows takes values nested MAX_VALUE_DEPTH deep, as the readers
    do, so such a scheme round-trips through its file, by the row
    template, and refuses any deeper with UnsupportedValue, however deep,
    and also where one tuple object is met again deeper, in the same
    variable or another. A file in the writer's layout one level deeper
    falls to the json path, which refuses it with ParseError."""
    deep = _nested(MAX_VALUE_DEPTH)
    scheme = Scheme(graph=AccessGraph.build(["x"], []), dist=JointDistribution.from_rows(
        [({"K:x": 0, "S:x": deep}, Fraction(1, 2)), ({"K:x": 1, "S:x": ()}, Fraction(1, 2))]))
    path = tmp_path / "deep.json"
    text = serialize_scheme(scheme)
    path.write_text(text)
    assert load_scheme_file(str(path)) == scheme and fallbacks.count == 0
    assert load_scheme(json.loads(path.read_text())) == scheme
    line = '"S:x": ' + dumps_at(deep, 4)
    assert text.count(line) == 1
    path.write_text(text.replace(line, '"S:x": ' + dumps_at((deep,), 4)))
    with pytest.raises(ParseError, match="^outcome value nests lists more than 32 deep$"):
        load_scheme_file(str(path))
    assert fallbacks.count == 1
    for depth in (MAX_VALUE_DEPTH + 1, 5000):
        with pytest.raises(UnsupportedValue, match="nests tuples more than 32 deep"):
            JointDistribution.from_rows([({"X": _nested(depth)}, Fraction(1))])
    half = Fraction(1, 2)
    shallow = deep[0]  # MAX_VALUE_DEPTH - 1 deep, shared by every value below
    for rows in ([({"X": deep}, half), ({"X": (deep,)}, half)],
                 [({"X": deep, "Y": (deep,)}, Fraction(1))],
                 [({"X": (shallow,)}, half), ({"X": ((shallow,),)}, half)]):
        with pytest.raises(UnsupportedValue, match="nests tuples more than 32 deep"):
            JointDistribution.from_rows(rows)


def test_reader_interns_equal_tuples_once_validated():
    """value_from_json gives equal tuples decoded through one table one
    object, and interns a tuple only once all of it is valid, so no bool
    or float ever stands in the table for an equal int."""
    table: dict = {}
    first = value_from_json([["a", 0], ["b", [1]]], table)
    second = value_from_json([["b", [1]], ["a", 0]], table)
    assert first[0] is second[1] and first[1] is second[0] and first[1][1] is second[0][1]
    assert value_from_json([["a", 0], ["b", [1]]], table) is first
    for bad in ([[1], [True]], [[1.0, "a"]], [["a", 0], None], [[[1], 1.5]]):
        with pytest.raises(ParseError):
            value_from_json(bad, table)
    found = sub_tuples(table)
    assert all(type(item) in (int, str, tuple) for value in found.values() for item in value)
    assert type(value_from_json([[1, "a"]], table)[0][0]) is int
    table = {}
    raw = 0
    for _ in range(MAX_VALUE_DEPTH + 1):
        raw = [raw]
    with pytest.raises(ParseError):
        value_from_json([[0], raw], table)
    assert table == {(0,): (0,)}


def test_query_errors():
    dist = JointDistribution.from_rows(
        [({"X": 0, "Y": 0}, Fraction(1, 2)), ({"X": 1, "Y": 1}, Fraction(1, 2))]
    )
    with pytest.raises(UnknownVariable):
        dist.entropy(["Q"])
    with pytest.raises(EmptyVariableSet):
        dist.entropy([])
    with pytest.raises(EmptyVariableSet):
        dist.marginal([])
    with pytest.raises(OverlappingVariableSets):
        dist.conditional_entropy(["X"], ["X"])
    with pytest.raises(OverlappingVariableSets, match=r"^variable sets share \['X'\]$"):
        dist.is_independent(["X"], ["X", "Y"])
    with pytest.raises(OverlappingVariableSets):
        dist.is_mutually_independent([["X"], ["X"]])
    with pytest.raises(EmptyVariableSet):
        dist.is_mutually_independent([["X"]])
    with pytest.raises(EmptyVariableSet):
        dist.is_functionally_determined(["X"], [])


def coprime_product_dist(rng: random.Random,
                         independent: bool) -> tuple[JointDistribution, Rows]:
    """Four non-uniform variables with marginal denominators 2, 3, 5 and 7.

    With independent set the variables are independent; otherwise mass
    moves between two outcomes, keeping the support.
    """
    pmfs = []
    for den in (2, 3, 5, 7):
        cut = rng.randint(1, den - 1)
        pmfs.append([Fraction(cut, den), Fraction(den - cut, den)])
    rows: Rows = []
    for outcome in itertools.product(range(2), repeat=4):
        assignment = {f"v{i}": value for i, value in enumerate(outcome)}
        rows.append((assignment, math.prod(pmf[v] for pmf, v in zip(pmfs, outcome))))
    if not independent:
        first, second = rng.sample(range(len(rows)), 2)
        shift = min(rows[first][1], rows[second][1]) / 2
        rows[first] = (rows[first][0], rows[first][1] - shift)
        rows[second] = (rows[second][0], rows[second][1] + shift)
    return JointDistribution.from_rows(rows), rows


def mixed_denominator_dist(rng: random.Random) -> tuple[JointDistribution, Rows]:
    """Four variables whose row probabilities are k/210 with k divisible by
    2, 3, 5 or 7, so no row has the common denominator 210 in lowest terms."""
    space = list(itertools.product(range(2), repeat=4))
    while True:
        chosen = rng.sample(space, rng.randint(5, len(space)))
        # 2/210 = 1/105, 3/210 = 1/70, 5/210 = 1/42 and 7/210 = 1/30
        weights = [2, 3, 5, 7] + [rng.choice((2, 3, 5, 7)) * rng.randint(1, 4)
                                  for _ in chosen[5:]]
        rest = 210 - sum(weights)
        if rest > 0 and math.gcd(rest, 210) > 1:
            break
    rows: Rows = [
        (dict(zip(["v0", "v1", "v2", "v3"], outcome)), Fraction(weight, 210))
        for outcome, weight in zip(chosen, [rest] + weights)
    ]
    return JointDistribution.from_rows(rows), rows


def test_integer_view_floats_and_verdicts_match_fraction_reference():
    rng = random.Random(2357)
    verdicts = set()
    for trial in range(60):
        if trial % 3 == 2:
            dist, rows = mixed_denominator_dist(rng)
            denominators = [p.denominator for p in dist.probs]
            assert math.lcm(*denominators) != max(denominators)
        else:
            dist, rows = coprime_product_dist(rng, independent=trial % 3 == 0)
        variables = list(dist.variables)
        for labels in itertools.product(range(3), repeat=len(variables)):
            targets = [var for var, label in zip(variables, labels) if label == 1]
            givens = [var for var, label in zip(variables, labels) if label == 2]
            if not targets:
                continue
            expected = fraction_conditional_entropy(rows, targets, givens)
            assert dist.conditional_entropy(targets, givens) == expected
            if not givens:
                assert dist.entropy(targets) == oracle_entropy(oracle_marginal(rows, targets))
        for split in itertools.combinations(range(1, 4), 2):
            shuffled = variables[:]
            rng.shuffle(shuffled)
            groups = [shuffled[a:b] for a, b in itertools.pairwise((0, *split, 4))]
            for grouping in (groups, [[var] for var in shuffled]):
                mutual = dist.is_mutually_independent(grouping)
                assert mutual == oracle_independent(rows, grouping)
                verdicts.add(mutual)
    assert verdicts == {True, False}


def test_cached_views_stay_out_of_equality_and_hash():
    rng = random.Random(11)
    dist, rows = mixed_denominator_dist(rng)
    twin = JointDistribution.from_rows(list(reversed(rows)))
    dist.entropy(["v0", "v1"])
    dist.is_mutually_independent([["v0"], ["v1"], ["v2", "v3"]])
    dist.is_functionally_determined(["v0"], ["v1"])
    marg = dist.marginal(["v2", "v3"])
    # the decoded views, read on one side only
    assert len(dist.outcomes) == len(dist.probs) == dist.support_size()
    assert sum(dist.probs) == 1 and dist.total == 210
    assert dist == twin and hash(dist) == hash(twin)
    twin.conditional_entropy(["v3"], ["v0"])
    assert dist == twin and hash(dist) == hash(twin)
    rebuilt = JointDistribution.from_rows(marg.rows())
    marg.entropy(["v2"])
    assert marg == rebuilt and hash(marg) == hash(rebuilt)
    assert dist._fields == ("variables", "decoding", "codes", "weights")
