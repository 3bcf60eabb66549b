"""Family verdicts: KI and SKI on weightings of one scheme's rows, decided
by weighing the scheme's plans, against passes on the scheme that the
generator core builds from the same counts."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from conftest import make_chain4, make_diamond, oracle_independent
from hkas import AccessGraph, SplitMix64, gen_trivial
from hkas.checks import _Family, passes
from hkas.generate import _draw, _draw_size, _random, _scheme

KINDS = ("ki", "ski")


def make_poset() -> AccessGraph:
    """The poset {a→b, c}: the smallest shape with both a forbidden pair
    and an ancestor."""
    return AccessGraph.build(["a", "b", "c"], [("a", "b")])


def _built(graph: AccessGraph, q: int, counts, total: int):
    """The scheme with key tuple number index, of the product order, at
    probability count / total, for each (index, count) pair."""
    tuples = list(itertools.product(range(q), repeat=len(graph.classes)))
    return _scheme(graph, [(tuples[index], count) for index, count in counts], total)


def _assert_family_matches(graph: AccessGraph, q: int, weightings) -> int:
    """Each family verdict on the uniform scheme's rows equals passes on
    the scheme built from the same counts; returns how many pass KI."""
    uniform = gen_trivial(graph, q)
    families = [_Family(uniform, kind) for kind in KINDS]
    passing = 0
    for counts in weightings:
        rows, weights = zip(*counts)
        built = _built(graph, q, counts, sum(weights))
        verdicts = [family.passes(weights, rows) for family in families]
        assert verdicts == [passes(built, kind) for kind in KINDS], counts
        passing += verdicts[0]
    return passing


def test_uniform_rows_are_key_tuples_in_draw_order():
    # A family weighs the uniform scheme's rows by a draw's indices, so
    # row i must hold key tuple number i of the order _random builds in.
    for graph, q in ((make_poset(), 2), (make_diamond(), 2), (make_chain4(), 3)):
        rows = gen_trivial(graph, q).dist.rows()
        assert len(rows) == _draw_size(graph, q)
        for index, (assignment, _) in enumerate(rows):
            assert _random(graph, q, [(index, 64)], None).dist.rows() == [
                (assignment, Fraction(1))]


def test_every_weighting_of_total_four_on_the_poset():
    # Every weight vector of total 4 over the 8 key tuples, zeros allowed:
    # a zero leaves the tuple off the support.
    vectors = [vector for vector in itertools.product(range(5), repeat=8) if sum(vector) == 4]
    assert len(vectors) == 330
    weightings = [[(i, w) for i, w in enumerate(vector) if w] for vector in vectors]
    assert 0 < _assert_family_matches(make_poset(), 2, weightings) < 330


def test_seeded_draws_on_the_diamond_and_chain4():
    for graph in (make_diamond(), make_chain4()):
        total = _draw_size(graph, 3)
        rng = SplitMix64(38)
        draws = []
        while len(draws) < 300:
            counts = _draw(rng.next_u64(), total)
            if counts is not None:
                draws.append(counts)
        _assert_family_matches(graph, 3, draws)


def test_the_uniform_scheme_is_its_own_weighting():
    for graph, q in ((make_poset(), 2), (make_diamond(), 3)):
        uniform = gen_trivial(graph, q)
        for kind in KINDS:
            family = _Family(uniform, kind)
            assert family.passes(uniform.dist.weights)
            assert family.passes(uniform.dist.weights, range(len(uniform.dist.weights)))


def test_family_verdicts_match_the_fraction_oracle():
    # A verdict holds iff, at every class, the key is independent of the
    # coalition of forbidden secrets (and, for SKI, ancestor keys), by the
    # Fraction oracle on the weighted rows.
    rng = random.Random(2009)
    for graph, q in ((make_poset(), 2), (make_diamond(), 2), (make_chain4(), 2)):
        uniform = gen_trivial(graph, q)
        support = [assignment for assignment, _ in uniform.dist.rows()]
        families = [_Family(uniform, kind) for kind in KINDS]
        tuples = list(itertools.product(range(q), repeat=len(graph.classes)))
        passing = 0
        for trial in range(60):
            if trial % 2:  # any weights, zeros included
                counts = [(i, w) for i in range(len(support)) if (w := rng.choice((0, 1, 1, 2)))]
            else:  # independent keys: a product of one factor per class
                factors = [[rng.randint(1, 3) for _ in range(q)] for _ in graph.classes]
                counts = [(i, math.prod(f[k] for f, k in zip(factors, keys)))
                          for i, keys in enumerate(tuples)]
            if not counts:
                continue
            rows, weights = zip(*counts)
            total = sum(weights)
            weighted = [(support[row], Fraction(w, total)) for row, w in counts]
            for family, kind in zip(families, KINDS):
                expected = all(
                    oracle_independent(weighted, [[f"K:{u}"], coalition])
                    for u in sorted(graph.classes)
                    if (coalition := [f"S:{v}" for v in sorted(graph.forbidden_set(u))]
                        + ([f"K:{v}" for v in sorted(graph.ancestor_set(u))]
                           if kind == "ski" else [])))
                assert family.passes(weights, rows) == expected, (kind, counts)
                passing += expected
        assert passing >= 30


def test_a_family_codes_each_plan_once(support_scans):
    # The plans are coded when a walk first reaches a class, and every
    # later weighting only weighs them.
    uniform = gen_trivial(make_diamond(), 2)
    families = [_Family(uniform, kind) for kind in KINDS]
    for family in families:
        assert family.passes(uniform.dist.weights)
    coded = support_scans.scans
    assert coded == 3 + 4
    total = _draw_size(uniform.graph, 2)
    rng = SplitMix64(7)
    for _ in range(50):
        counts = _draw(rng.next_u64(), total)
        if counts is not None:
            rows, weights = zip(*counts)
            for family in families:
                family.passes(weights, rows)
    assert support_scans.scans == coded
