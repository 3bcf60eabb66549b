"""Generators: PRNG vectors, postconditions, determinism, golden bytes,
and the int-coded core against its from_rows oracle."""

from __future__ import annotations

import gc
import itertools
import json
import random
import tracemalloc
from fractions import Fraction

import pytest

import hkas.generate
from conftest import DATA_DIR, make_chain4, make_dag8, make_diamond, make_random_dag
from hkas import (
    AccessGraph,
    InvalidArgument,
    InvalidLeak,
    JointDistribution,
    Scheme,
    SplitMix64,
    SupportTooLarge,
    UnknownClass,
    build_corpus,
    check_correctness,
    gen_correlated,
    gen_leaky,
    gen_random_correct,
    gen_trivial,
    key_var,
    run_checks,
    secret_var,
    serialize_scheme,
)
from hkas.cli import main

TOL = 1e-9


def test_splitmix64_reference_vectors():
    # published outputs of the reference splitmix64 with seed 0
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_splitmix64_determinism_and_bounds():
    a = SplitMix64(987654321)
    b = SplitMix64(987654321)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]
    rng = SplitMix64(5)
    draws = [rng.next_below(7) for _ in range(200)]
    assert all(0 <= d < 7 for d in draws)
    assert len(set(draws)) == 7
    assert SplitMix64(1).next_below(1) == 0
    # A 64-bit word indexes at most 2**64 values: n = 2**64 takes every
    # word as it is, and a larger n is refused, not looped on.
    assert SplitMix64(1).next_below(2 ** 64) == SplitMix64(1).next_u64()
    for n in (0, 2 ** 64 + 1):
        with pytest.raises(ValueError):
            SplitMix64(1).next_below(n)
    # seeds wrap modulo 2**64
    assert SplitMix64(2 ** 64 + 3).next_u64() == SplitMix64(3).next_u64()


def test_batched_draws_equal_repeated_next_below():
    # One rejection loop draws a multinomial's balls; from equal seeds it
    # gives what as many next_below calls give, and so does a rejection
    # loop over next_u64 written out here, leaving the same state. At
    # n = 2**63 + 1 about half of the words are rejected.
    for n in (7, 16, 2 ** 63 + 1):
        for seed in range(5):
            batched, single, words = SplitMix64(seed), SplitMix64(seed), SplitMix64(seed)
            draws = batched._draws(n, 64)
            assert draws == [single.next_below(n) for _ in range(64)]
            limit = 2 ** 64 - 2 ** 64 % n
            reference, used = [], 0
            while len(reference) < 64:
                x, used = words.next_u64(), used + 1
                if x < limit:
                    reference.append(x % n)
            assert draws == reference
            assert batched.state == single.state == words.state
            if n == 2 ** 63 + 1:
                assert 90 < used < 170, used


def test_random_schemes_over_more_than_2_64_key_tuples_are_refused(monkeypatch, tmp_path):
    # 2**65 key tuples: a 64-bit draw cannot index them, so both branches
    # are refused alike, before any PRNG word is drawn or any support built.
    def forbidden(*args):
        raise AssertionError("drew a word or built a support")
    monkeypatch.setenv("HKAS_MAX_SUPPORT", str(2 ** 70))
    # 2**64 key tuples are drawn over: 64 balls make at most 64 rows.
    widest = AccessGraph.build([f"c{i:02d}" for i in range(64)], [])
    assert 0 < gen_random_correct(widest, 2, 2).dist.support_size() <= 64
    graph = AccessGraph.build([f"c{i:02d}" for i in range(65)], [])
    monkeypatch.setattr(SplitMix64, "_draws", forbidden)
    monkeypatch.setattr(hkas.generate, "_scheme", forbidden)
    refusal = r"^q\*\*65 = 36893488147419103232 key tuples with q=2 exceeds 2\*\*64"
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"classes": list(graph.classes), "edges": []}), encoding="utf-8")
    for seed in (42, 2):  # the uniform branch's seed, then the multinomial's
        with pytest.raises(SupportTooLarge, match=refusal):
            gen_random_correct(graph, 2, seed)
        out = tmp_path / "scheme.json"
        assert main(["gen", "--graph", str(path), "--kind", "random", "--q", "2",
                     "--seed", str(seed), "-o", str(out)]) == 2
        assert not out.exists()
    with pytest.raises(SupportTooLarge, match=refusal):
        build_corpus(graph, 2, 1, 7)
    assert main(["validate", "--graph", str(path), "--q", "2", "--trials", "1"]) == 2


def test_random_seed_must_be_one_word(diamond):
    # A seed outside range(2**64) would alias one inside it, so it is
    # refused; both ends of the range are accepted, and differ.
    for seed in (-1, 2 ** 64):
        with pytest.raises(InvalidArgument,
                           match=rf"^seed must be in range\(2\*\*64\), got {seed}$"):
            gen_random_correct(diamond, 2, seed)
    low, high = (gen_random_correct(diamond, 2, seed) for seed in (0, 2 ** 64 - 1))
    assert low != high


def test_gen_trivial_postconditions(diamond):
    scheme = gen_trivial(diamond, 2)
    assert scheme.dist.support_size() == 16
    assert set(scheme.dist.probs) == {Fraction(1, 16)}
    for u in diamond.classes:
        marg = scheme.dist.marginal([f"K:{u}"])
        assert set(marg.probs) == {Fraction(1, 2)}
        assert {out[0] for out in marg.outcomes} == {0, 1}
    for assignment, _p in scheme.dist.rows():
        members = sorted(diamond.accessible_set("a"))
        assert [pair[0] for pair in assignment["S:a"]] == members
        for v, k in assignment["S:a"]:
            assert assignment[f"K:{v}"] == k
    assert all(r.passed for r in run_checks(scheme, "all", exhaustive=True))


def test_gen_trivial_q3(diamond):
    scheme = gen_trivial(diamond, 3)
    assert scheme.dist.support_size() == 81
    assert scheme.dist.entropy(["K:a"]) == pytest.approx(1.584962500721156, abs=TOL)


def test_gen_leaky_postconditions(diamond):
    scheme = gen_leaky(diamond, 2, "a", "b")
    assert scheme.dist.support_size() == 16
    for assignment, _p in scheme.dist.rows():
        leaked = dict(assignment["S:b"])
        assert leaked["a"] == assignment["K:a"]
        assert sorted(leaked) == ["a", "b", "c"]
    with pytest.raises(InvalidLeak):
        gen_leaky(diamond, 2, "c", "r")  # r can already reach c
    with pytest.raises(InvalidLeak):
        gen_leaky(diamond, 2, "a", "a")
    with pytest.raises(UnknownClass):
        gen_leaky(diamond, 2, "a", "zz")


def test_gen_correlated_postconditions(diamond):
    scheme = gen_correlated(diamond, 2, "a", "r")
    assert scheme.dist.support_size() == 8
    for assignment, _p in scheme.dist.rows():
        assert assignment["K:a"] == assignment["K:r"]
    # the pair is unordered
    assert serialize_scheme(gen_correlated(diamond, 2, "r", "a")) == serialize_scheme(
        scheme
    )
    with pytest.raises(InvalidLeak):
        gen_correlated(diamond, 2, "a", "a")
    with pytest.raises(UnknownClass):
        gen_correlated(diamond, 2, "a", "zz")


def test_gen_random_correct_properties(diamond, chain4):
    rng = SplitMix64(77)
    for graph in (diamond, chain4):
        for _ in range(15):
            seed = rng.next_u64()
            scheme = gen_random_correct(graph, 2, seed)
            assert check_correctness(scheme).passed
            assert sum(scheme.dist.probs) == Fraction(1)
            assert all(p.denominator <= 64 for p in scheme.dist.probs)
            again = gen_random_correct(graph, 2, seed)
            assert serialize_scheme(again) == serialize_scheme(scheme)


def test_gen_random_branches(diamond):
    # seed 42 draws the uniform branch, seed 2 the multinomial branch
    uniform = gen_random_correct(diamond, 2, 42)
    assert set(uniform.dist.probs) == {Fraction(1, 16)}
    lumpy = gen_random_correct(diamond, 2, 2)
    assert set(lumpy.dist.probs) != {Fraction(1, 16)}
    assert sum(lumpy.dist.probs) == Fraction(1)


def test_golden_bytes(diamond):
    for seed, name in ((42, "golden-random-q2-s42.json"),
                       (2, "golden-random-q2-s2.json")):
        scheme = gen_random_correct(diamond, 2, seed)
        frozen = (DATA_DIR / name).read_text(encoding="utf-8")
        assert serialize_scheme(scheme) == frozen


def test_q_validation(diamond):
    for gen in (lambda: gen_trivial(diamond, 1),
                lambda: gen_leaky(diamond, 1, "a", "b"),
                lambda: gen_correlated(diamond, 0, "a", "r"),
                lambda: gen_random_correct(diamond, 1, 5)):
        with pytest.raises(ValueError):
            gen()


def test_support_bound_enforced(monkeypatch, diamond):
    monkeypatch.setenv("HKAS_MAX_SUPPORT", "15")
    with pytest.raises(SupportTooLarge):
        gen_trivial(diamond, 2)
    with pytest.raises(SupportTooLarge):
        gen_leaky(diamond, 2, "a", "b")
    with pytest.raises(SupportTooLarge):
        gen_random_correct(diamond, 2, 42)
    # correlated only needs q**(n-1) = 8 rows
    assert gen_correlated(diamond, 2, "a", "r").dist.support_size() == 8
    monkeypatch.setenv("HKAS_MAX_SUPPORT", "4")
    with pytest.raises(SupportTooLarge, match=r"q\*\*3 = 8 "):
        gen_correlated(diamond, 2, "a", "r")
    # the bound itself is allowed
    monkeypatch.setenv("HKAS_MAX_SUPPORT", "16")
    assert gen_trivial(diamond, 2).dist.support_size() == 16


def reference_scheme(graph, members, weighted_keys, total) -> Scheme:
    """The generator core's oracle: the same rows, each with probability
    Fraction(weight, total), built as dicts of values and canonicalised
    by JointDistribution.from_rows."""
    labels = sorted(graph.classes)
    rows = []
    for combo, weight in weighted_keys:
        keys = dict(zip(labels, combo))
        assignment = {key_var(u): keys[u] for u in labels}
        for u in labels:
            assignment[secret_var(u)] = tuple((v, keys[v]) for v in members[u])
        rows.append((assignment, Fraction(weight, total)))
    return Scheme(graph=graph, dist=JointDistribution.from_rows(rows))


@pytest.fixture
def core_pairs(monkeypatch) -> list:
    """Wraps the generator core so that every scheme a generator makes is
    recorded beside its oracle, built from the same members and keys."""
    made = []
    core = hkas.generate._scheme

    def both(graph, members, weighted_keys, total):
        weighted = list(weighted_keys)
        scheme = core(graph, members, weighted, total)
        made.append((scheme, reference_scheme(graph, members, weighted, total)))
        return scheme

    monkeypatch.setattr(hkas.generate, "_scheme", both)
    return made


def every_kind(graph, q: int, seeds) -> None:
    """Each generator on graph: trivial, every forbidden leak, every
    correlated pair and random on each seed."""
    labels = sorted(graph.classes)
    gen_trivial(graph, q)
    for target in labels:
        for leaker in sorted(graph.forbidden_set(target)):
            gen_leaky(graph, q, target, leaker)
    for u, w in itertools.combinations(labels, 2):
        gen_correlated(graph, q, u, w)
    for seed in seeds:
        gen_random_correct(graph, q, seed)


def pairs_of(scheme) -> list:
    """Every (class, key) pair in the secrets' decoding, repeats included."""
    return [pair for var, values in zip(scheme.dist.variables, scheme.dist.decoding)
            if var.startswith("S:") for value in values for pair in value]


def test_core_matches_from_rows_oracle(core_pairs):
    rng = random.Random(1600)
    graphs = [make_diamond(), make_chain4(), AccessGraph.build(["x", "y", "z"], [])]
    graphs += [make_random_dag(rng, max_nodes=5) for _ in range(20)]
    for q in (2, 3):
        for graph in graphs:
            every_kind(graph, q, range(4))
    # Few balls over many key tuples: key values go missing from the support.
    every_kind(AccessGraph.build(["x", "y"], [("x", "y")]), 32, range(6))
    missing = 0
    for scheme, reference in core_pairs:
        assert scheme == reference
        assert serialize_scheme(scheme) == serialize_scheme(reference)
        dist = scheme.dist
        missing += any(values != tuple(range(len(values)))
                       for var, values in zip(dist.variables, dist.decoding)
                       if var.startswith("K:"))
    assert len(core_pairs) > 500
    assert missing  # some key's code differs from its value


def test_secrets_share_one_pair_per_class_and_key(tree7):
    for scheme in (gen_trivial(tree7, 3), gen_leaky(tree7, 3, "c", "b"),
                   gen_correlated(tree7, 3, "a", "f"), gen_random_correct(tree7, 3, 2),
                   gen_random_correct(tree7, 3, 42)):
        pairs = pairs_of(scheme)
        assert len({id(pair) for pair in pairs}) == len(set(pairs))


def test_gen_leaky_peaks_near_the_scheme():
    """The core codes each value column as soon as it is built, so no
    column of per-row values outlives its codes: on the 6,561-row leaky
    q=3 scheme over the eight-class DAG, gen_leaky's traced peak stays
    within twice the size of the scheme it returns. Holding every
    column's values until the rows are zipped took about 2.6 times."""
    graph = make_dag8()
    tracemalloc.start()
    try:
        gc.collect()  # from a collected start, so earlier tests' garbage does not count
        base = tracemalloc.get_traced_memory()[0]
        scheme = gen_leaky(graph, 3, "n3", "n5")
        gc.collect()
        retained, peak = (size - base for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(scheme.dist.codes) == 3 ** 8
    assert peak <= 2 * retained, (peak, retained)
