"""Canonical JSON helpers and the declared console entry point."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from importlib import metadata
from pathlib import Path

import pytest

import hkas.cli
import hkas.jsonutil
from conftest import DATA_DIR, make_diamond, reference_dumps
from hkas import (
    ParseError,
    ProbabilityError,
    evaluate_entropy_expr,
    gen_correlated,
    gen_leaky,
    gen_random_correct,
    gen_trivial,
    load_scheme_file,
    run_checks,
    run_validation,
    scheme_to_json,
)
from hkas.graph import graph_to_json
from hkas.jsonutil import (
    MAX_VALUE_DEPTH,
    dumps_at,
    dumps_canonical,
    loads_at,
    parse_prob,
    prob_str,
    round_float,
    value_from_json,
    value_sort_key,
)


def test_parse_prob():
    assert parse_prob("1/8") == Fraction(1, 8)
    assert parse_prob("3") == Fraction(3)
    assert parse_prob(2) == Fraction(2)
    for bad in ("0/4", "-1/2", 0, -2, "1/0", "x/y", 0.5, True, None, [1, 2],
                "0.5", "1e-1", " 1/2"):
        with pytest.raises(ProbabilityError):
            parse_prob(bad)


def test_prob_str_round_trip():
    for frac in (Fraction(1, 8), Fraction(7), Fraction(2, 6)):
        assert parse_prob(prob_str(frac)) == frac
    assert prob_str(Fraction(2, 6)) == "1/3"


def test_value_codec():
    assert value_from_json(3) == 3
    assert value_from_json("x") == "x"
    assert value_from_json([["a", 0], ["b", 1]]) == (("a", 0), ("b", 1))
    # Decoded values are tuples, which json writes as arrays; a decoded
    # value decodes to itself, so the library round trip needs no copy.
    assert json.loads(json.dumps((("a", 0),))) == [["a", 0]]
    assert value_from_json((("a", 0), ("b", 1))) == (("a", 0), ("b", 1))
    for bad in (0.5, True, None, {"k": 1}):
        with pytest.raises(Exception):
            value_from_json(bad)


def test_value_depth_bound():
    def nested(depth):
        raw = 0
        for _ in range(depth):
            raw = [raw]
        return raw

    decoded = value_from_json(nested(MAX_VALUE_DEPTH))
    assert json.loads(json.dumps(decoded)) == nested(MAX_VALUE_DEPTH)
    assert value_from_json(decoded) == decoded
    with pytest.raises(ParseError):
        value_from_json(nested(MAX_VALUE_DEPTH + 1))
    with pytest.raises(ParseError):
        value_from_json((decoded,))


def _nested_key(value) -> tuple:
    """The reference order: ints, then strs, then tuples by their items' keys."""
    if isinstance(value, tuple):
        return (2, tuple([_nested_key(item) for item in value]))
    return (0, value) if isinstance(value, int) else (1, value)


def test_value_sort_key_total_order():
    values = [(("b", 1),), 3, "a", 0, (("a", 0),), "b", ()]
    ordered = sorted(values, key=value_sort_key)
    assert ordered == [0, 3, "a", "b", (), (("a", 0),), (("b", 1),)]
    # The flat key orders as the nested reference does, prefixes first,
    # and is injective.
    rng = random.Random(5)

    def draw(depth=0):
        roll = rng.random()
        if depth > 3 or roll < 0.35:
            return rng.choice([0, 1, -1, 2, 10 ** 20])
        if roll < 0.6:
            return rng.choice(["", "a", "b", "ab", "\x00"])
        return tuple(draw(depth + 1) for _ in range(rng.randrange(4)))

    values = [draw() for _ in range(2000)]
    assert sorted(values, key=value_sort_key) == sorted(values, key=_nested_key)
    assert len({value_sort_key(value) for value in values}) == len(set(values))


def test_round_float():
    assert round_float(0.1234567890123456) == 0.123456789012
    assert round_float(1.0) == 1.0
    assert round_float(0.0) == 0.0


def test_dumps_canonical():
    # The document is written as given: its builder renders rationals
    # (prob_str) and rounds floats (round_float); tuples become arrays.
    doc = {"b": prob_str(Fraction(1, 3)), "a": [round_float(1.23456789012345e-5), ("x", 2)]}
    text = dumps_canonical(doc)
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert parsed == {"a": [1.23456789012e-05, ["x", 2]], "b": "1/3"}
    assert text.index('"a"') < text.index('"b"')
    assert dumps_canonical(doc) == text
    assert json.loads(dumps_canonical({"x": 1.23456789012345e-5})) == {"x": 1.23456789012345e-5}
    with pytest.raises(TypeError):
        dumps_canonical({"p": Fraction(1, 3)})


def test_dumps_canonical_is_indented_json_dumps():
    doc = {"z": [{"b": [], "a": {}}, ("x", [1, [2, "\n\u2028é"]])], "a": {"c": {"d": [0]}}}
    assert dumps_canonical(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _reference_at(value, depth: int) -> str:
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + "  " * depth)


def _documents() -> list:
    """Every kind of document hkas writes, as built: the goldens, as read
    and as a scheme document; each gen kind's scheme document; and the
    graph analyze --json (with and without --class), check --json,
    entropy --json and validate --json documents."""
    docs = []
    for name in ("golden-random-q2-s42.json", "golden-random-q2-s2.json"):
        path = DATA_DIR / name
        docs += [json.loads(path.read_text()), scheme_to_json(load_scheme_file(str(path)))]
    graph = make_diamond()
    docs.append(graph_to_json(graph))
    for targets in (sorted(graph.classes), ["a"]):
        docs.append({"classes": list(graph.classes),
                     "topological_sort": list(graph.topological_sort()),
                     "well_ordered_all": list(graph.well_ordered_all()),
                     "analysis": {label: hkas.cli._analysis(graph, label)
                                  for label in targets}})
    for q in (2, 3):
        for scheme in (gen_trivial(graph, q), gen_leaky(graph, q, "a", "b"),
                       gen_correlated(graph, q, "a", "r"), gen_random_correct(graph, q, 0),
                       gen_random_correct(graph, q, 1)):
            docs.append(scheme_to_json(scheme))
            for exhaustive in (False, True):
                reports = run_checks(scheme, "all", exhaustive)
                docs.append(reports[1].to_json())
                docs.append({"passed": all(r.passed for r in reports),
                             "reports": [r.to_json() for r in reports]})
            for expr in ("H(K:a)", "I(K:a ; S:b)", "H(K:c | S:a, S:b)"):
                docs.append({"expr": expr,
                             "value": round_float(evaluate_entropy_expr(scheme, expr))})
        summary = run_validation(graph, q, 10, q)
        summary["max_abs_err"] = round_float(summary["max_abs_err"])
        docs.append(summary)
    return docs


def test_dumps_at_matches_json_on_every_document():
    """dumps_at is json.dumps(sort_keys=True, indent=2), re-indented, on
    every document hkas writes, at every depth, with or without one memo
    shared across the documents."""
    docs = _documents()
    for depth in (0, 1, 4):
        memo: dict = {}
        for doc in docs:
            want = _reference_at(doc, depth)
            assert dumps_at(doc, depth) == want
            assert dumps_at(doc, depth, memo) == want
    assert [dumps_canonical(doc) for doc in docs] == [reference_dumps(doc) for doc in docs]


def _hostile_values() -> list:
    deep = 0
    for _ in range(MAX_VALUE_DEPTH):
        deep = (deep,)
    shared = ("x", (0, -1))
    return [
        'q"\\/\n\r\t\b\f\x00\x1f\x7f', "é\u2028\u2029\ud800\U0001f600", "",
        -1, -(10 ** 40), 10 ** 3999, 0,
        (), [], {}, ((),), [[], {}, ()], {"": [()], "a": {}},
        deep, [deep, (deep,)],
        [shared, (shared,), {"k": [[shared]]}, shared],  # one tuple at four depths
        {"h_key": 1.5849625007, "passed": True, "witness": None,
         "floats": [0.1, -0.0, 1e-05, float("inf"), float("nan")], "bools": (False, True)},
        [(1,), (True,), (1.0,), ((1, "a"),), ((1.0, "a"),)],  # equal, but not the same
        {10: "a", 2: [], 1: ()}, {2.5: 0}, {None: 0}, {True: 0},  # keys json converts
    ]


def test_dumps_at_matches_json_on_hostile_values():
    values = _hostile_values()
    assert len(str(values[5])) == 4000
    for depth in (0, 3):
        memo: dict = {}
        for value in values + values:
            want = _reference_at(value, depth)
            assert dumps_at(value, depth) == want
            assert dumps_at(value, depth, memo) == want


def test_dumps_at_memoises_only_the_nested_tuples():
    pair = ("a", 1)
    secret = (pair, ("b", (2, 3)))
    memo: dict = {}
    assert dumps_at(secret, 4, memo) == _reference_at(secret, 4)
    assert (id(secret), 4) not in memo
    assert memo[id(pair), 5] == (pair, _reference_at(pair, 5))
    assert {key[1] for key in memo} == {5, 6} and len(memo) == 3


def test_dumps_at_raises_where_json_does():
    cycle: list = []
    cycle.append(cycle)
    deep: list = []
    for _ in range(100_000):
        deep = [deep]
    for value in ([Fraction(1, 3)], {1: 0, "a": 1}, {(1,): 0}, (1, {2}), 10 ** 5000,
                  [("a", object())], cycle, deep):
        with pytest.raises(Exception) as expected:
            json.dumps(value, sort_keys=True, indent=2)
        with pytest.raises(Exception) as got:
            dumps_at(value, 2, {})
        assert got.type is expected.type


def test_dumps_at_falls_back_to_json_past_the_recursion_limit(monkeypatch):
    # The encoder recurses once per level of a tuple only: lists and
    # dicts go to json's encoder at once, and a tuple nested far past the
    # recursion limit (JointDistribution does not check its decoding)
    # makes the encoder give up. Either way json's own encoder raises its
    # exception, with its message.
    cycle: list = []
    cycle.append(cycle)
    deep: list = []
    for _ in range(5_000):
        deep = [deep]
    deep_tuple: tuple = ()
    for _ in range(5_000):
        deep_tuple = (deep_tuple,)
    for value, kind in ((cycle, ValueError), (deep, RecursionError),
                        (deep_tuple, RecursionError)):
        with pytest.raises(kind) as expected:
            json.dumps(value, sort_keys=True, indent=2)
        with pytest.raises(kind) as got:
            dumps_at(value, 0)
        assert got.type is expected.type and str(got.value) == str(expected.value)
        assert any(entry.name == "_json_at" for entry in got.traceback)
    # A tuple 400 deep is past the encoder's reach, a few frames a level,
    # but within json's: the whole value goes to json, once, and the text
    # is json's, byte for byte.
    value = _nested(400)
    fallbacks: list = []
    json_at = hkas.jsonutil._json_at
    monkeypatch.setattr(hkas.jsonutil, "_json_at",
                        lambda *args: fallbacks.append(args) or json_at(*args))
    want = json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n    ")
    assert dumps_at(value, 2) == want and fallbacks == [(value, 2)]


def _nested(depth: int, leaf=0):
    for _ in range(depth):
        leaf = (leaf,)
    return leaf


def _scheme_values() -> list:
    """Generator values, every kind at q=2 and 3 on the diamond, plus
    hand-made ones: extreme ints, escaped and non-ASCII strs, empty and
    shared tuples."""
    graph = make_diamond()
    values = {value for q in (2, 3)
              for scheme in (gen_trivial(graph, q), gen_leaky(graph, q, "a", "b"),
                             gen_correlated(graph, q, "a", "r"),
                             gen_random_correct(graph, q, 0))
              for column in scheme.dist.decoding for value in column}
    shared = ("x", (0, -1))
    return sorted(values, key=value_sort_key) + [
        -1, -(10 ** 40), 10 ** 3999, 0, 'q"\\/\n\r\t\b\f\x00\x1f\x7f',
        "é\u2028\u2029\ud800\U0001f600", "", (), ((),), ((), ("", 0), ()),
        (shared, (shared,), shared), ((shared, 1), ((shared, 1),)),
    ]


def test_loads_at_inverts_dumps_at():
    """loads_at reads back every scheme value dumps_at writes, at every
    depth a scheme file's values take, with the value's sort key, equal
    sub-tuples as one object, and nesting up to the bound counted from
    depth 4; one array deeper is refused."""
    values = _scheme_values()
    assert len(values) > 60
    for depth in (4, 5, 6):
        deep = _nested(MAX_VALUE_DEPTH - (depth - 4), "z")
        memo: dict = {}
        for value in values + [deep, (1, deep[0])]:
            text = dumps_at(value, depth)
            for read in (loads_at(text, depth, {}), loads_at(text, depth, memo)):
                assert read == (value, value_sort_key(value))
                assert repr(read[0]) == repr(value)
        for bad in ((deep,), (1, deep)):
            with pytest.raises(ValueError, match="more than 32 deep"):
                loads_at(dumps_at(bad, depth), depth, {})
        with pytest.raises(ValueError):
            loads_at(dumps_at(deep, depth), depth - 1, {})
    shared = ("x", (0, -1))
    got, _ = loads_at(dumps_at((shared, (shared,), shared), 4), 4, {})
    assert got[0] is got[1][0] is got[2]


def test_loads_at_refuses_near_canonical_texts():
    """Texts the writer would not write are refused with ValueError:
    json's other layouts and spellings, stray whitespace, an empty body,
    a misplaced indent, and an array met through the memo at another
    depth than its layout's."""
    value = (("a", 1), ("b", -2))
    text = dumps_at(value, 4)
    near = [
        json.dumps(value), json.dumps(value, separators=(",", ":")), "[ ]", "[\n]",
        "-0", "01", "+1", "1_0", "1.0", "1e3", "true", "false", "null", "NaN",
        '"é"', '"\\u00E9"', '"\\/"', "'a'", '"a" ', " 0", "0 ", "", "[", "]", "{}",
        text + " ", " " + text, text + "\n", text.replace("]", "],", 1),
        "[\n          \n        ]",  # the empty body
        text.replace("\n            1", "\n             1"),  # one item an indent off
        text.replace("\n          ]", "\n           ]", 1),  # a closing indent off
        text.replace("\n        ]", "\n      ]"),  # the outer array laid out a level up
        dumps_at(value, 5), dumps_at(value, 3),
    ]
    assert loads_at('"\\u00e9"', 4, {}) == ("é", (1, "é"))
    for bad in near:
        assert bad != text
        with pytest.raises(ValueError):
            loads_at(bad, 4, {})
    memo: dict = {}
    loads_at(dumps_at(((value,), ()), 4), 4, memo)  # value at depth 6, () at 5
    loads_at(dumps_at((value, 1), 4), 4, memo)  # value at depth 5
    assert {dumps_at(value, 5), dumps_at(value, 6), "[]"} <= set(memo)
    for bad in (dumps_at(value, 5), dumps_at((value, 1), 4).replace(
            dumps_at(value, 5), dumps_at(value, 6))):
        with pytest.raises(ValueError):
            loads_at(bad, 4, memo)
    with pytest.raises(ValueError, match="more than 32 deep"):
        loads_at("[]", 4 + MAX_VALUE_DEPTH, memo)


def test_loads_at_single_character_edits():
    """Every one-character substitution, deletion or insertion in a
    canonical text is refused, or reads as a value the writer writes as
    the edited text: a generated secret, and a hand-made value one
    level deeper."""
    alphabet = ' \n[],"0-1a\\xé'
    secret = gen_leaky(make_diamond(), 2, "a", "b").dist.decoding[4][-1]
    for value, depth in ((secret, 4), ((-12, ("é\n", ()), 7), 5)):
        text = dumps_at(value, depth)
        edits = set()
        for i in range(len(text) + 1):
            for char in alphabet:
                edits.add(text[:i] + char + text[i:])
                edits.add(text[:i] + char + text[i + 1:])
            edits.add(text[:i] + text[i + 1:])
        edits.discard(text)
        accepted = 0
        for edited in edits:
            try:
                read, key = loads_at(edited, depth, {})
            except ValueError:
                continue
            accepted += 1
            assert dumps_at(read, depth) == edited and key == value_sort_key(read)
        assert 0 < accepted < len(edits) // 4


PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"


def _declared_script(name: str) -> str | None:
    """The ``[project.scripts]`` value for ``name`` in the checkout's pyproject."""
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        project = tomllib.load(fh)["project"]
    return project.get("scripts", {}).get(name)


def _is_installed(dist: str) -> bool:
    try:
        metadata.distribution(dist)
    except metadata.PackageNotFoundError:
        return False
    return True


def test_console_entry_point_declared():
    value = _declared_script("hkas")
    assert value == "hkas.cli:main"
    entry = metadata.EntryPoint(name="hkas", value=value, group="console_scripts")
    assert entry.load() is hkas.cli.main


@pytest.mark.skipif(not _is_installed("hkas"),
                    reason="hkas distribution is not installed")
def test_installed_console_script_matches_declaration():
    scripts = metadata.entry_points(group="console_scripts")
    installed = [ep.value for ep in scripts if ep.name == "hkas"]
    assert installed == [_declared_script("hkas")]


def test_module_invocation_smoke():
    # The child finds the package the suite imported, also when pytest's
    # pythonpath setting, not PYTHONPATH, put it on sys.path.
    package_root = str(Path(hkas.cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "hkas.cli", "--help"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "check" in proc.stdout and "validate" in proc.stdout
