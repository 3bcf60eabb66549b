"""Canonical output, byte for byte against the reference encoder in
conftest: schemes, goldens and the CLI's check, entropy and validate
documents; and canonical input: the loader's row template reads every
canonical text to the Scheme the json path gives, and leaves every
other text to that path."""

from __future__ import annotations

import io
import json
import random
import re
import warnings
from fractions import Fraction

import pytest

import hkas.scheme
from conftest import (
    DATA_DIR,
    Walked,
    assert_canonical_form,
    make_antichain4,
    make_chain4,
    make_diamond,
    make_random_dag,
    reference_dumps,
    reference_serialize_scheme,
    sub_tuples,
    walked,
)
from hkas import (
    AccessGraph,
    JointDistribution,
    ParseError,
    Scheme,
    SupportTooLarge,
    evaluate_entropy_expr,
    gen_correlated,
    gen_leaky,
    gen_random_correct,
    gen_trivial,
    load_scheme,
    load_scheme_file,
    run_checks,
    run_validation,
    scheme_to_json,
    serialize_scheme,
)
from hkas.cli import main
from hkas.graph import graph_to_json
from hkas.scheme import (
    _DOC_HEAD,
    _ROW_END,
    _ROW_SEP,
    _load_canonical,
    key_var,
    load_json_file,
    secret_var,
)

SHAPES = {"diamond": make_diamond, "chain4": make_chain4, "antichain4": make_antichain4}


GOLDENS = ["golden-random-q2-s42.json", "golden-random-q2-s2.json"]


def _assert_same_scheme(read, decoded) -> None:
    """Equal, with equal hashes and equal int-coded fields, in canonical form."""
    assert read == decoded and hash(read) == hash(decoded)
    assert_canonical_form(read.dist)
    assert read.dist.codes == decoded.dist.codes
    assert read.dist.decoding == decoded.dist.decoding
    assert read.dist.weights == decoded.dist.weights


def _assert_canonical(scheme) -> None:
    assert_canonical_form(scheme.dist)
    text = serialize_scheme(scheme)
    assert text == reference_serialize_scheme(scheme)
    decoded = load_scheme(json.loads(text))
    assert decoded == scheme
    assert load_scheme(scheme_to_json(scheme)) == scheme
    _assert_same_scheme(_load_canonical(io.StringIO(text)), decoded)


def _every_gen_kind(graph, q: int) -> list[Scheme]:
    labels = sorted(graph.classes)
    target = next(u for u in labels if graph.forbidden_set(u))
    leaker = sorted(graph.forbidden_set(target))[0]
    return [gen_trivial(graph, q),
            gen_leaky(graph, q, target, leaker),
            gen_correlated(graph, q, labels[0], labels[-1]),
            gen_random_correct(graph, q, 0),
            gen_random_correct(graph, q, 1)]


@pytest.mark.parametrize("name", GOLDENS)
def test_goldens_match_reference(name):
    path = DATA_DIR / name
    scheme = load_scheme_file(str(path))
    _assert_canonical(scheme)
    assert serialize_scheme(scheme).encode() == path.read_bytes()


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("q", [2, 3])
def test_every_gen_kind_matches_reference(shape, q):
    for scheme in _every_gen_kind(SHAPES[shape](), q):
        _assert_canonical(scheme)


def test_canonical_files_take_the_row_template(tmp_path, fallbacks):
    """The goldens and every gen kind's file load by the row template,
    to the Scheme the json path gives."""
    paths = [DATA_DIR / name for name in GOLDENS]
    for shape in sorted(SHAPES):
        for q in (2, 3):
            for i, scheme in enumerate(_every_gen_kind(SHAPES[shape](), q)):
                path = tmp_path / f"{shape}-{q}-{i}.json"
                path.write_text(serialize_scheme(scheme))
                paths.append(path)
    for path in paths:
        _assert_same_scheme(load_scheme_file(str(path)),
                            load_scheme(json.loads(path.read_text())))
    assert len(paths) == 32 and fallbacks.count == 0


@pytest.mark.parametrize("chars", [1, 7, 64])
def test_canonical_files_take_the_row_template_in_any_reads(tmp_path, fallbacks, monkeypatch,
                                                            chars):
    """The row template cuts the same rows however few characters each
    read gives, so that the graph, a row and the separator between rows
    fall across reads: the 32 files above load by it, and so does a CRLF
    copy, even when each read gives one character."""
    monkeypatch.setattr("hkas.scheme._READ_CHARS", chars)
    test_canonical_files_take_the_row_template(tmp_path, fallbacks)
    scheme = gen_leaky(make_diamond(), 3, "a", "b")
    path = tmp_path / "crlf.json"
    path.write_bytes(serialize_scheme(scheme).replace("\n", "\r\n").encode())
    _assert_same_scheme(load_scheme_file(str(path)), scheme)
    assert fallbacks.count == 0


@pytest.mark.parametrize("chars", [7, 64])
def test_a_row_longer_than_many_reads_takes_the_row_template(tmp_path, fallbacks, monkeypatch,
                                                             chars):
    """A secret thousands of reads long, holding quotes, braces and
    escaped line breaks that resemble the frame, is carried across the
    reads and loads by the row template to the Scheme the json path
    gives, in the first row, the last, or both."""
    monkeypatch.setattr("hkas.scheme._READ_CHARS", chars)
    secret = '"\n    },\n    {é' * 5_000
    graph = AccessGraph.build(["x"], [])
    for first, last in ((secret, 1), (0, (secret, ())), (secret, secret + "!")):
        scheme = Scheme(graph, JointDistribution.from_rows([
            ({"K:x": 0, "S:x": first}, Fraction(1, 3)),
            ({"K:x": 1, "S:x": last}, Fraction(2, 3))]))
        path = tmp_path / "long.json"
        path.write_text(serialize_scheme(scheme))
        assert path.stat().st_size > 1_000 * chars
        read = load_scheme_file(str(path))
        _assert_same_scheme(read, load_scheme(load_json_file(str(path))))
        assert read == scheme
    assert fallbacks.count == 0


def test_random_dag_schemes_match_reference():
    rng = random.Random(8)
    for seed in range(30):
        graph = make_random_dag(rng, max_nodes=4)
        _assert_canonical(gen_random_correct(graph, rng.choice([2, 3]), seed))


HOSTILE_LABELS = ["é", "ab\u2028", "ÿy", 'q"\\']
HOSTILE_VALUES = [0, -1, 10 ** 40, "", "é", 'q"\n\t', (), ((),), (("a", ()), -7),
                  ((((0,),),),)]


def test_hostile_schemes_match_reference():
    """Escapes (quotes, control characters, U+2028, non-ASCII labels and
    values), empty and nested arrays and big ints at every place a row
    template puts a value, over schemes of 1 to 6 rows with several
    distinct probabilities."""
    rng = random.Random(10)
    for _ in range(40):
        labels = rng.sample(HOSTILE_LABELS, rng.randint(1, 3))
        edges = [(u, v) for i, u in enumerate(labels) for v in labels[i + 1:]
                 if rng.random() < 0.5]
        graph = AccessGraph.build(labels, edges)
        names = [var(u) for u in labels for var in (key_var, secret_var)]
        outcomes = {}
        for _ in range(rng.randint(1, 6)):
            assignment = {var: rng.choice(HOSTILE_VALUES) for var in names}
            outcomes[json.dumps(assignment, sort_keys=True)] = assignment
        weights = [rng.randint(1, 5) for _ in outcomes]
        rows = [(assignment, Fraction(w, sum(weights)))
                for assignment, w in zip(outcomes.values(), weights)]
        _assert_canonical(Scheme(graph=graph, dist=JointDistribution.from_rows(rows)))


def _nested(depth: int, level: int) -> str:
    """A list nesting 0 depth deep, laid out as dumps_at(value, level) would."""
    opens = "".join("[\n" + "  " * (level + i + 1) for i in range(depth))
    closes = "".join("\n" + "  " * (level + i) + "]" for i in reversed(range(depth)))
    return opens + "0" + closes


def _near_canonical(text: str) -> dict[str, str]:
    """Texts one edit away from a canonical text over the class x with one
    row of K:x 0, S:x (("x", 0), ()) and p 1/2, such as that of the
    scheme built in test_near_canonical_files_take_the_json_path."""
    rows = text.split(",\n    {")  # the first holds the graph, the last the end
    swapped = ",\n    {".join([rows[0], rows[2], rows[1]] + rows[3:])
    duplicated = ",\n    {".join(rows[:2] + rows[1:])
    first = '"K:x": 0,'
    value = '[\n          [\n            "x",\n            0\n          ],\n          []\n        ]'
    graph = '"classes": [\n      "x"\n    ]'
    assert text.count(first) == 1 and text.count('"p": "1/2"') == 1
    assert text.count(value) == 1 and text.count(graph) == 1
    keys = re.compile(r'"K:x": (\d+),\n        "S:x": (.*?)\n      }', re.DOTALL)
    swap_keys = r'"S:x": \2,\n        "K:x": \1\n      }'
    before_last, key, last = text.rpartition('"K:x"')
    return {
        "trailing space": text + " ",
        "value on one line": text.replace(value, '[["x", 0], []]'),
        "graph on one line": text.replace(graph, '"classes": ["x"]'),
        "keys out of order": keys.sub(swap_keys, text),
        "keys out of order in the last row": before_last + keys.sub(swap_keys, key + last),
        "unreduced probability": text.replace('"p": "1/2"', '"p": "2/4"'),
        "rows swapped": swapped,
        "row duplicated": duplicated,
        "probabilities sum past 1": text.replace('"p": "1/2"', '"p": "3/4"'),
        "bool value": text.replace(first, '"K:x": true,'),
        "int over the digit limit": text.replace(first, '"K:x": ' + "1" * 5000 + ","),
        "list 900 deep": text.replace(first, '"K:x": ' + _nested(900, 4) + ","),
        "byte order mark": "\ufeff" + text,
    }


def _outcome(load):
    try:
        scheme = load()
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    return scheme


def test_near_canonical_files_take_the_json_path(tmp_path, fallbacks):
    """A text one edit off canonical, valid JSON or not, goes through json
    and load_scheme, so it loads to the same Scheme, or fails with the
    same exception and message, as that path. A CRLF copy of a canonical
    text reads as the text itself, so it takes the row template."""
    graph = AccessGraph.build(["x"], [])
    scheme = Scheme(graph=graph, dist=JointDistribution.from_rows([
        ({"K:x": k, "S:x": (("x", k), ())}, p)
        for k, p in enumerate([Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)])]))
    text = serialize_scheme(scheme)
    path = tmp_path / "scheme.json"
    for name, changed in _near_canonical(text).items():
        assert _load_canonical(io.StringIO(changed)) is None, name
        path.write_text(changed)
        got = _outcome(lambda: load_scheme_file(str(path)))
        want = _outcome(lambda: load_scheme(load_json_file(str(path))))
        if isinstance(want, tuple):
            assert got == want, name
        else:
            _assert_same_scheme(got, want)
    assert fallbacks.count == 11  # all but the two that json rejects
    path.write_bytes(text.replace("\n", "\r\n").encode())
    _assert_same_scheme(load_scheme_file(str(path)), scheme)
    assert fallbacks.count == 11


def test_late_failures_take_the_json_path(tmp_path, fallbacks, monkeypatch):
    """A text that leaves canonical form only in its last row, or holds a
    byte that is not UTF-8 past its first read, both after more than two
    reads, still goes through json, so it loads to the same Scheme, or
    fails with the same exception and message, as that path."""
    n = 1500  # rows with K:x from -n to -1, then K:x 0, the last row
    scheme = Scheme(graph=AccessGraph.build(["x"], []), dist=JointDistribution.from_rows([
        ({"K:x": k, "S:x": (("x", k), ())}, Fraction(1, 2) if k == 0 else Fraction(1, 2 * n))
        for k in range(-n, 1)]))
    text = serialize_scheme(scheme)
    chars = hkas.scheme._READ_CHARS
    assert len(text) > 3 * chars
    last = text.rindex(",\n    {")  # where the last row starts
    late = {name: changed for name, changed in _near_canonical(text).items()
            if changed[:last] == text[:last]}
    end = "\n  ]\n}\n"
    rows = text[:-len(end)].split(",\n    {")
    late["last two rows swapped"] = ",\n    {".join(rows[:-2] + rows[:-3:-1]) + end
    late["last row duplicated"] = ",\n    {".join(rows + rows[-1:]) + end
    assert len(late) == 11
    reads = []
    read = hkas.scheme.load_json_file
    monkeypatch.setattr("hkas.scheme.load_json_file", lambda p: reads.append(p) or read(p))
    path = tmp_path / "scheme.json"
    for name, changed in late.items():
        assert _load_canonical(io.StringIO(changed)) is None, name
        path.write_text(changed)
        got = _outcome(lambda: load_scheme_file(str(path)))
        want = _outcome(lambda: load_scheme(load_json_file(str(path))))
        if isinstance(want, tuple):
            assert got == want, name
        else:
            _assert_same_scheme(got, want)
    assert fallbacks.count == 10  # all but the int over the digit limit, which json rejects
    position = 2 * chars + 5
    data = text.encode()
    path.write_bytes(data[:position] + b"\xff" + data[position:])
    got = _outcome(lambda: load_scheme_file(str(path)))
    assert got == _outcome(lambda: load_scheme(load_json_file(str(path))))
    assert got[0] is ParseError and f"in position {position}:" in got[1]
    assert reads == [str(path)] * 12 and fallbacks.count == 10


class _Counted(io.StringIO):
    """A text handle that counts, in handed, the characters it hands out."""

    handed = 0

    def read(self, size=-1):
        text = super().read(size)
        self.handed += len(text)
        return text


@pytest.mark.parametrize("chars", [1, 64, 4096])
def test_the_cut_reads_no_further_than_the_first_break(tmp_path, fallbacks, monkeypatch,
                                                       chars):
    """The row template gives up on a text as soon as it leaves the
    writer's frame, whatever the size of a read: after the head's length
    when it does not start with the head; within one read of the first
    row end not followed by the separator between rows, so a file whose
    rows never hold that separator is not carried whole; and after the
    first piece, the graph and row 0, when the graph is not the
    writer's. Each of these files still loads through json."""
    monkeypatch.setattr("hkas.scheme._READ_CHARS", chars)
    scheme = gen_leaky(make_diamond(), 3, "a", "b")
    text = serialize_scheme(scheme)
    graph = graph_to_json(scheme.graph)
    spaced = text.replace('"\n    },\n    {', '"\n    } ,\n    {')
    one_line = text.replace(json.dumps(graph, indent=2).replace("\n", "\n  "), json.dumps(graph))
    assert spaced != text and one_line != text
    for changed in (" " + text, _DOC_HEAD.rstrip() + text[len(_DOC_HEAD):]):
        handle = _Counted(changed)
        assert _load_canonical(handle) is None and handle.handed == len(_DOC_HEAD)
    for changed, first in ((spaced, spaced.index('"\n    } ,')),
                           (one_line, one_line.index(_ROW_SEP))):
        handle = _Counted(changed)
        assert _load_canonical(handle) is None
        assert first + len(_ROW_SEP) <= handle.handed < first + len(_ROW_SEP) + chars
        assert handle.handed < len(changed) // 10
        path = tmp_path / "scheme.json"
        path.write_text(changed)
        _assert_same_scheme(load_scheme_file(str(path)), scheme)
    assert fallbacks.count == 2


@pytest.mark.parametrize("chars", [1, 64])
def test_the_cut_gives_up_on_a_row_end_that_starts_the_carry(monkeypatch, chars):
    """A row end at the very start of the carried text counts as any
    other: once a separator would fit after it, the cut gives up."""
    monkeypatch.setattr("hkas.scheme._READ_CHARS", chars)
    handle = _Counted(_DOC_HEAD + _ROW_END + " " * 10_000)
    assert _load_canonical(handle) is None
    assert len(_DOC_HEAD + _ROW_SEP) <= handle.handed < len(_DOC_HEAD + _ROW_SEP) + chars


def test_over_the_bound_fails_in_the_template(tmp_path, fallbacks, monkeypatch):
    """A file in the writer's frame with more rows than HKAS_MAX_SUPPORT
    fails with the json path's SupportTooLarge, and a supplied graph that
    differs warns first, as there; the rows past the bound are only
    counted, so they fail with the bound even where json would first
    reject their text. A file whose frame breaks past the bound goes
    through json."""
    scheme = gen_leaky(make_diamond(), 3, "a", "b")
    text = serialize_scheme(scheme)
    monkeypatch.setenv("HKAS_MAX_SUPPORT", "10")
    want = (SupportTooLarge, "support has 81 rows, bound is 10")
    path, hand, other = tmp_path / "scheme.json", tmp_path / "hand.json", tmp_path / "other.json"
    path.write_text(text)
    hand.write_text(json.dumps(json.loads(text)))
    other.write_text(json.dumps({"classes": ["x"], "edges": []}))
    for graph_path in (None, str(other)):
        for file in (path, hand):
            with warnings.catch_warnings(record=True) as record:
                warnings.simplefilter("always")
                got = _outcome(lambda: load_scheme_file(str(file), graph_path))
            assert got == want, file.name
            assert len(record) == (graph_path is not None), file.name
    assert fallbacks.count == 2  # hand.json, twice
    before, key, after = text.rpartition('"K:a": ')
    path.write_text(before + key + "0x" + after[1:])  # the last row is not JSON
    assert _outcome(lambda: load_scheme_file(str(path))) == want
    assert _outcome(lambda: load_scheme(load_json_file(str(path))))[0] is ParseError
    before, end, after = text.rpartition(_ROW_SEP)
    path.write_text(before + end.replace(",", " ,") + after)  # the frame breaks in the last row
    assert _outcome(lambda: load_scheme_file(str(path))) == want
    assert fallbacks.count == 3


def test_serialize_encodes_each_distinct_value_once():
    """Work per distinct sub-value, not per node: the generator shares one
    tuple per distinct secret and per distinct (class, key) pair, and
    from_rows sort-keys, and serialize_scheme encodes, each of those
    tuples once, reading its items once, however many values hold it."""
    labels = ["n0", "n1", "n2", "n3", "n4", "n5"]
    graph = AccessGraph.build(labels, [("n0", "n1"), ("n0", "n2"), ("n1", "n3"),
                                       ("n2", "n3"), ("n4", "n5")])
    scheme = gen_leaky(graph, 3, "n3", "n4")
    rows = scheme.dist.rows()
    shared = sub_tuples([value for assignment, _ in rows for value in assignment.values()])
    distinct = set(shared.values())
    assert scheme.dist.support_size() == 729 and len(distinct) == len(shared) == 150
    copies: dict = {}
    rows = [({var: walked(value, copies) for var, value in assignment.items()}, p)
            for assignment, p in rows]
    Walked.walks = 0
    dist = JointDistribution.from_rows(rows)
    assert Walked.walks <= len(distinct)
    Walked.walks = 0
    text = serialize_scheme(Scheme(graph=graph, dist=dist))
    assert Walked.walks <= len(distinct)
    assert text == reference_serialize_scheme(scheme)


def _raw_report(report) -> dict:
    """A check report with its witness floats as computed, not rounded."""
    return {
        "kind": report.kind,
        "passed": report.passed,
        "witnesses": [
            {"class": w.cls, "secrets": w.secrets, "keys": w.keys,
             "h_key": w.h_key, "h_key_given": w.h_key_given}
            for w in report.witnesses
        ],
    }


def _stdout(capsys, argv: list[str]) -> str:
    main(argv)
    return capsys.readouterr().out


@pytest.mark.parametrize("q", [2, 3])
def test_cli_documents_match_reference(capsys, tmp_path, q):
    graph = make_diamond()
    graph_path = tmp_path / "diamond.json"
    graph_path.write_text(json.dumps(graph_to_json(graph)))
    for scheme in (gen_trivial(graph, q), gen_leaky(graph, q, "a", "b"),
                   gen_correlated(graph, q, "a", "r"), gen_random_correct(graph, q, 5)):
        path = tmp_path / "scheme.json"
        path.write_text(serialize_scheme(scheme))
        for mode in ("correctness", "ki", "ski", "key-indep", "all"):
            for exhaustive in (False, True):
                reports = run_checks(scheme, mode, exhaustive)
                if len(reports) == 1:
                    doc: object = _raw_report(reports[0])
                else:
                    doc = {"passed": all(r.passed for r in reports),
                           "reports": [_raw_report(r) for r in reports]}
                argv = ["check", "--scheme", str(path), "--mode", mode, "--json"]
                assert _stdout(capsys, argv + ["--exhaustive"] * exhaustive) \
                    == reference_dumps(doc)
        for expr in ("H(K:a)", "H(K:a | S:b)", "I(K:a ; S:b)", "H(K:c | S:a, S:b)"):
            doc = {"expr": expr, "value": evaluate_entropy_expr(scheme, expr)}
            argv = ["entropy", "--scheme", str(path), "--expr", expr, "--json"]
            assert _stdout(capsys, argv) == reference_dumps(doc)
    for seed in (0, 3):
        doc = run_validation(graph, q, 10, seed)
        argv = ["validate", "--graph", str(graph_path), "--q", str(q),
                "--trials", "10", "--seed", str(seed), "--json"]
        assert _stdout(capsys, argv) == reference_dumps(doc)
