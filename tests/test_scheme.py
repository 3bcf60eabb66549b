"""Scheme documents: loading, validation, serialization."""

from __future__ import annotations

import gc
import hashlib
import io
import json
import tracemalloc
from fractions import Fraction
from typing import Callable

import pytest

import hkas
from conftest import DATA_DIR, make_dag8, sub_tuples
from hkas import (
    AccessGraph,
    ParseError,
    ProbabilityError,
    Scheme,
    SupportTooLarge,
    VariableMismatch,
    gen_leaky,
    gen_trivial,
    load_scheme,
    load_scheme_file,
    max_support_size,
    scheme_to_json,
    serialize_scheme,
    write_scheme,
)
from hkas.scheme import load_json_file

TOL = 1e-9


def minimal_doc() -> dict:
    return {
        "graph": {"classes": ["x"], "edges": []},
        "support": [
            {"assignment": {"K:x": 0, "S:x": [["x", 0]]}, "p": "1/2"},
            {"assignment": {"K:x": 1, "S:x": [["x", 1]]}, "p": "1/2"},
        ],
    }


def test_load_minimal_scheme():
    scheme = load_scheme(minimal_doc())
    assert scheme.graph.classes == ("x",)
    assert scheme.dist.support_size() == 2
    assert scheme.dist.entropy(["K:x"]) == pytest.approx(1.0, abs=TOL)


def test_loader_keeps_values_and_probabilities_apart():
    # The same raw text "1/2" is a probability in row 0 and a value in row 1.
    doc = minimal_doc()
    doc["support"][1]["assignment"]["S:x"] = "1/2"
    scheme = load_scheme(doc)
    assert scheme.dist.probs == (Fraction(1, 2), Fraction(1, 2))
    assert {outcome[1] for outcome in scheme.dist.outcomes} == {(("x", 0),), "1/2"}


def test_loader_decodes_values_without_a_repr():
    # An int past the str conversion limit still loads, and nesting past
    # marshal's depth limit is decoded as it would be without the memo.
    doc = minimal_doc()
    doc["support"][0]["assignment"]["K:x"] = 10 ** 5000
    assert load_scheme(doc).dist.outcomes[1][0] == 10 ** 5000
    deep: list = [0]
    for _ in range(100_000):
        deep = [deep]
    doc["support"][0]["assignment"]["S:x"] = deep
    with pytest.raises(ParseError):
        load_scheme(doc)


def test_each_distinct_value_is_decoded_and_keyed_once(tmp_path, fallbacks, monkeypatch):
    """Work per distinct value on the json path: a compact-JSON copy of a
    729-row scheme with 132 distinct (variable, value) pairs is not
    canonical, so it loads through json and load_scheme, which decodes
    each distinct raw value with one hkas.scheme.value_from_json call
    and decodes equal tuples within the values to one object. The row
    template's decode is pinned in test_canonical.py."""
    labels = ["n0", "n1", "n2", "n3", "n4", "n5"]
    graph = AccessGraph.build(labels, [("n0", "n1"), ("n0", "n2"), ("n1", "n3"),
                                       ("n2", "n3"), ("n4", "n5")])
    scheme = gen_trivial(graph, 3)
    doc = scheme_to_json(scheme)
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps(doc, separators=(",", ":")))
    calls = 0
    decode = hkas.scheme.value_from_json

    def counted(raw, *args, **kwargs):
        nonlocal calls
        calls += 1
        return decode(raw, *args, **kwargs)

    monkeypatch.setattr(hkas.scheme, "value_from_json", counted)
    loaded = load_scheme_file(str(path))
    assert loaded == scheme and fallbacks.count == 1
    rows = loaded.dist.rows()
    distinct = {(var, json.dumps(value)) for assignment, _ in rows
                for var, value in assignment.items()}
    raw = {json.dumps(value) for row in doc["support"] for value in row["assignment"].values()}
    assert len(rows) == 729 and len(distinct) == 132
    assert calls == len(raw)
    shared = sub_tuples([value for assignment, _ in rows for value in assignment.values()])
    assert len(shared) == len(set(shared.values())) == 132


def test_canonical_load_peaks_below_the_json_path(tmp_path):
    """The row template holds one string per distinct line and
    probability, never every row's lines at once: on a 729-row file its
    traced peak stays at or below that of json.load and load_scheme, and
    within 10% of the peak of reading the file's text alone (the bytes
    and the text they decode to). Cutting every row up front, or keeping
    each row's own line strings, goes past that."""
    labels = ["n0", "n1", "n2", "n3", "n4", "n5"]
    graph = AccessGraph.build(labels, [("n0", "n1"), ("n0", "n2"), ("n1", "n3"),
                                       ("n2", "n3"), ("n4", "n5")])
    path = tmp_path / "trivial.json"
    path.write_text(serialize_scheme(gen_trivial(graph, 3)))

    def peak(load) -> int:
        tracemalloc.start()
        try:
            load()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    template = peak(lambda: load_scheme_file(str(path)))
    json_path = peak(lambda: load_scheme(load_json_file(str(path))))
    read = peak(lambda: path.read_text(encoding="utf-8"))
    assert template <= json_path, (template, json_path)
    assert template <= 1.1 * read, (template, read)


class Sink(io.TextIOBase):
    """A text handle that keeps only the length and digest of what it is given."""

    def __init__(self) -> None:
        self.size, self.digest = 0, hashlib.sha256()

    def write(self, text: str) -> int:
        self.size += len(text)
        self.digest.update(text.encode("ascii"))
        return len(text)


def _write_peak(make: Callable[[], Scheme]) -> tuple[int, int]:
    """(peak, retained): the traced peak of write_scheme of make()'s scheme,
    and the size that the scheme retains, after checking that the text
    written is serialize_scheme's and over four times that size."""
    tracemalloc.start()
    try:
        gc.collect()  # from a collected start, so earlier tests' garbage does not count
        before = tracemalloc.get_traced_memory()[0]
        scheme = make()
        scheme.dist.total  # a cached property the writer reads
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
        sink = Sink()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        write_scheme(scheme, sink)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    text = serialize_scheme(scheme)
    assert (sink.size, sink.digest.digest()) == (
        len(text), hashlib.sha256(text.encode("ascii")).digest())
    assert len(text) > 4 * retained
    return peak, retained


def test_write_scheme_peaks_near_the_distribution():
    """write_scheme holds one row of text at a time: on a 19,683-row
    scheme whose text is four times the size the distribution retains,
    its traced peak stays within three times that size. Holding the
    whole text, as serialize_scheme does, takes about nine."""
    graph = AccessGraph.build([f"n{i}" for i in range(9)], [])
    peak, retained = _write_peak(lambda: gen_trivial(graph, 3))
    assert peak <= 3 * retained, (peak, retained)


def test_write_scheme_of_a_leaky_scheme_peaks_near_the_distribution():
    """Beside the row it writes, write_scheme holds only the encoded
    distinct lines and probabilities: on the 6,561-row leaky q=3 scheme
    over the eight-class DAG, whose rows are about 2.7 KB of text each,
    its traced peak stays within twice the size the distribution
    retains. Writing 4,096 rows at a time took about seven."""
    graph = make_dag8()
    peak, retained = _write_peak(lambda: gen_leaky(graph, 3, "n3", "n5"))
    assert peak <= 2 * retained, (peak, retained)


def test_load_scheme_file_peaks_near_the_distribution(tmp_path):
    """load_scheme_file reads a canonical file a fixed number of characters
    at a time, never its whole text: on the 19,683-row scheme above, its
    traced peak stays within three times the size the loaded scheme
    retains. Reading the whole text first takes about nine."""
    graph = AccessGraph.build([f"n{i}" for i in range(9)], [])
    scheme = gen_trivial(graph, 3)
    path = tmp_path / "trivial.json"
    with open(path, "w", encoding="utf-8") as handle:
        write_scheme(scheme, handle)
    tracemalloc.start()
    try:
        gc.collect()
        base = tracemalloc.get_traced_memory()[0]
        loaded = load_scheme_file(str(path))
        gc.collect()
        retained, peak = (size - base for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert loaded == scheme
    assert peak <= 3 * retained, (peak, retained)


def test_round_trip(diamond):
    scheme = gen_trivial(diamond, 2)
    text = serialize_scheme(scheme)
    again = load_scheme(json.loads(text))
    assert again == scheme
    assert serialize_scheme(again) == text


def test_load_golden_file():
    scheme = load_scheme_file(str(DATA_DIR / "golden-random-q2-s2.json"))
    assert sorted(scheme.graph.classes) == ["a", "b", "c", "r"]
    assert scheme.dist.support_size() == 16
    assert sum(scheme.dist.probs) == Fraction(1)


def test_graph_file_reference(tmp_path, diamond):
    graph_doc = {"classes": ["x"], "edges": []}
    (tmp_path / "g.json").write_text(json.dumps(graph_doc))
    doc = minimal_doc()
    del doc["graph"]
    doc["graph_file"] = "g.json"
    scheme_path = tmp_path / "s.json"
    scheme_path.write_text(json.dumps(doc))
    scheme = load_scheme_file(str(scheme_path))
    assert scheme.graph.classes == ("x",)
    # explicit graph_path overrides the reference
    other = scheme_to_json(gen_trivial(diamond, 2))["graph"]
    (tmp_path / "g2.json").write_text(json.dumps(other))
    with pytest.raises(VariableMismatch):
        load_scheme_file(str(scheme_path), str(tmp_path / "g2.json"))


def test_embedded_graph_wins_with_warning():
    doc = minimal_doc()
    other_graph = {"classes": ["x", "y"], "edges": []}
    with pytest.warns(UserWarning):
        scheme = load_scheme(doc, other_graph)
    assert scheme.graph.classes == ("x",)
    # identical graphs produce no warning
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        load_scheme(doc, {"classes": ["x"], "edges": []})


def test_embedded_graph_warning_points_at_the_caller(tmp_path):
    # The row template reads the canonical text; the hand-written layout
    # of the same document goes through json and load_scheme.
    doc = minimal_doc()
    canonical = tmp_path / "canonical.json"
    canonical.write_text(serialize_scheme(load_scheme(doc)))
    hand = tmp_path / "hand.json"
    hand.write_text(json.dumps(doc))
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"classes": ["x", "y"], "edges": []}))
    for path in (canonical, hand):
        with pytest.warns(UserWarning) as record:
            load_scheme_file(str(path), str(other))
        assert [w.filename for w in record] == [__file__], path.name
    with pytest.warns(UserWarning) as record:
        load_scheme(doc, {"classes": ["x", "y"], "edges": []})
    assert [w.filename for w in record] == [__file__]


def test_graph_supplied_separately():
    doc = minimal_doc()
    graph_doc = doc.pop("graph")
    scheme = load_scheme(doc, graph_doc)
    assert scheme.graph.classes == ("x",)
    with pytest.raises(ParseError):
        load_scheme(doc)


def test_unresolved_graph_file():
    doc = minimal_doc()
    del doc["graph"]
    doc["graph_file"] = "somewhere.json"
    with pytest.raises(ParseError):
        load_scheme(doc)


def test_parse_errors():
    with pytest.raises(ParseError):
        load_scheme([])
    doc = minimal_doc()
    doc["extra"] = 1
    with pytest.raises(ParseError):
        load_scheme(doc)
    doc = minimal_doc()
    del doc["support"]
    with pytest.raises(ParseError):
        load_scheme(doc)
    doc = minimal_doc()
    doc["support"] = []
    with pytest.raises(ParseError):
        load_scheme(doc)
    doc = minimal_doc()
    doc["support"][0] = {"assignment": {}}
    with pytest.raises(ParseError):
        load_scheme(doc)
    doc = minimal_doc()
    doc["support"][0]["assignment"] = []
    with pytest.raises(ParseError, match="^support row 0: 'assignment' must be an object$"):
        load_scheme(doc)
    doc = minimal_doc()
    doc["support"][0]["assignment"]["K:x"] = 0.5
    with pytest.raises(ParseError):
        load_scheme(doc)


def test_probability_errors():
    doc = minimal_doc()
    doc["support"][0]["p"] = "0/4"
    with pytest.raises(ProbabilityError):
        load_scheme(doc)
    doc = minimal_doc()
    doc["support"][0]["p"] = "oops"
    with pytest.raises(ProbabilityError):
        load_scheme(doc)
    doc = minimal_doc()
    doc["support"][0]["p"] = "1/3"
    with pytest.raises(ProbabilityError):
        load_scheme(doc)
    # integer probabilities are allowed
    doc = minimal_doc()
    doc["support"] = [doc["support"][0]]
    doc["support"][0]["p"] = 1
    assert load_scheme(doc).dist.probs == (Fraction(1),)


def test_variable_mismatch():
    doc = minimal_doc()
    for row in doc["support"]:
        row["assignment"]["K:ghost"] = 0
    with pytest.raises(VariableMismatch):
        load_scheme(doc)
    doc = minimal_doc()
    for row in doc["support"]:
        del row["assignment"]["S:x"]
    with pytest.raises(VariableMismatch):
        load_scheme(doc)


def test_scheme_constructor_validates(diamond):
    trivial = gen_trivial(diamond, 2)
    with pytest.raises(VariableMismatch):
        Scheme(graph=diamond, dist=trivial.dist.marginal(["K:a", "S:a"]))


def test_support_bound(monkeypatch, tmp_path, diamond):
    assert max_support_size() == 1_000_000
    monkeypatch.setenv("HKAS_MAX_SUPPORT", "8")
    assert max_support_size() == 8
    with pytest.raises(SupportTooLarge):
        gen_trivial(diamond, 2)
    scheme = gen_trivial(diamond.build(["x"], []), 2)
    doc = scheme_to_json(scheme)
    path = tmp_path / "canonical.json"
    path.write_text(serialize_scheme(scheme))
    # 2 rows fit in a bound of 8, and in a bound of 2
    assert load_scheme(doc).dist.support_size() == 2
    monkeypatch.setenv("HKAS_MAX_SUPPORT", "2")
    assert load_scheme(doc) == scheme and load_scheme_file(str(path)) == scheme
    monkeypatch.setenv("HKAS_MAX_SUPPORT", "1")
    with pytest.raises(SupportTooLarge):
        load_scheme(doc)
    # A canonical file over the bound fails as any other file does.
    with pytest.raises(SupportTooLarge, match=r"^support has 2 rows, bound is 1$"):
        load_scheme_file(str(path))
    for raw in ("zero", "-3", "0"):
        monkeypatch.setenv("HKAS_MAX_SUPPORT", raw)
        with pytest.raises(ParseError):
            max_support_size()
