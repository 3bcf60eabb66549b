"""Schemes: a joint distribution over the keys and secrets of a graph.

A scheme for access graph G assigns each class u two random variables,
the key "K:u" and the secret "S:u", and gives their joint distribution
explicitly. The distribution's variable set must match the graph's
classes exactly: one key and one secret per class, nothing else.

Scheme documents are JSON objects {"graph": ..., "support": [...]} or
{"graph_file": "path", "support": [...]}; each support row is
{"assignment": {"K:a": 0, "S:a": [...], ...}, "p": "1/8"}.

Secrets spell out keys, so the same values repeat across rows. The
writer, serialize_scheme, encodes each distinct value of a variable
once and builds every row from a fixed template over the int codes of
its values; its text is the canonical JSON of scheme_to_json.
write_scheme writes the same text to a file one row at a time.

load_scheme_file reads such a text by the same template, as its inverse,
in fixed-size reads: it reads the head, then cuts on the separator
between rows, carrying at most one row to the next read, and gives up
rather than carry a row end that no separator follows. The certified
graph fixes the variables. Only the distinct lines and probabilities
are decoded; the int codes and weights come from their ranks. The cut
is accepted only when the writer certifies it: when serialize_scheme of
the result would give back the text byte for byte, so the format has
one definition, the writer's. Every other file (hand-written, a
graph_file reference, other layouts, anything one byte off, or not
UTF-8) is read again and decoded by json and load_scheme, which decodes
each distinct raw value once and gives its repeats, and equal tuples
within values, the same object, so from_rows validates each distinct
value and sub-value once. Both paths give equal Schemes; every error
but SupportTooLarge in the writer's frame comes from the second.
"""

from __future__ import annotations

import json
import marshal
import os
import sys
import warnings
from fractions import Fraction
from functools import partial
from itertools import chain, islice, repeat
from typing import IO, Any, Callable, Iterable, Iterator

from .dist import Decoding, JointDistribution, _build, _rank
from .errors import HkasError, ParseError, SupportTooLarge, VariableMismatch
from .graph import AccessGraph, graph_from_json, graph_to_json
from .jsonutil import (
    EncodeMemo,
    KeyMemo,
    Value,
    dumps_at,
    parse_prob,
    prob_str,
    round_float,
    value_from_json,
    value_sort_key,
)
from .record import Record

MAX_SUPPORT_ENV = "HKAS_MAX_SUPPORT"
DEFAULT_MAX_SUPPORT = 1_000_000


def max_support_size() -> int:
    """Support-size bound, configurable via the HKAS_MAX_SUPPORT env var."""
    raw = os.environ.get(MAX_SUPPORT_ENV)
    if raw is None:
        return DEFAULT_MAX_SUPPORT
    try:
        bound = int(raw)
    except ValueError:
        raise ParseError(f"{MAX_SUPPORT_ENV} must be an integer, got {raw!r}") from None
    if bound < 1:
        raise ParseError(f"{MAX_SUPPORT_ENV} must be positive, got {raw!r}")
    return bound


def key_var(label: str) -> str:
    return "K:" + label


def secret_var(label: str) -> str:
    return "S:" + label


def _variables(graph: AccessGraph) -> tuple[str, ...]:
    """The variables of a scheme over graph, in sorted order: every K:u,
    then every S:u, labels sorted."""
    labels = sorted(graph.classes)
    return tuple(map(key_var, labels)) + tuple(map(secret_var, labels))


class Scheme(Record):
    """A validated access graph plus the joint key/secret distribution."""

    graph: AccessGraph
    dist: JointDistribution

    def __post_init__(self) -> None:
        expected = _variables(self.graph)
        if self.dist.variables != expected:
            extra = sorted(set(self.dist.variables) - set(expected))
            missing = sorted(set(expected) - set(self.dist.variables))
            raise VariableMismatch(
                f"distribution variables do not match graph classes: "
                f"extra {extra}, missing {missing}"
            )


class Witness(Record):
    """One counterexample to a check: the class and the coalition that broke it."""

    cls: str
    secrets: tuple[str, ...]
    keys: tuple[str, ...]
    h_key: float
    h_key_given: float

    def to_json(self) -> dict:
        return {
            "class": self.cls,
            "secrets": list(self.secrets),
            "keys": list(self.keys),
            "h_key": round_float(self.h_key),
            "h_key_given": round_float(self.h_key_given),
        }


class CheckReport(Record):
    """Outcome of one check over a whole scheme."""

    kind: str
    passed: bool
    witnesses: tuple[Witness, ...]

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "passed": self.passed,
            "witnesses": [w.to_json() for w in self.witnesses],
        }


def _decode_once(memo: dict[bytes, Any], decode: Callable[[object], Any], raw: object) -> Any:
    """decode(raw), computed once per distinct raw value; repeats share the
    decoded object. The memo is keyed by marshal format 2, which tags each
    type and writes no back-references, so the key is injective on decoded
    JSON (1, 1.0, True, '1' and None all differ) and does not depend on a
    string being interned, as format 4's does. Keying by equality would
    share one entry among True == 1 == 1.0."""
    try:
        key = marshal.dumps(raw, 2)
    except ValueError:  # nesting too deep to marshal, or a type it cannot write
        return decode(raw)
    if key not in memo:
        memo[key] = decode(raw)
    return memo[key]


def _parse_support(doc: object) -> list[tuple[dict[str, Value], Fraction]]:
    if not isinstance(doc, list) or not doc:
        raise ParseError("scheme 'support' must be a non-empty list")
    bound = max_support_size()
    if len(doc) > bound:
        raise SupportTooLarge(f"support has {len(doc)} rows, bound is {bound}")
    # Apart: the value "1/2" is a string, the probability "1/2" a Fraction.
    values: dict[bytes, Value] = {}
    probs: dict[bytes, Fraction] = {}
    decode = partial(value_from_json, interned={})
    rows: list[tuple[dict[str, Value], Fraction]] = []
    for i, item in enumerate(doc):
        if not isinstance(item, dict) or set(item) != {"assignment", "p"}:
            raise ParseError(
                f"support row {i} must be an object with keys 'assignment' and 'p'"
            )
        raw_assignment = item["assignment"]
        if not isinstance(raw_assignment, dict):
            raise ParseError(f"support row {i}: 'assignment' must be an object")
        assignment = {
            str(var): _decode_once(values, decode, raw)
            for var, raw in raw_assignment.items()
        }
        rows.append((assignment, _decode_once(probs, parse_prob, item["p"])))
    return rows


def _check_supplied(graph: AccessGraph, graph_doc: object) -> None:
    """Warn when a supplied graph differs from the embedded one, which wins,
    from the first caller outside this module, whichever loader led here."""
    if graph_from_json(graph_doc) != graph:
        level, frame = 2, sys._getframe(1)
        while frame.f_globals is globals():
            level, frame = level + 1, frame.f_back
        warnings.warn(
            "scheme embeds a graph that differs from the supplied one; "
            "using the embedded graph",
            stacklevel=level,
        )


def load_scheme(scheme_doc: object, graph_doc: object | None = None) -> Scheme:
    """Build a validated Scheme from parsed JSON documents.

    The scheme document may embed its graph under "graph"; a separately
    supplied graph_doc is used when it does not. If both are present and
    disagree, the embedded graph wins and a warning is emitted. A
    "graph_file" reference must be resolved by the caller (the file
    loader does this); it cannot be resolved here.
    """
    if not isinstance(scheme_doc, dict):
        raise ParseError("scheme document must be a JSON object")
    unknown = set(scheme_doc) - {"graph", "graph_file", "support"}
    if unknown:
        raise ParseError(f"unexpected scheme keys: {sorted(unknown)}")
    embedded = scheme_doc.get("graph")
    graph: AccessGraph | None = None
    if embedded is not None:
        graph = graph_from_json(embedded)
        if graph_doc is not None:
            _check_supplied(graph, graph_doc)
    elif graph_doc is not None:
        graph = graph_from_json(graph_doc)
    elif "graph_file" in scheme_doc:
        raise ParseError(
            "scheme references a graph_file; resolve it and pass graph_doc"
        )
    else:
        raise ParseError("scheme needs an embedded 'graph' or a supplied graph")
    if "support" not in scheme_doc:
        raise ParseError("scheme document is missing 'support'")
    rows = _parse_support(scheme_doc["support"])
    return Scheme(graph=graph, dist=JointDistribution.from_rows(rows))


def load_scheme_file(path: str, graph_path: str | None = None) -> Scheme:
    """Load a scheme from disk, resolving graph_file relative to the scheme.

    A text that serialize_scheme writes is read by its row template
    (_load_canonical); any other is read again as JSON and goes through
    load_scheme. Both give the same Scheme, errors and warnings.
    """
    with open(path, "r", encoding="utf-8") as handle:
        scheme = _load_canonical(handle, graph_path)
    if scheme is not None:
        return scheme
    scheme_doc = load_json_file(path)
    graph_doc = None
    if graph_path is None and isinstance(scheme_doc, dict):
        ref = scheme_doc.get("graph_file")
        if ref is not None:
            if not isinstance(ref, str):
                raise ParseError("'graph_file' must be a path string")
            graph_path = os.path.join(os.path.dirname(os.path.abspath(path)), ref)
    if graph_path is not None:
        graph_doc = load_json_file(graph_path)
    return load_scheme(scheme_doc, graph_doc)


def load_json_file(path: str) -> object:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.loads(handle.read())
        except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError, digit limit
            raise ParseError(f"{path}: {exc}") from None
        except RecursionError:
            raise ParseError(f"{path}: JSON nests too deeply to decode") from None


def scheme_to_json(scheme: Scheme) -> dict:
    """Serialize with the graph embedded; rows in canonical order. Tuple
    values stay tuples: json writes them as arrays, load_scheme reads
    them back."""
    support = [
        {"assignment": assignment, "p": prob_str(p)}
        for assignment, p in scheme.dist.rows()
    ]
    return {"graph": graph_to_json(scheme.graph), "support": support}


# The frame of serialize_scheme's text. The document is _DOC_HEAD, the
# graph, _DOC_MID, the rows joined by ",\n", and _DOC_END. A row is
# _ROW_HEAD, its assignment lines joined by _LINE_BREAK, _ROW_MID, its
# probability and _ROW_END. A line, here cut off its indent, its opening
# quote and its line break, is _head(var) + dumps_at(value, 4).
_DOC_HEAD = '{\n  "graph": '
_DOC_MID = ',\n  "support": [\n'
_DOC_END = "\n  ]\n}\n"
_ROW_HEAD = '    {\n      "assignment": {\n        "'
_LINE_BREAK = ',\n        "'
_ROW_MID = '\n      },\n      "p": "'
_ROW_END = '"\n    }'
_ROW_SEP = _ROW_END + ",\n" + _ROW_HEAD
_READ_CHARS = 1 << 16  # characters per read of a scheme file


def _head(var: str) -> str:
    return json.dumps(var)[1:] + ": "


def _text(scheme: Scheme) -> Iterator[str]:
    """The canonical text, one row at a time: the head through _ROW_HEAD,
    then each row's lines, _ROW_MID and probability, every row after the
    first led by _ROW_SEP, on which _pieces cuts, then _ROW_END + _DOC_END.

    The text is dumps_canonical(scheme_to_json(scheme)), built from a row
    template over the distribution's codes: each distinct value of a
    variable is encoded once, as its whole line of the assignment, each
    tuple object within the values once, and each distinct weight's
    probability once, all before the first piece. A row is a fixed frame
    around the lines its codes pick and its probability.
    """
    dist = scheme.dist
    memo: EncodeMemo = {}
    lines = [tuple([_head(var) + dumps_at(value, 4, memo) for value in values])
             for var, values in zip(dist.variables, dist.decoding)]
    tails = {w: _ROW_MID + prob_str(Fraction(w, dist.total)) for w in set(dist.weights)}
    yield _DOC_HEAD + dumps_at(graph_to_json(scheme.graph), 1) + _DOC_MID + _ROW_HEAD
    for sep, row, w in zip(chain([""], repeat(_ROW_SEP)), dist.codes, dist.weights):
        yield sep + _LINE_BREAK.join(map(tuple.__getitem__, lines, row)) + tails[w]
    yield _ROW_END + _DOC_END


def serialize_scheme(scheme: Scheme) -> str:
    """Canonical JSON text; loading it back reproduces an equal Scheme."""
    return "".join(_text(scheme))


def write_scheme(scheme: Scheme, handle: IO[str]) -> None:
    """Write serialize_scheme(scheme) to handle one row at a time."""
    handle.writelines(_text(scheme))


class _NotCanonical(ValueError):
    """A text that serialize_scheme would not write."""


def _load_canonical(handle: IO[str], graph_path: str | None = None) -> Scheme | None:
    """The scheme s with serialize_scheme(s) == the text of handle, or None.

    After _DOC_HEAD, _pieces cuts the text; its first piece, the graph,
    _DOC_MID + _ROW_HEAD and row 0, is certified before any further read,
    and the graph fixes the variables. The cut is accepted only if
    serialize_scheme would write the text back exactly: the graph is its
    dumps_at, each distinct line is _head of its variable plus dumps_at
    of its value, each probability is its prob_str, and _build accepts
    the rows. Since load_scheme(json.loads(serialize_scheme(s))) == s,
    the json path would give the same Scheme, and every other text is
    left to it, but for SupportTooLarge when the rows past the bound,
    only counted, keep the frame: raised after graph_path's warning.
    """
    try:
        if handle.read(len(_DOC_HEAD)) != _DOC_HEAD:
            return None
        pieces = _pieces(handle)
        graph_text, mid, first = next(pieces).partition(_DOC_MID + _ROW_HEAD)
        graph = graph_from_json(json.loads(graph_text))
        if not mid or dumps_at(graph_to_json(graph), 1) != graph_text:
            return None
        variables = _variables(graph)
        bound = max_support_size()
        lines, tails, rows = _cut_rows(islice(chain([first], pieces), bound), len(variables))
        ranks, decoding = _decode_lines(variables, lines)
        probs = {p: parse_prob(p) for p in tails}
        if any(prob_str(prob) != p for p, prob in probs.items()):
            return None
        over = sum(1 for _ in pieces)
        if not over:
            codes = [tuple(map(dict.__getitem__, ranks, row)) for row, _ in rows]
            weights = [probs[p] for _, p in rows]
            scheme = Scheme(graph, _build(variables, decoding, codes, weights, 1))
    except (HkasError, ValueError, RecursionError):  # and UnicodeDecodeError, _NotCanonical
        return None
    if graph_path is not None:
        _check_supplied(graph, load_json_file(graph_path))
    if over:
        raise SupportTooLarge(f"support has {bound + over} rows, bound is {bound}")
    return scheme


def _pieces(handle: IO[str]) -> Iterator[str]:
    """The rest of handle, read _READ_CHARS characters at a time and cut
    on _ROW_SEP, the last piece ending in _ROW_END + _DOC_END. After each
    read it gives up if the carry, the text after the last cut, holds a
    _ROW_END with room for a _ROW_SEP after it, so it carries at most a
    row and less than a _ROW_SEP. (The long _ROW_SEP is found faster.)

    The carry holds no _ROW_SEP, and no _ROW_END that a _ROW_SEP would
    fit after, so both searches of a read cover only its text and the
    carry's last len(_ROW_SEP) - 1 characters, the tail: a row longer
    than a read costs time linear in its length."""
    keep = len(_ROW_SEP) - 1
    body: list[str] = []  # the carry but its tail, in the reads' slices
    tail = ""
    while chunk := handle.read(_READ_CHARS):
        *rows, last = (tail + chunk).split(_ROW_SEP)
        if rows:
            rows[0] = "".join(body) + rows[0]
            body = []
            yield from rows
        if 0 <= last.find(_ROW_END) <= len(last) - len(_ROW_SEP):
            raise _NotCanonical
        body.append(last[:-keep])
        tail = last[-keep:]
    row, _, end = "".join(body + [tail]).partition(_ROW_END)
    if end != _DOC_END:
        raise _NotCanonical
    yield row


def _cut_rows(pieces: Iterable[str], width: int) -> tuple[
        list[dict[str, str]], dict[str, str], list[tuple[tuple[str, ...], str]]]:
    """Cut the rows, one a piece, into (lines, tails, rows): lines[j] and
    tails map each distinct text of a row's j-th line and of its
    probability to itself, and a row is the tuple of its lines and its
    probability, so rows share one string per distinct text. Raises
    _NotCanonical unless a row is width lines, _ROW_MID and the rest."""
    lines: list[dict[str, str]] = [{} for _ in range(width)]
    tails: dict[str, str] = {}
    rows: list[tuple[tuple[str, ...], str]] = []
    for piece in pieces:
        assignment, mid, p = piece.partition(_ROW_MID)
        parts = assignment.split(_LINE_BREAK)
        if not mid or len(parts) != width:
            raise _NotCanonical
        rows.append((tuple(map(dict.setdefault, lines, parts, parts)), tails.setdefault(p, p)))
    return lines, tails, rows


def _decode_lines(variables: tuple[str, ...], lines: list[dict[str, str]]) -> tuple[
        list[dict[str, int]], Decoding]:
    """(ranks, decoding) of the distinct lines of each row position, whose
    variable is variables[j]: the rank of each line's value among the
    position's values, and those values in rank order. Each distinct
    value text is decoded, checked and sort-keyed once, in whichever
    positions it is met; equal tuples within the values are decoded to
    one object, which is re-encoded and sort-keyed once. Raises
    _NotCanonical unless every line is _head(var) + dumps_at(value, 4)."""
    decoded: dict[str, tuple[Value, tuple]] = {}
    interned: dict[tuple, tuple] = {}
    encoded: EncodeMemo = {}
    keys: KeyMemo = {}
    ranks, decoding = [], []
    for var, seen in zip(variables, lines):
        head = _head(var)
        memo = {}
        for line in seen:
            if not line.startswith(head):
                raise _NotCanonical
            raw = line[len(head):]
            if raw not in decoded:
                value = value_from_json(json.loads(raw), interned)
                if dumps_at(value, 4, encoded) != raw:
                    raise _NotCanonical
                decoded[raw] = (value, value_sort_key(value, keys))
            memo[line] = decoded[raw]
        rank, values = _rank(memo)
        ranks.append(rank)
        decoding.append(values)
    return ranks, tuple(decoding)
