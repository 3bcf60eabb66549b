"""Canonical JSON helpers shared by loaders, serializers, and the CLI.

Canonical form: the bytes of json.dumps(..., sort_keys=True, indent=2)
plus a trailing newline. dumps_at writes a fragment as it would appear
nested depth levels deep in such a document: it lays out scheme values
(ints, strs, nested tuples) itself and hands every other value, each
document included, to json's encoder, re-indented, whose bytes it
matches. dumps_canonical is dumps_at at depth 0 plus the newline;
serialize_scheme assembles a scheme's text from fragments. Either way
the document is written as given, so whoever builds it puts its values
in canonical form first: rationals as "num/den" strings (prob_str),
floats rounded to 12 significant digits (round_float). Tuples are
written as arrays. Re-serializing the same object yields byte-identical
text. A scheme's secrets share their (class, key) pairs, so dumps_at
takes a memo, shared by a caller across a scheme, that writes each
nested tuple object once per depth.

loads_at is dumps_at's inverse on scheme values: it reads back exactly
the texts dumps_at writes for them, with each value's sort key, and
refuses every other text. It takes a memo too, keyed by text, so a
caller reading many values decodes each distinct item text once.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Callable

from .errors import ParseError, ProbabilityError, UnsupportedValue

# Outcome values are ints, strings, or nested tuples of values.
Value = int | str | tuple

# Far below the recursion limit; generated secrets nest two deep.
MAX_VALUE_DEPTH = 32

# dumps_at's memo: (id(tuple), depth) -> (tuple, its text at that depth),
# for the tuples nested in a caller's value, never the value itself. Each
# entry holds its value, so the id is not reused while the memo lives.
# Keyed by identity, never by equality: True == 1 == 1.0.
EncodeMemo = dict[tuple[int, int], tuple[tuple, str]]
# loads_at's memo: each text read -> (its value, that value's sort key),
# and each tuple read -> itself, its one interned copy.
LoadMemo = dict[str | tuple, tuple]

_PROB_TEXT = re.compile(r"[0-9]+(?:/[0-9]+)?")


def parse_prob(raw: object) -> Fraction:
    """Parse a JSON probability: an integer, or ASCII digits "num" or "num/den"."""
    if isinstance(raw, int) and not isinstance(raw, bool):
        frac = Fraction(raw)
    elif isinstance(raw, str) and _PROB_TEXT.fullmatch(raw):
        try:
            frac = Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise ProbabilityError(f"malformed probability {raw!r}: {exc}") from None
    else:
        raise ProbabilityError(f"probability must be an integer or 'num/den' string, got {raw!r}")
    if frac <= 0:
        raise ProbabilityError(f"probability must be positive, got {raw!r}")
    return frac


def prob_str(p: Fraction) -> str:
    """Render a rational as the canonical "num/den" string."""
    return f"{p.numerator}/{p.denominator}"


def value_from_json(raw: object, interned: dict[tuple, tuple] | None = None,
                    _depth: int = 0) -> Value:
    """Decode an outcome value: int, string, or lists (or tuples) thereof
    nested at most MAX_VALUE_DEPTH deep (_depth counts the lists
    enclosing raw). A decoded value decodes to itself.

    With interned, each tuple built is replaced by the equal tuple
    already in that table, or added to it, so equal sub-values decoded
    through one table are one object. Interning goes by equality, which
    dumps_at's memo never uses, since True == 1 and 1.0 == 1; it is safe
    here because a tuple is interned only once its items are validated,
    so it holds no bool and no float."""
    if isinstance(raw, bool):
        raise ParseError(f"unsupported outcome value {raw!r}")
    if isinstance(raw, int) or isinstance(raw, str):
        return raw
    if isinstance(raw, (list, tuple)):
        if _depth >= MAX_VALUE_DEPTH:
            raise ParseError(f"outcome value nests lists more than {MAX_VALUE_DEPTH} deep")
        value = tuple([item if type(item) is int or type(item) is str
                       else value_from_json(item, interned, _depth + 1) for item in raw])
        return value if interned is None else interned.setdefault(value, value)
    raise ParseError(f"unsupported outcome value {raw!r}")


def value_sort_key(value: Value, _depth: int = 0) -> tuple:
    """Total order over outcome values (ints, strs, tuples nested at most
    MAX_VALUE_DEPTH deep, counting the _depth tuples enclosing value);
    injective on them. Anything else, bools included, raises UnsupportedValue.

    The key is one flat tuple: an int v keys as (0, v), a str s as
    (1, s), and a tuple as 2, its items' keys, then -1. No key is a
    prefix of another, and two keys agree up to where their values first
    differ, so keys compare as values do: ints, strs, then tuples item by
    item, a proper prefix first."""
    if isinstance(value, tuple):
        if _depth >= MAX_VALUE_DEPTH:
            raise UnsupportedValue(f"outcome value nests tuples more than {MAX_VALUE_DEPTH} deep")
        key = [2]
        for item in value:
            kind = type(item)
            key += ((0, item) if kind is int else (1, item) if kind is str
                    else value_sort_key(item, _depth + 1))
        key.append(-1)
        return tuple(key)
    if isinstance(value, int) and not isinstance(value, bool):
        return (0, value)
    if isinstance(value, str):
        return (1, value)
    raise UnsupportedValue(f"unsupported outcome value {value!r}")


def round_float(x: float) -> float:
    """Round to 12 significant digits, the canonical float precision."""
    return float(f"{x:.12g}")


def dumps_at(value: Any, depth: int, memo: EncodeMemo | None = None) -> str:
    """value in canonical form, as it reads nested depth levels deep in an
    indented document: its first line unindented, each later line shifted
    by depth indents: json.dumps(value, sort_keys=True, indent=2), with
    depth more indents after each newline, raising where json raises.
    Each non-empty tuple nested in value is written once per depth per
    memo, and value itself leaves no entry."""
    memo = {} if memo is None else memo
    try:
        text = _encode(value, depth, memo)
    except RecursionError:  # tuples nested too deep: json says how
        return _json_at(value, depth)
    memo.pop((id(value), depth), None)
    return text


def _encode(value: Any, depth: int, memo: EncodeMemo) -> str:
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    if isinstance(value, tuple) and value:
        hit = memo.get((id(value), depth))
        if hit is None:
            hit = memo[id(value), depth] = (value, _array(value, depth, memo))
        return hit[1]
    # Documents (dicts, lists), the empty tuple (json's "[]"), and what
    # no scheme value holds: floats, bools, None, int and str subclasses.
    return _json_at(value, depth)


def _array(items: tuple, depth: int, memo: EncodeMemo) -> str:
    """A non-empty tuple: its items a line each, one indent deeper."""
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join([
        _quote(item) if type(item) is str else int.__repr__(item) if type(item) is int
        else _encode(item, depth + 1, memo) for item in items]) + inner[:-2] + "]"


def _json_at(value: Any, depth: int) -> str:
    """The reference: json's encoder, re-indented. json escapes every
    control character inside a string, so each newline in its output
    separates two lines of layout, and shifting them all is safe."""
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + "  " * depth)


def loads_at(text: str, depth: int, memo: LoadMemo) -> tuple[Value, tuple]:
    """(value, value_sort_key(value)) for the scheme value with
    dumps_at(value, depth) == text; ValueError for every other text, and
    for arrays nested more than MAX_VALUE_DEPTH deep counting from depth
    4, where a scheme file's values sit, as value_from_json counts.

    Each array is split and checked as _array lays it out, so a text is
    certified as it is read, with no re-encoding. A leaf, a str as json
    reads it or an int as int reads it, is accepted only if the writer
    gives its text back. Through memo each distinct text is read once.
    Keying memo by text alone is sound: a leaf reads the same at every
    depth, and so does "[]" but for the depth bound, so it is read again
    wherever it is met; a non-empty array's closing indent fixes the one
    depth it reads at, so one met again at another depth is read again
    there, and refused. Equal tuples read through one memo are one
    object, interned once valid, and each key is built from its items'
    keys."""
    hit = memo.get(text)
    if hit is None or text[0] == "[" and not text.endswith(_frame(depth)[1]):
        hit = memo[text] = _load(text, depth, memo)
    return hit


@cache
def _frame(depth: int) -> tuple[str, str, Callable[[str], list[str]]]:
    """An array's layout at depth, as _array writes it: its opening, its
    closing, and the split of its body into items, on the separator not
    followed by a space, which an item one level deeper would add."""
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner, inner[:-2] + "]", re.compile("," + inner + "(?! )").split


def _load(text: str, depth: int, memo: LoadMemo) -> tuple[Value, tuple]:
    """loads_at of a text not yet read at depth."""
    if text[:1] != "[":
        if text[:1] == '"':
            value = json.loads(text)
            if _quote(value) == text:
                return value, (1, value)
        else:
            value = int(text)
            if int.__repr__(value) == text:
                return value, (0, value)
        raise ValueError(f"not a value as dumps_at writes it: {text[:40]!r}")
    if depth - 4 >= MAX_VALUE_DEPTH:
        raise ValueError(f"outcome value nests arrays more than {MAX_VALUE_DEPTH} deep")
    if text == "[]":
        return (), (2, -1)
    opening, closing, split = _frame(depth)
    if not (text.startswith(opening) and text.endswith(closing)):
        raise ValueError(f"not an array as dumps_at writes it at depth {depth}")
    items, key = [], [2]
    for item in split(text[len(opening):-len(closing)]):
        value, item_key = loads_at(item, depth + 1, memo)
        items.append(value)
        key += item_key
    key.append(-1)
    value = tuple(items)
    return memo.setdefault(value, value), tuple(key)


def dumps_canonical(doc: Any) -> str:
    """Serialize to the canonical JSON text form."""
    return dumps_at(doc, 0) + "\n"
