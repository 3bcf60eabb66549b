"""Canonical JSON helpers shared by loaders, serializers, and the CLI.

Canonical form: keys sorted, two-space indent, trailing newline.
There is one encoder, dumps_at, which writes a fragment as it would
appear nested depth levels deep in an indented document. dumps_canonical
is dumps_at at depth 0 plus the newline; serialize_scheme assembles a
scheme's text from fragments, each distinct value encoded once. Either
way the document is written as given, so whoever builds it puts its
values in canonical form first: rationals as "num/den" strings
(prob_str), floats rounded to 12 significant digits (round_float).
Tuples are written as arrays. Re-serializing the same object yields
byte-identical text.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any

from .errors import ParseError, ProbabilityError, UnsupportedValue

# Outcome values are ints, strings, or nested tuples of values.
Value = int | str | tuple

# Far below the recursion limit; generated secrets nest two deep.
MAX_VALUE_DEPTH = 32

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


def value_from_json(raw: object, _depth: int = 0) -> Value:
    """Decode an outcome value: int, string, or lists (or tuples) thereof
    nested at most MAX_VALUE_DEPTH deep (_depth counts the lists
    enclosing raw). A decoded value decodes to itself."""
    if isinstance(raw, bool):
        raise ParseError(f"unsupported outcome value {raw!r}")
    if isinstance(raw, int) or isinstance(raw, str):
        return raw
    if isinstance(raw, (list, tuple)):
        if _depth >= MAX_VALUE_DEPTH:
            raise ParseError(f"outcome value nests lists more than {MAX_VALUE_DEPTH} deep")
        return tuple([value_from_json(item, _depth + 1) for item in raw])
    raise ParseError(f"unsupported outcome value {raw!r}")


def value_sort_key(value: Value) -> tuple:
    """Total order over outcome values (ints, strs, tuples); injective on
    them. Anything else, bools included, raises UnsupportedValue."""
    if isinstance(value, int) and not isinstance(value, bool):
        return (0, value)
    if isinstance(value, str):
        return (1, value)
    if isinstance(value, tuple):
        return (2, tuple([value_sort_key(item) for item in value]))
    raise UnsupportedValue(f"unsupported outcome value {value!r}")


def round_float(x: float) -> float:
    """Round to 12 significant digits, the canonical float precision."""
    return float(f"{x:.12g}")


def dumps_at(value: Any, depth: int) -> str:
    """value in canonical form, as it reads nested depth levels deep in an
    indented document: its first line unindented, each later line shifted
    by depth indents. json escapes every control character inside a
    string, so each newline in its output separates two lines of layout,
    and shifting them all is safe."""
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + "  " * depth)


def dumps_canonical(doc: Any) -> str:
    """Serialize to the canonical JSON text form."""
    return dumps_at(doc, 0) + "\n"
