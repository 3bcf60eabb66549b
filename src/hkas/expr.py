"""A tiny expression language for entropy queries against a scheme.

Grammar (whitespace is insignificant between tokens):

    expr  := 'H' '(' list ( '|' list )? ')'
           | 'I' '(' list ';' list ( '|' list )? ')'
    list  := var ( ',' var )*
    var   := ('K' | 'S') ':' label

where label is a non-empty run of characters other than
",;|()", space, and tab. Examples:

    H(K:a)               entropy of a's key
    H(K:a | S:b, S:c)    conditional entropy given two secrets
    I(K:a ; S:b | K:r)   conditional mutual information

Parse failures raise ExprSyntaxError with the zero-based character
position of the offending token.
"""

from __future__ import annotations

from .errors import ExprSyntaxError, UnknownClass
from .record import Record
from .scheme import Scheme

_LABEL_STOP = set(",;|() \t")


class EntropyExpr(Record):
    """Parsed query: kind 'H' with 1-2 groups or kind 'I' with 2-3 groups."""

    kind: str
    groups: tuple[tuple[str, ...], ...]


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def _peek(self) -> str | None:
        self._skip_ws()
        if self.pos < len(self.text):
            return self.text[self.pos]
        return None

    def _expect(self, char: str) -> None:
        if self._peek() != char:
            raise ExprSyntaxError(f"expected {char!r}", self.pos)
        self.pos += 1

    def _parse_var(self) -> str:
        self._skip_ws()
        if self._peek() not in ("K", "S"):
            raise ExprSyntaxError("expected a variable 'K:<class>' or 'S:<class>'",
                                  self.pos)
        kind = self.text[self.pos]
        self.pos += 1
        self._expect(":")
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in _LABEL_STOP:
            self.pos += 1
        label = self.text[start:self.pos]
        if not label:
            raise ExprSyntaxError("expected a class label", start)
        return f"{kind}:{label}"

    def _parse_list(self) -> tuple[str, ...]:
        variables = [self._parse_var()]
        while self._peek() == ",":
            self.pos += 1
            variables.append(self._parse_var())
        return tuple(variables)

    def parse(self) -> EntropyExpr:
        head = self._peek()
        if head not in ("H", "I"):
            raise ExprSyntaxError("expected 'H' or 'I'", self.pos)
        kind = head
        self.pos += 1
        self._expect("(")
        groups = [self._parse_list()]
        if kind == "I":
            self._expect(";")
            groups.append(self._parse_list())
        if self._peek() == "|":
            self.pos += 1
            groups.append(self._parse_list())
        self._expect(")")
        if self._peek() is not None:
            raise ExprSyntaxError("unexpected trailing text", self.pos)
        return EntropyExpr(kind=kind, groups=tuple(groups))


def parse_entropy_expr(text: str) -> EntropyExpr:
    """Parse an entropy/mutual-information query."""
    return _Parser(text).parse()


def evaluate_entropy_expr(scheme: Scheme, expr: EntropyExpr | str) -> float:
    """Evaluate a query against a scheme's joint distribution."""
    if isinstance(expr, str):
        expr = parse_entropy_expr(expr)
    known = set(scheme.graph.classes)
    for group in expr.groups:
        for var in group:
            label = var.split(":", 1)[1]
            if label not in known:
                raise UnknownClass(f"unknown class {label!r} in expression")
    dist = scheme.dist
    if expr.kind == "H":
        if len(expr.groups) == 1:
            return dist.entropy(expr.groups[0])
        return dist.conditional_entropy(expr.groups[0], expr.groups[1])
    if len(expr.groups) == 2:
        return dist.mutual_information(expr.groups[0], expr.groups[1])
    return dist.conditional_mutual_information(
        expr.groups[0], expr.groups[1], expr.groups[2]
    )
