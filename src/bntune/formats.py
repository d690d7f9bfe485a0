"""Text formats: network files, parameter selections, and constraints.

A network file declares variables and tables::

    var Covid { values: yes, no; }
    var Antigen { values: pos, neg; parents: Covid, Symptoms; }
    cpt Covid { (): 0.05, 0.95; }
    cpt Antigen { (yes, yes): 0.72, 0.28; ... }

A parameter file selects tunable entries::

    param p {
      entry: Antigen(yes, yes): pos;
      covariation: linear-proportional;
      interval: 1e-6, 0.999999;
    }

A constraint is a single line like ``P(Covid=no | Antigen=pos & PCR=pos) <= 0.009``.
``#`` starts a comment that runs to the end of the line; the lexer reads it
as whitespace, so error positions count it like any other text.  All
numbers are read exactly (decimal strings become exact rationals); a
decimal exponent above 10 000 in magnitude is a :class:`ParseError`.  The
parsers raise only :class:`ParseError`: with the line and column of the
offending token where one token is at fault, and chained (``from``) to the
error of the object being built otherwise.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .bn import (
    CPT,
    DEFAULT_DELTA,
    BayesNet,
    Constraint,
    EntryCoord,
    ParamBN,
    Variable,
    parametrize,
)
from .errors import (
    NotWellFormed,
    ParseError,
    UnknownValue,
    UnsupportedMultiEntryRow,
    ZeroEntry,
)
from .poly import Polynomial, as_fraction


def float17(value: float) -> str:
    """A float rendered with 17 significant digits (round-trip exact)."""
    return format(float(value), ".17g")


# -- lexing -------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<ws>(?:\s|\#[^\n]*)+)
      | (?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)
      | (?P<name>[A-Za-z_][A-Za-z0-9_\-]*)
      | (?P<op><=|>=|[{}():;,=|&])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "name" | "number" | "op" | "end"
    text: str
    line: int
    column: int


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, column, pos = 1, 1, 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, column)
        value = match.group()
        if match.lastgroup != "ws":
            tokens.append(_Token(match.lastgroup, value, line, column))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            column = len(value) - value.rfind("\n")
        else:
            column += len(value)
        pos = match.end()
    tokens.append(_Token("end", "", line, column))
    return tokens


class _Scanner:
    def __init__(self, text: str):
        self.tokens = _lex(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        token = self.tokens[self.i]
        if token.kind != "end":
            self.i += 1
        return token

    def accept(self, text: str) -> bool:
        if self.peek().text == text and self.peek().kind != "end":
            self.i += 1
            return True
        return False

    def expect(self, text: str | None = None, kind: str | None = None, what: str = "") -> _Token:
        token = self.peek()
        wanted = what or (repr(text) if text is not None else kind)
        if text is not None and token.text != text:
            raise ParseError(f"expected {wanted}, got {token.text or 'end of input'!r}",
                             token.line, token.column)
        if kind is not None and token.kind != kind:
            raise ParseError(f"expected {wanted}, got {token.text or 'end of input'!r}",
                             token.line, token.column)
        return self.advance()

    def number(self, what: str) -> Fraction:
        """A number token, read exactly."""
        token = self.expect(kind="number", what=what)
        try:
            return as_fraction(token.text)
        except ValueError as exc:
            raise ParseError(str(exc), token.line, token.column) from None

    def label(self) -> _Token:
        """A name used as a variable/value label (numbers are allowed as labels)."""
        token = self.peek()
        if token.kind not in ("name", "number"):
            raise ParseError(f"expected a name, got {token.text or 'end of input'!r}",
                             token.line, token.column)
        return self.advance()

    def label_list(self, terminator: str) -> list[str]:
        labels = [self.label().text]
        while self.accept(","):
            labels.append(self.label().text)
        self.expect(terminator)
        return labels


# -- network files --------------------------------------------------------------


def parse_network(text: str) -> BayesNet:
    """Parse a network file.

    Each ``cpt`` block becomes a :class:`CPT` when its closing brace is read,
    and the table checks its rows by the row rule: a row that misses a unit
    sum by at most ``ROW_SUM_TOLERANCE`` (1e-9), as written decimals often
    do, is kept exactly as written; one that misses by more raises
    :class:`ParseError` at the row's line and column.
    """
    scanner = _Scanner(text)
    variables: list[tuple[Variable, _Token]] = []
    tables: dict[str, tuple[_Token, CPT]] = {}
    while scanner.peek().kind != "end":
        keyword = scanner.expect(kind="name", what="'var' or 'cpt'")
        if keyword.text == "var":
            variables.append(_parse_var_block(scanner))
        elif keyword.text == "cpt":
            owner, table = _parse_cpt_block(scanner)
            if owner.text in tables:
                raise ParseError(f"duplicate table for {owner.text}", keyword.line, keyword.column)
            tables[owner.text] = (owner, table)
        else:
            raise ParseError(
                f"expected 'var' or 'cpt', got {keyword.text!r}", keyword.line, keyword.column
            )
    declared = {v.name for v, _ in variables}
    for owner, (token, _) in tables.items():
        if owner not in declared:
            raise ParseError(f"table for undeclared variable {owner!r}", token.line, token.column)
    for v, token in variables:
        if v.name not in tables:
            raise ParseError(f"no table for variable {v.name!r}", token.line, token.column)
    cpts = tuple(tables[v.name][1] for v, _ in variables)
    try:
        return BayesNet(tuple(v for v, _ in variables), cpts)
    except NotWellFormed as exc:
        raise ParseError(str(exc)) from exc


def _parse_var_block(scanner: _Scanner) -> tuple[Variable, _Token]:
    name = scanner.expect(kind="name", what="a variable name")
    scanner.expect("{")
    values: list[str] | None = None
    parents: list[str] = []
    while not scanner.accept("}"):
        clause = scanner.expect(kind="name", what="'values' or 'parents'")
        scanner.expect(":")
        if clause.text == "values":
            values = scanner.label_list(";")
        elif clause.text == "parents":
            parents = scanner.label_list(";")
        else:
            raise ParseError(
                f"unknown clause {clause.text!r} in a var block", clause.line, clause.column
            )
    if values is None:
        raise ParseError(f"variable {name.text} declares no values", name.line, name.column)
    try:
        return Variable(name.text, tuple(values), tuple(parents)), name
    except NotWellFormed as exc:
        raise ParseError(str(exc), name.line, name.column) from exc


def _parse_cpt_block(scanner: _Scanner) -> tuple[_Token, CPT]:
    owner = scanner.expect(kind="name", what="a variable name")
    scanner.expect("{")
    rows, openings = [], []
    while not scanner.accept("}"):
        openings.append(scanner.expect("("))
        key: tuple[str, ...] = () if scanner.accept(")") else tuple(scanner.label_list(")"))
        scanner.expect(":")
        numbers = [scanner.number("a probability")]
        while scanner.accept(","):
            numbers.append(scanner.number("a probability"))
        scanner.expect(";")
        rows.append((key, tuple(Polynomial.constant(n) for n in numbers)))
    try:
        return owner, CPT(owner.text, tuple(rows))
    except NotWellFormed as exc:
        # The table checks its rows in order: report the first that fails alone.
        for opening, row in zip(openings, rows):
            try:
                CPT(owner.text, (row,))
            except NotWellFormed:
                raise ParseError(str(exc), opening.line, opening.column) from exc
        raise ParseError(str(exc)) from exc


# -- parameter selections ---------------------------------------------------------


def parse_param_spec(text: str, net: BayesNet, *, delta=DEFAULT_DELTA) -> ParamBN:
    """Parse a parameter file and apply it to ``net``.

    Several ``entry`` clauses in one ``param`` block share the parameter (the
    entries must have equal original values); ``interval`` defaults to
    ``[delta, 1-delta]``.  Errors of :func:`parametrize` are re-raised as
    :class:`ParseError`.
    """
    scanner = _Scanner(text)
    coords: list[EntryCoord] = []
    names: dict[EntryCoord, str] = {}
    intervals: dict[str, tuple[Fraction, Fraction]] = {}
    seen: set[str] = set()
    while scanner.peek().kind != "end":
        scanner.expect("param")
        ptoken = scanner.expect(kind="name", what="a parameter name")
        pname = ptoken.text
        if pname in seen:
            raise ParseError(f"duplicate parameter block {pname!r}", ptoken.line, ptoken.column)
        seen.add(pname)
        scanner.expect("{")
        entries = 0
        while not scanner.accept("}"):
            clause = scanner.expect(kind="name", what="'entry', 'covariation' or 'interval'")
            scanner.expect(":")
            if clause.text == "entry":
                coord = _parse_entry(scanner, net)
                coords.append(coord)
                names[coord] = pname
                entries += 1
            elif clause.text == "covariation":
                kind = scanner.expect(kind="name", what="a co-variation scheme")
                scanner.expect(";")
                if kind.text != "linear-proportional":
                    raise ParseError(
                        f"unsupported co-variation {kind.text!r} "
                        "(only linear-proportional is available)",
                        kind.line,
                        kind.column,
                    )
            elif clause.text == "interval":
                lb = scanner.number("a bound")
                scanner.expect(",")
                ub = scanner.number("a bound")
                scanner.expect(";")
                intervals[pname] = (lb, ub)
            else:
                raise ParseError(
                    f"unknown clause {clause.text!r} in a param block", clause.line, clause.column
                )
        if entries == 0:
            raise ParseError(f"parameter {pname} selects no entry", ptoken.line, ptoken.column)
    try:
        return parametrize(net, coords, names, intervals, delta=delta)
    except (NotWellFormed, UnsupportedMultiEntryRow, ZeroEntry) as exc:
        raise ParseError(str(exc)) from exc


def _parse_entry(scanner: _Scanner, net: BayesNet) -> EntryCoord:
    var = scanner.expect(kind="name", what="a variable name")
    scanner.expect("(")
    key: tuple[str, ...] = () if scanner.accept(")") else tuple(scanner.label_list(")"))
    scanner.expect(":")
    value = scanner.label()
    scanner.expect(";")
    variable = net.variable_map.get(var.text)
    if variable is None:
        raise ParseError(f"unknown variable {var.text!r}", var.line, var.column)
    try:
        net.cpt_map[var.text].row(key)
    except NotWellFormed as exc:
        raise ParseError(str(exc), var.line, var.column) from exc
    if value.text not in variable.values:
        raise ParseError(f"variable {var.text} has no value {value.text!r}", value.line, value.column)
    return (var.text, key, variable.values.index(value.text))


# -- constraints ------------------------------------------------------------------

_CONSTRAINT_RE = re.compile(
    r"^\s*P\s*\(\s*(?P<body>[^()]*?)\s*\)\s*(?P<dir><=|>=)\s*(?P<thr>[0-9.eE+-]+)\s*$"
)


def parse_constraint(text: str, net: ParamBN | None = None) -> Constraint:
    """Parse ``P(Var=val & ... | Var=val & ...) <= number`` (evidence optional).

    With ``net`` given, variable and value names are checked against it.  An
    invalid constraint or an unknown name raises :class:`ParseError`.
    """
    match = _CONSTRAINT_RE.match(text)
    if match is None:
        raise ParseError(
            "expected a constraint like 'P(Var=val | Var=val & Var=val) <= 0.01', "
            f"got {text.strip()!r}"
        )
    parts = match.group("body").split("|")
    if len(parts) > 2:
        raise ParseError("more than one '|' in the constraint")
    hypothesis = _parse_literals(parts[0])
    evidence = _parse_literals(parts[1]) if len(parts) == 2 else ()
    try:
        threshold = as_fraction(match.group("thr"))
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad threshold {match.group('thr')!r}") from None
    try:
        constraint = Constraint(hypothesis, evidence, match.group("dir"), threshold)
        if net is not None:
            constraint.check_against(net)
    except (NotWellFormed, UnknownValue) as exc:
        raise ParseError(str(exc)) from exc
    return constraint


def _parse_literals(chunk: str) -> tuple[tuple[str, str], ...]:
    literals = []
    for part in chunk.split("&"):
        part = part.strip()
        var, eq, value = part.partition("=")
        if not eq or not var.strip() or not value.strip():
            raise ParseError(f"literal {part!r} is not of the form Var=value")
        literals.append((var.strip(), value.strip()))
    return tuple(literals)
