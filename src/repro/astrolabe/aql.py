"""AQL — the SQL-like aggregation language of Astrolabe.

The paper (§3): "Astrolabe computes these summaries using aggregation
functions, which are expressions in SQL that take any number of
attributes from the child table and produce new attributes for
inclusion into the appropriate row in the parent table."

AQL is the subset of SQL those aggregation functions need::

    SELECT SUM(nmembers) AS nmembers,
           MIN(load)     AS minload,
           BOR(subs)     AS subs
    WHERE  load < 10.0

A program is one ``SELECT`` over the rows of a zone table, producing
the attribute map of that zone's row in its parent table.  Because the
programs are *mobile code* — shipped epidemically inside certificates
and executed at every agent — the evaluator is deliberately sandboxed:
no attribute of the host environment is reachable, only the row values
and a fixed registry of pure functions.

Grammar (recursive descent, case-insensitive keywords)::

    query     := SELECT item ("," item)* (WHERE expr)?
    item      := expr (AS ident)?
    expr      := or_expr
    or_expr   := and_expr (OR and_expr)*
    and_expr  := not_expr (AND not_expr)*
    not_expr  := NOT not_expr | cmp
    cmp       := sum (("="|"!="|"<"|"<="|">"|">=") sum)?
    sum       := term (("+"|"-") term)*
    term      := unary (("*"|"/"|"%") unary)*
    unary     := "-" unary | atom
    atom      := NUMBER | STRING | TRUE | FALSE | NULL | "*"
               | ident "(" args ")" | ident | "(" expr ")"
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Sequence

from repro.core.errors import AqlEvaluationError, AqlSyntaxError

#: Values AQL can produce / rows can contain.
AqlValue = Any  # None | bool | int | float | str | tuple

# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+\.\d*|\.\d+|\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>'(?:[^'\\]|\\.)*')
  | (?P<op><=|>=|!=|<>|[-+*/%(),=<>])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"SELECT", "AS", "WHERE", "AND", "OR", "NOT", "TRUE", "FALSE", "NULL"}


@dataclass(frozen=True)
class Token:
    kind: str  # "number" | "ident" | "string" | "op" | "keyword" | "eof"
    text: str
    pos: int


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            raise AqlSyntaxError(f"unexpected character {source[pos]!r} at {pos}")
        pos = match.end()
        kind = match.lastgroup
        if kind == "ws":
            continue
        text = match.group()
        if kind == "ident" and text.upper() in _KEYWORDS:
            tokens.append(Token("keyword", text.upper(), match.start()))
        else:
            assert kind is not None
            tokens.append(Token(kind, text, match.start()))
    tokens.append(Token("eof", "", len(source)))
    return tokens


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Literal:
    value: AqlValue


@dataclass(frozen=True)
class Attr:
    name: str


@dataclass(frozen=True)
class Star:
    """The ``*`` in ``COUNT(*)``."""


@dataclass(frozen=True)
class Unary:
    op: str
    operand: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    name: str  # upper-cased
    args: tuple["Expr", ...]


Expr = Any  # Literal | Attr | Star | Unary | Binary | Call


@dataclass(frozen=True)
class SelectItem:
    expr: Expr
    alias: str


@dataclass(frozen=True)
class Query:
    items: tuple[SelectItem, ...]
    where: Optional[Expr]


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._index = 0

    @property
    def _current(self) -> Token:
        return self._tokens[self._index]

    def _advance(self) -> Token:
        token = self._current
        self._index += 1
        return token

    def _expect(self, kind: str, text: Optional[str] = None) -> Token:
        token = self._current
        if token.kind != kind or (text is not None and token.text != text):
            want = text or kind
            raise AqlSyntaxError(
                f"expected {want} at position {token.pos}, found {token.text!r}"
            )
        return self._advance()

    def _accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        token = self._current
        if token.kind == kind and (text is None or token.text == text):
            return self._advance()
        return None

    # query := SELECT item ("," item)* (WHERE expr)?
    def parse_query(self) -> Query:
        self._expect("keyword", "SELECT")
        items = [self._parse_item()]
        while self._accept("op", ","):
            items.append(self._parse_item())
        where = None
        if self._accept("keyword", "WHERE"):
            where = self._parse_expr()
        self._expect("eof")
        self._check_aliases(items)
        return Query(tuple(items), where)

    def _check_aliases(self, items: list[SelectItem]) -> None:
        seen: set[str] = set()
        for item in items:
            if item.alias in seen:
                raise AqlSyntaxError(f"duplicate output attribute {item.alias!r}")
            seen.add(item.alias)

    def _parse_item(self) -> SelectItem:
        expr = self._parse_expr()
        if self._accept("keyword", "AS"):
            alias = self._expect("ident").text
        else:
            alias = _default_alias(expr)
        return SelectItem(expr, alias)

    def _parse_expr(self) -> Expr:
        return self._parse_or()

    def _parse_or(self) -> Expr:
        left = self._parse_and()
        while self._accept("keyword", "OR"):
            left = Binary("OR", left, self._parse_and())
        return left

    def _parse_and(self) -> Expr:
        left = self._parse_not()
        while self._accept("keyword", "AND"):
            left = Binary("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> Expr:
        if self._accept("keyword", "NOT"):
            return Unary("NOT", self._parse_not())
        return self._parse_cmp()

    def _parse_cmp(self) -> Expr:
        left = self._parse_sum()
        for op in ("<=", ">=", "!=", "<>", "=", "<", ">"):
            if self._accept("op", op):
                normalized = "!=" if op == "<>" else op
                return Binary(normalized, left, self._parse_sum())
        return left

    def _parse_sum(self) -> Expr:
        left = self._parse_term()
        while True:
            if self._accept("op", "+"):
                left = Binary("+", left, self._parse_term())
            elif self._accept("op", "-"):
                left = Binary("-", left, self._parse_term())
            else:
                return left

    def _parse_term(self) -> Expr:
        left = self._parse_unary()
        while True:
            if self._accept("op", "*"):
                left = Binary("*", left, self._parse_unary())
            elif self._accept("op", "/"):
                left = Binary("/", left, self._parse_unary())
            elif self._accept("op", "%"):
                left = Binary("%", left, self._parse_unary())
            else:
                return left

    def _parse_unary(self) -> Expr:
        if self._accept("op", "-"):
            return Unary("-", self._parse_unary())
        return self._parse_atom()

    def _parse_atom(self) -> Expr:
        token = self._current
        if token.kind == "number":
            self._advance()
            text = token.text
            return Literal(float(text) if "." in text else int(text))
        if token.kind == "string":
            self._advance()
            body = token.text[1:-1]
            return Literal(body.replace("\\'", "'").replace("\\\\", "\\"))
        if token.kind == "keyword" and token.text in ("TRUE", "FALSE", "NULL"):
            self._advance()
            return Literal({"TRUE": True, "FALSE": False, "NULL": None}[token.text])
        if token.kind == "op" and token.text == "*":
            self._advance()
            return Star()
        if token.kind == "op" and token.text == "(":
            self._advance()
            inner = self._parse_expr()
            self._expect("op", ")")
            return inner
        if token.kind == "ident":
            self._advance()
            if self._accept("op", "("):
                args: list[Expr] = []
                if not self._accept("op", ")"):
                    args.append(self._parse_expr())
                    while self._accept("op", ","):
                        args.append(self._parse_expr())
                    self._expect("op", ")")
                return Call(token.text.upper(), tuple(args))
            return Attr(token.text)
        raise AqlSyntaxError(
            f"unexpected token {token.text!r} at position {token.pos}"
        )


def _default_alias(expr: Expr) -> str:
    if isinstance(expr, Attr):
        return expr.name
    if isinstance(expr, Call):
        return expr.name.lower()
    raise AqlSyntaxError("this select item needs an explicit AS alias")


def parse(source: str) -> Query:
    """Parse AQL text into a :class:`Query` AST."""
    return _Parser(tokenize(source)).parse_query()


def parse_expression(source: str) -> Expr:
    """Parse a bare AQL expression (no SELECT) — subscription predicates.

    Section 8: users "provide more complex selection criteria based on
    the meta-data associated with the news-items, in the form of an SQL
    query"; the WHERE-clause expression grammar is exactly that.
    """
    parser = _Parser(tokenize(source))
    expr = parser._parse_expr()
    parser._expect("eof")
    return expr


# ---------------------------------------------------------------------------
# Function registries
# ---------------------------------------------------------------------------

# Aggregates consume a list of per-row argument tuples and produce one value.
AggregateFn = Callable[[list[tuple[AqlValue, ...]]], AqlValue]
# Scalars operate on one row's evaluated arguments.
ScalarFn = Callable[..., AqlValue]


def _numeric(values: Iterable[AqlValue], fn_name: str) -> list[float]:
    out: list[float] = []
    for value in values:
        if value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise AqlEvaluationError(f"{fn_name} expects numbers, got {value!r}")
        out.append(value)
    return out


def _single_column(rows: list[tuple[AqlValue, ...]], fn_name: str) -> list[AqlValue]:
    for row in rows:
        if len(row) != 1:
            raise AqlEvaluationError(f"{fn_name} takes exactly one argument")
    return [row[0] for row in rows]


def _agg_count(rows: list[tuple[AqlValue, ...]]) -> int:
    if rows and len(rows[0]) == 1:
        return sum(1 for (value,) in rows if value is not None)
    return len(rows)


def _agg_sum(rows: list[tuple[AqlValue, ...]]) -> AqlValue:
    values = _numeric(_single_column(rows, "SUM"), "SUM")
    return sum(values) if values else 0


def _agg_avg(rows: list[tuple[AqlValue, ...]]) -> AqlValue:
    values = _numeric(_single_column(rows, "AVG"), "AVG")
    return sum(values) / len(values) if values else None


def _agg_min(rows: list[tuple[AqlValue, ...]]) -> AqlValue:
    values = [v for v in _single_column(rows, "MIN") if v is not None]
    return min(values) if values else None


def _agg_max(rows: list[tuple[AqlValue, ...]]) -> AqlValue:
    values = [v for v in _single_column(rows, "MAX") if v is not None]
    return max(values) if values else None


def _agg_bor(rows: list[tuple[AqlValue, ...]]) -> int:
    """Bitwise OR — the Bloom-filter / bitmask aggregation of §6/§7."""
    result = 0
    for value in _single_column(rows, "BOR"):
        if value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, int):
            raise AqlEvaluationError(f"BOR expects integers, got {value!r}")
        result |= value
    return result


def _agg_band(rows: list[tuple[AqlValue, ...]]) -> int:
    result = -1
    seen = False
    for value in _single_column(rows, "BAND"):
        if value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, int):
            raise AqlEvaluationError(f"BAND expects integers, got {value!r}")
        result &= value
        seen = True
    return result if seen else 0


def _agg_any(rows: list[tuple[AqlValue, ...]]) -> bool:
    return any(bool(value) for (value,) in rows)


def _agg_all(rows: list[tuple[AqlValue, ...]]) -> bool:
    return all(bool(value) for (value,) in rows)


def _agg_union(rows: list[tuple[AqlValue, ...]]) -> tuple:
    """Union of tuple-valued attributes (e.g. known publisher names)."""
    merged: set = set()
    for value in _single_column(rows, "UNION"):
        if value is None:
            continue
        if not isinstance(value, tuple):
            raise AqlEvaluationError(f"UNION expects tuples, got {value!r}")
        merged.update(value)
    return tuple(sorted(merged, key=repr))


def _agg_first(rows: list[tuple[AqlValue, ...]]) -> tuple:
    """FIRST(k, value [, order]) — the k values with smallest order key.

    With two arguments the value itself is the order key.  Used for
    deterministic small-sample election (§5's representative sets).
    """
    picked: list[tuple[AqlValue, AqlValue]] = []
    for row in rows:
        if len(row) == 2:
            k, value = row
            order = value
        elif len(row) == 3:
            k, value, order = row
        else:
            raise AqlEvaluationError("FIRST takes 2 or 3 arguments")
        if value is None or order is None:
            continue
        picked.append((order, value))
    if not rows:
        return ()
    count = rows[0][0]
    if not isinstance(count, int) or count <= 0:
        raise AqlEvaluationError("FIRST's first argument must be a positive int")
    picked.sort(key=lambda pair: (repr(type(pair[0])), pair[0], repr(pair[1])))
    return tuple(value for _, value in picked[:count])


def _flatten_reps(
    rows: list[tuple[AqlValue, ...]], fn_name: str
) -> list[tuple[float, str]]:
    """Common core of REPS_*: flatten (contacts, loads) pairs of tuples."""
    flattened: list[tuple[float, str]] = []
    for row in rows:
        if len(row) != 3:
            raise AqlEvaluationError(f"{fn_name} takes (k, contacts, loads)")
        _, contacts, loads = row
        if contacts is None or loads is None:
            continue
        if not isinstance(contacts, tuple) or not isinstance(loads, tuple):
            raise AqlEvaluationError(f"{fn_name} expects tuple attributes")
        if len(contacts) != len(loads):
            raise AqlEvaluationError(
                f"{fn_name}: contacts and loads tuples differ in length"
            )
        for contact, load in zip(contacts, loads):
            flattened.append((float(load), str(contact)))
    # Sort by load, tie-broken by contact name for determinism.
    flattened.sort(key=lambda pair: (pair[0], pair[1]))
    return flattened


def _reps_k(rows: list[tuple[AqlValue, ...]], fn_name: str) -> int:
    if not rows:
        return 0
    k = rows[0][0]
    if not isinstance(k, int) or k <= 0:
        raise AqlEvaluationError(f"{fn_name}'s first argument must be a positive int")
    return k


def _agg_reps_contacts(rows: list[tuple[AqlValue, ...]]) -> tuple:
    """REPS_CONTACTS(k, contacts, loads) — k least-loaded contact ids."""
    flattened = _flatten_reps(rows, "REPS_CONTACTS")
    return tuple(contact for _, contact in flattened[: _reps_k(rows, "REPS_CONTACTS")])


def _agg_reps_loads(rows: list[tuple[AqlValue, ...]]) -> tuple:
    """REPS_LOADS(k, contacts, loads) — loads parallel to REPS_CONTACTS."""
    flattened = _flatten_reps(rows, "REPS_LOADS")
    return tuple(load for load, _ in flattened[: _reps_k(rows, "REPS_LOADS")])


def _run_aggregate(
    name: str, fn: AggregateFn, rows: list[tuple[AqlValue, ...]]
) -> AqlValue:
    """Apply an aggregate, converting raw TypeErrors (e.g. MIN over a
    mixed int/str column) into evaluation errors so mobile code cannot
    crash an agent with an unexpected exception type."""
    try:
        return fn(rows)
    except TypeError as exc:
        raise AqlEvaluationError(f"{name}: {exc}") from exc


def _agg_median(rows: list[tuple[AqlValue, ...]]) -> AqlValue:
    values = _numeric(_single_column(rows, "MEDIAN"), "MEDIAN")
    if not values:
        return None
    values.sort()
    middle = len(values) // 2
    if len(values) % 2:
        return values[middle]
    return (values[middle - 1] + values[middle]) / 2.0


def _agg_stddev(rows: list[tuple[AqlValue, ...]]) -> AqlValue:
    """Population standard deviation (None with < 2 samples)."""
    values = _numeric(_single_column(rows, "STDDEV"), "STDDEV")
    if len(values) < 2:
        return None
    mean = sum(values) / len(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))


def _agg_countd(rows: list[tuple[AqlValue, ...]]) -> int:
    """Distinct non-null values (e.g. COUNTD(version) for rollouts)."""
    seen: set = set()
    for value in _single_column(rows, "COUNTD"):
        if value is not None:
            seen.add(value)
    return len(seen)


AGGREGATES: Dict[str, AggregateFn] = {
    "COUNT": _agg_count,
    "COUNTD": _agg_countd,
    "SUM": _agg_sum,
    "AVG": _agg_avg,
    "MEDIAN": _agg_median,
    "STDDEV": _agg_stddev,
    "MIN": _agg_min,
    "MAX": _agg_max,
    "BOR": _agg_bor,
    "BAND": _agg_band,
    "ANY": _agg_any,
    "ALL": _agg_all,
    "UNION": _agg_union,
    "FIRST": _agg_first,
    "REPS_CONTACTS": _agg_reps_contacts,
    "REPS_LOADS": _agg_reps_loads,
}


def _scalar_if(cond: AqlValue, then: AqlValue, otherwise: AqlValue) -> AqlValue:
    return then if cond else otherwise


def _scalar_coalesce(*args: AqlValue) -> AqlValue:
    for arg in args:
        if arg is not None:
            return arg
    return None


def _scalar_abs(value: AqlValue) -> AqlValue:
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise AqlEvaluationError(f"ABS expects a number, got {value!r}")
    return abs(value)


def _scalar_len(value: AqlValue) -> AqlValue:
    if value is None:
        return None
    if not isinstance(value, (str, tuple)):
        raise AqlEvaluationError(f"LEN expects a string or tuple, got {value!r}")
    return len(value)


def _scalar_contains(container: AqlValue, needle: AqlValue) -> bool:
    if container is None:
        return False
    if isinstance(container, str):
        return isinstance(needle, str) and needle in container
    if isinstance(container, tuple):
        return needle in container
    raise AqlEvaluationError(f"CONTAINS expects a string or tuple, got {container!r}")


def _scalar_bit(value: AqlValue, position: AqlValue) -> bool:
    """BIT(mask, i) — test bit ``i`` of an integer mask."""
    if value is None:
        return False
    if isinstance(value, bool) or not isinstance(value, int):
        raise AqlEvaluationError(f"BIT expects an integer mask, got {value!r}")
    if not isinstance(position, int) or position < 0:
        raise AqlEvaluationError(f"BIT position must be a non-negative int")
    return bool((value >> position) & 1)


def _scalar_round(value: AqlValue, digits: AqlValue = 0) -> AqlValue:
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise AqlEvaluationError(f"ROUND expects a number, got {value!r}")
    if not isinstance(digits, int) or isinstance(digits, bool):
        raise AqlEvaluationError("ROUND digits must be an integer")
    return round(value, digits)


def _scalar_upper(value: AqlValue) -> AqlValue:
    if value is None:
        return None
    if not isinstance(value, str):
        raise AqlEvaluationError(f"UPPER expects a string, got {value!r}")
    return value.upper()


def _scalar_lower(value: AqlValue) -> AqlValue:
    if value is None:
        return None
    if not isinstance(value, str):
        raise AqlEvaluationError(f"LOWER expects a string, got {value!r}")
    return value.lower()


def _scalar_minv(*args: AqlValue) -> AqlValue:
    """Smallest of the (non-null) arguments — scalar, not aggregate."""
    values = [value for value in args if value is not None]
    if not values:
        return None
    try:
        return min(values)
    except TypeError as exc:
        raise AqlEvaluationError(f"MINV: {exc}") from exc


def _scalar_maxv(*args: AqlValue) -> AqlValue:
    values = [value for value in args if value is not None]
    if not values:
        return None
    try:
        return max(values)
    except TypeError as exc:
        raise AqlEvaluationError(f"MAXV: {exc}") from exc


SCALARS: Dict[str, ScalarFn] = {
    "IF": _scalar_if,
    "COALESCE": _scalar_coalesce,
    "ABS": _scalar_abs,
    "LEN": _scalar_len,
    "CONTAINS": _scalar_contains,
    "BIT": _scalar_bit,
    "ROUND": _scalar_round,
    "UPPER": _scalar_upper,
    "LOWER": _scalar_lower,
    "MINV": _scalar_minv,
    "MAXV": _scalar_maxv,
}


# ---------------------------------------------------------------------------
# Evaluator
# ---------------------------------------------------------------------------

RowMapping = Mapping[str, AqlValue]


def _eval_row(expr: Expr, row: RowMapping) -> AqlValue:
    """Evaluate ``expr`` in row context (inside aggregates / WHERE)."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Attr):
        return row.get(expr.name)
    if isinstance(expr, Star):
        raise AqlEvaluationError("'*' is only valid inside COUNT(*)")
    if isinstance(expr, Unary):
        operand = _eval_row(expr.operand, row)
        return _apply_unary(expr.op, operand)
    if isinstance(expr, Binary):
        return _apply_binary_lazy(expr, lambda e: _eval_row(e, row))
    if isinstance(expr, Call):
        if expr.name in AGGREGATES:
            raise AqlEvaluationError(
                f"aggregate {expr.name} cannot be nested inside another aggregate"
            )
        return _call_scalar(expr, [_eval_row(arg, row) for arg in expr.args])
    raise AqlEvaluationError(f"cannot evaluate {expr!r}")


def _eval_table(expr: Expr, rows: Sequence[RowMapping]) -> AqlValue:
    """Evaluate ``expr`` in table context (a SELECT item)."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Attr):
        raise AqlEvaluationError(
            f"bare attribute {expr.name!r} outside an aggregate; wrap it "
            "in MIN/MAX/SUM/... or COUNT"
        )
    if isinstance(expr, Star):
        raise AqlEvaluationError("'*' is only valid inside COUNT(*)")
    if isinstance(expr, Unary):
        return _apply_unary(expr.op, _eval_table(expr.operand, rows))
    if isinstance(expr, Binary):
        return _apply_binary_lazy(expr, lambda e: _eval_table(e, rows))
    if isinstance(expr, Call):
        if expr.name in AGGREGATES:
            if expr.name == "COUNT" and len(expr.args) == 1 and isinstance(expr.args[0], Star):
                return len(rows)
            per_row = [
                tuple(_eval_row(arg, row) for arg in expr.args) for row in rows
            ]
            return _run_aggregate(expr.name, AGGREGATES[expr.name], per_row)
        return _call_scalar(expr, [_eval_table(arg, rows) for arg in expr.args])
    raise AqlEvaluationError(f"cannot evaluate {expr!r}")


def _call_scalar(expr: Call, args: list[AqlValue]) -> AqlValue:
    fn = SCALARS.get(expr.name)
    if fn is None:
        raise AqlEvaluationError(f"unknown function {expr.name}")
    try:
        return fn(*args)
    except TypeError as exc:
        raise AqlEvaluationError(f"{expr.name}: {exc}") from exc


def _apply_unary(op: str, operand: AqlValue) -> AqlValue:
    if op == "NOT":
        return not operand
    if op == "-":
        if operand is None:
            return None
        if isinstance(operand, bool) or not isinstance(operand, (int, float)):
            raise AqlEvaluationError(f"cannot negate {operand!r}")
        return -operand
    raise AqlEvaluationError(f"unknown unary operator {op}")


def _apply_binary_lazy(expr: Binary, ev: Callable[[Expr], AqlValue]) -> AqlValue:
    op = expr.op
    if op == "AND":
        left = ev(expr.left)
        return bool(left) and bool(ev(expr.right))
    if op == "OR":
        left = ev(expr.left)
        return bool(left) or bool(ev(expr.right))
    left, right = ev(expr.left), ev(expr.right)
    if op in ("=", "!="):
        equal = left == right
        return equal if op == "=" else not equal
    if op in ("<", "<=", ">", ">="):
        return _compare(op, left, right)
    if op in ("+", "-", "*", "/", "%"):
        return _arith(op, left, right)
    raise AqlEvaluationError(f"unknown operator {op}")


def _compare(op: str, left: AqlValue, right: AqlValue) -> bool:
    if left is None or right is None:
        return False
    comparable = (
        (isinstance(left, (int, float)) and isinstance(right, (int, float))
         and not isinstance(left, bool) and not isinstance(right, bool))
        or (isinstance(left, str) and isinstance(right, str))
        or (isinstance(left, tuple) and isinstance(right, tuple))
    )
    if not comparable:
        raise AqlEvaluationError(f"cannot compare {left!r} and {right!r}")
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    return left >= right


def _arith(op: str, left: AqlValue, right: AqlValue) -> AqlValue:
    if left is None or right is None:
        return None
    if op == "+" and isinstance(left, str) and isinstance(right, str):
        return left + right
    if op == "+" and isinstance(left, tuple) and isinstance(right, tuple):
        return left + right
    for value in (left, right):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise AqlEvaluationError(
                f"arithmetic {op} needs numbers, got {left!r} and {right!r}"
            )
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            raise AqlEvaluationError("division by zero")
        return left / right
    if right == 0:
        raise AqlEvaluationError("modulo by zero")
    return left % right


# ---------------------------------------------------------------------------
# Compiler
#
# Aggregation runs at every agent at every level every gossip round, so
# programs are compiled once into nested Python closures instead of
# being tree-walked per evaluation (~4x on the end-to-end simulation).
# The closures call the same _compare/_arith/AGGREGATES helpers as the
# interpreter above, so both paths share semantics; the interpreter is
# retained as the executable specification for differential tests.
# ---------------------------------------------------------------------------

RowFn = Callable[[RowMapping], AqlValue]
TableFn = Callable[[Sequence[RowMapping]], AqlValue]


def _compile_row(expr: Expr) -> RowFn:
    if isinstance(expr, Literal):
        value = expr.value
        return lambda row: value
    if isinstance(expr, Attr):
        name = expr.name
        return lambda row: row.get(name)
    if isinstance(expr, Star):
        raise AqlEvaluationError("'*' is only valid inside COUNT(*)")
    if isinstance(expr, Unary):
        operand = _compile_row(expr.operand)
        if expr.op == "NOT":
            return lambda row: not operand(row)
        return lambda row: _apply_unary("-", operand(row))
    if isinstance(expr, Binary):
        return _compile_binary(expr, _compile_row)
    if isinstance(expr, Call):
        if expr.name in AGGREGATES:
            raise AqlEvaluationError(
                f"aggregate {expr.name} cannot be nested inside another aggregate"
            )
        fn = SCALARS.get(expr.name)
        if fn is None:
            raise AqlEvaluationError(f"unknown function {expr.name}")
        arg_fns = [_compile_row(arg) for arg in expr.args]
        name = expr.name

        def call(row: RowMapping) -> AqlValue:
            try:
                return fn(*[arg(row) for arg in arg_fns])
            except TypeError as exc:
                raise AqlEvaluationError(f"{name}: {exc}") from exc

        return call
    raise AqlEvaluationError(f"cannot compile {expr!r}")


def _compile_binary(expr: Binary, compile_operand: Callable[[Expr], Any]) -> Any:
    op = expr.op
    left = compile_operand(expr.left)
    right = compile_operand(expr.right)
    if op == "AND":
        return lambda ctx: bool(left(ctx)) and bool(right(ctx))
    if op == "OR":
        return lambda ctx: bool(left(ctx)) or bool(right(ctx))
    if op == "=":
        return lambda ctx: left(ctx) == right(ctx)
    if op == "!=":
        return lambda ctx: left(ctx) != right(ctx)
    if op in ("<", "<=", ">", ">="):
        return lambda ctx: _compare(op, left(ctx), right(ctx))
    return lambda ctx: _arith(op, left(ctx), right(ctx))


def _compile_table(expr: Expr) -> TableFn:
    if isinstance(expr, Literal):
        value = expr.value
        return lambda rows: value
    if isinstance(expr, Attr):
        raise AqlEvaluationError(
            f"bare attribute {expr.name!r} outside an aggregate; wrap it "
            "in MIN/MAX/SUM/... or COUNT"
        )
    if isinstance(expr, Star):
        raise AqlEvaluationError("'*' is only valid inside COUNT(*)")
    if isinstance(expr, Unary):
        operand = _compile_table(expr.operand)
        if expr.op == "NOT":
            return lambda rows: not operand(rows)
        return lambda rows: _apply_unary("-", operand(rows))
    if isinstance(expr, Binary):
        return _compile_binary(expr, _compile_table)
    if isinstance(expr, Call):
        if expr.name in AGGREGATES:
            if (
                expr.name == "COUNT"
                and len(expr.args) == 1
                and isinstance(expr.args[0], Star)
            ):
                return lambda rows: len(rows)
            aggregate = AGGREGATES[expr.name]
            agg_name = expr.name
            arg_fns = [_compile_row(arg) for arg in expr.args]
            if len(arg_fns) == 1:
                only = arg_fns[0]
                return lambda rows: _run_aggregate(
                    agg_name, aggregate, [(only(row),) for row in rows]
                )
            return lambda rows: _run_aggregate(
                agg_name,
                aggregate,
                [tuple(arg(row) for arg in arg_fns) for row in rows],
            )
        fn = SCALARS.get(expr.name)
        if fn is None:
            raise AqlEvaluationError(f"unknown function {expr.name}")
        arg_fns = [_compile_table(arg) for arg in expr.args]
        name = expr.name

        def call(rows: Sequence[RowMapping]) -> AqlValue:
            try:
                return fn(*[arg(rows) for arg in arg_fns])
            except TypeError as exc:
                raise AqlEvaluationError(f"{name}: {exc}") from exc

        return call
    raise AqlEvaluationError(f"cannot compile {expr!r}")


class AqlProgram:
    """A parsed and compiled, reusable aggregation program.

    ``evaluate(rows)`` returns the output attribute map; ``rows`` is any
    sequence of attribute mappings (zone-table rows).
    """

    def __init__(self, source: str):
        self.source = source
        self.query = parse(source)
        self._where = (
            _compile_row(self.query.where) if self.query.where is not None else None
        )
        self._items: list[tuple[str, TableFn]] = [
            (item.alias, _compile_table(item.expr)) for item in self.query.items
        ]

    def evaluate(self, rows: Sequence[RowMapping]) -> Dict[str, AqlValue]:
        where = self._where
        if where is not None:
            rows = [row for row in rows if where(row)]
        return {alias: fn(rows) for alias, fn in self._items}

    def evaluate_interpreted(self, rows: Sequence[RowMapping]) -> Dict[str, AqlValue]:
        """Tree-walking evaluation — the executable specification.

        Kept for differential testing against the compiled path.
        """
        if self.query.where is not None:
            rows = [row for row in rows if _eval_row(self.query.where, row)]
        return {
            item.alias: _eval_table(item.expr, rows) for item in self.query.items
        }

    def __repr__(self) -> str:
        return f"AqlProgram({self.source!r})"


#: Compiled programs, memoized by source text.  Certificates carry a
#: handful of distinct programs but are re-installed at every agent on
#: every epidemic hop, so sharing the compiled form across agents turns
#: O(agents × certs) compilations into O(distinct sources).  Programs
#: are immutable after construction, which makes sharing safe.
_COMPILED: Dict[str, "AqlProgram"] = {}
_COMPILED_LIMIT = 1024


def compile_program(source: str) -> "AqlProgram":
    """Parse + compile ``source``, memoized by exact source text.

    Raises the same errors as ``AqlProgram(source)``; failures are
    never cached.
    """
    program = _COMPILED.get(source)
    if program is None:
        if len(_COMPILED) >= _COMPILED_LIMIT:
            _COMPILED.clear()  # adversarial cert floods cannot pin memory
        program = AqlProgram(source)
        _COMPILED[source] = program
    return program


def evaluate(source: str, rows: Sequence[RowMapping]) -> Dict[str, AqlValue]:
    """One-shot parse + evaluate (tests and interactive use)."""
    return compile_program(source).evaluate(rows)


def compile_predicate(source: str) -> Callable[[RowMapping], bool]:
    """Compile an AQL expression into a boolean row predicate.

    Aggregates are rejected (a predicate sees one item's metadata).
    """
    fn = _compile_row(parse_expression(source))
    return lambda row: bool(fn(row))
