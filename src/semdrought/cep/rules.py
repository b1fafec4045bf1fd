"""Detection rule DSL: tokenizer, recursive-descent parser and printer.

Concrete syntax (keywords are case-sensitive, ``#`` starts a comment that
runs to the end of the line; only ``\\n``, ``\\r\\n`` and ``\\r`` end a line):

    RULE dry_spell
    WHEN AVG(ex:precipitation) < 0.5 AND SLOPE(ex:soilMoisture) < 0
    WITHIN 30d STEP 1d
    EMIT DrySpell SEVERITY 0.6

Prefixed terms and angle-bracket IRIs are expanded at parse time, so a
rule's event kinds compare directly against canonical observation kinds.
"""

import math
import operator
import re
from dataclasses import dataclass

from ..errors import SemDroughtError
from ..model import Namespaces, Vocabulary, canonical_double

VALUE_FNS = ("AVG", "MIN", "MAX", "SUM", "COUNT", "SLOPE")
KEYWORDS = frozenset(("RULE", "WHEN", "WITHIN", "STEP", "EMIT", "SEVERITY",
                      "OR", "AND", "NOT", "SEQ", "ABSENT") + VALUE_FNS)
COMPARATORS = {
    "<=": operator.le, ">=": operator.ge, "==": operator.eq, "!=": operator.ne,
    "<": operator.lt, ">": operator.gt,
}
_UNIT_SECONDS = {"d": 86400, "h": 3600, "m": 60}    # largest first, as printed
DEFAULT_SEVERITY = 0.5


class RuleSyntaxError(SemDroughtError):
    code = "SyntaxError"

    def __init__(self, line: int, column: int, expectation: str, found: str):
        super().__init__(f"line {line}, column {column}: expected {expectation}, found {found}")
        self.line = line
        self.column = column
        self.expectation = expectation
        self.found = found


class RuleSemanticError(SemDroughtError):
    code = "SemanticError"


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Compare:
    """``fn(kind) cmp constant`` over a window's readings of ``kind``, ``fn``
    one of VALUE_FNS; with ``fn`` None, ``kind cmp constant`` holds when some
    reading compares true."""
    fn: str | None
    kind: str
    cmp: str
    constant: float


@dataclass(frozen=True)
class Seq:
    first: str
    second: str


@dataclass(frozen=True)
class Absent:
    kind: str


@dataclass(frozen=True)
class Not:
    child: "PatternExpr"


@dataclass(frozen=True)
class And:
    children: tuple["PatternExpr", ...]


@dataclass(frozen=True)
class Or:
    children: tuple["PatternExpr", ...]


PatternExpr = Compare | Seq | Absent | Not | And | Or


@dataclass(frozen=True)
class WindowSpec:
    """Windows of ``length`` seconds, one every ``stride`` seconds; a
    tumbling window is one whose stride is its length."""
    length: int
    stride: int

    def __post_init__(self):
        if not 0 < self.stride <= self.length:
            raise ValueError("window step must be positive and at most its length")


@dataclass(frozen=True)
class CepRule:
    name: str
    window: WindowSpec
    pattern: PatternExpr
    emit: str
    severity_weight: float = DEFAULT_SEVERITY

    def __post_init__(self):
        if not 0.0 <= self.severity_weight <= 1.0:
            raise ValueError("severity weight must lie in [0, 1]")


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str    # KW IDENT IRI NUMBER DURATION CMP LPAREN RPAREN ARROW EOF
    text: str
    value: object
    line: int
    column: int


def _operators(size: int) -> str:
    return "|".join(re.escape(op) for op in COMPARATORS if len(op) == size)


# (token kind, pattern, value of the matched text), tried in this order at
# each position; a kind of None is skipped (blanks and comments)
_TOKEN_RULES = (
    (None, r"[ \t]+|#.*", None),
    ("ARROW", "->", None),
    ("CMP", _operators(2), None),
    ("IRI", r"<[^<>\s]+>", lambda text: text[1:-1]),
    ("CMP", _operators(1), None),
    ("LPAREN", r"\(", None),
    ("RPAREN", r"\)", None),
    ("DURATION", r"\d+(?:\.\d+)?[" + "".join(_UNIT_SECONDS) + r"]\b",
     lambda text: float(text[:-1]) * _UNIT_SECONDS[text[-1]]),
    ("NUMBER", r"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?", float),
    ("IDENT", r"[A-Za-z_][A-Za-z0-9_]*(?::[A-Za-z_][A-Za-z0-9_]*)?", str),
)
_SCANNER = re.compile("|".join(f"({pattern})" for _, pattern, _ in _TOKEN_RULES))


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    lines = re.split(r"\r\n|\r|\n", text)
    for line_number, line in enumerate(lines, start=1):
        pos = 0
        while pos < len(line):
            match = _SCANNER.match(line, pos)
            if match is None:
                raise RuleSyntaxError(line_number, pos + 1, "a token", repr(line[pos]))
            kind, _, value = _TOKEN_RULES[match.lastindex - 1]
            word = match.group()
            if kind is not None:
                if kind == "IDENT" and word in KEYWORDS:
                    kind = "KW"
                tokens.append(_Token(kind, word, value(word) if value else None,
                                     line_number, pos + 1))
            pos = match.end()
    tokens.append(_Token("EOF", "", None, len(lines), 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[_Token], ns: Namespaces):
        self.tokens = tokens
        self.ns = ns
        self.index = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.index]

    def _fail(self, expectation: str):
        token = self.current
        found = token.text or "end of input"
        raise RuleSyntaxError(token.line, token.column, expectation, found)

    def _advance(self) -> _Token:
        token = self.current
        self.index += 1
        return token

    def _expect_kw(self, word: str) -> _Token:
        if self.current.kind == "KW" and self.current.text == word:
            return self._advance()
        self._fail(f"keyword {word}")

    def _expect(self, kind: str, expectation: str) -> _Token:
        if self.current.kind == kind:
            return self._advance()
        self._fail(expectation)

    def _at_kw(self, *words: str) -> bool:
        return self.current.kind == "KW" and self.current.text in words

    def parse_ruleset(self) -> list[CepRule]:
        rules = [self.parse_rule()]
        while self.current.kind != "EOF":
            rules.append(self.parse_rule())
        names = [r.name for r in rules]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise RuleSemanticError(f"duplicate rule names: {sorted(duplicates)}")
        return rules

    def parse_rule(self) -> CepRule:
        self._expect_kw("RULE")
        name = self._expect("IDENT", "rule name").text
        self._expect_kw("WHEN")
        pattern = self._or()
        self._expect_kw("WITHIN")
        length = stride = self._duration()
        if self._at_kw("STEP"):
            self._advance()
            stride = self._duration()
        self._expect_kw("EMIT")
        emit = self._term("emitted event kind")
        severity = DEFAULT_SEVERITY
        if self._at_kw("SEVERITY"):
            self._advance()
            severity = self._expect("NUMBER", "severity number").value
        try:
            return CepRule(name=name, window=WindowSpec(length, stride), pattern=pattern,
                           emit=emit, severity_weight=severity)
        except ValueError as exc:
            raise RuleSemanticError(f"rule {name}: {exc}")

    def _duration(self) -> int:
        token = self._expect("DURATION", "duration like 30d, 12h or 5m")
        seconds = token.value
        if seconds <= 0 or seconds != int(seconds):
            raise RuleSemanticError(
                f"line {token.line}: duration must be a positive whole number of seconds"
            )
        return int(seconds)

    def _or(self) -> PatternExpr:
        children = [self._and()]
        while self._at_kw("OR"):
            self._advance()
            children.append(self._and())
        return children[0] if len(children) == 1 else Or(tuple(children))

    def _and(self) -> PatternExpr:
        children = [self._unary()]
        while self._at_kw("AND"):
            self._advance()
            children.append(self._unary())
        return children[0] if len(children) == 1 else And(tuple(children))

    def _unary(self) -> PatternExpr:
        if self._at_kw("NOT"):
            token = self._advance()
            child = self._prim()
            if not isinstance(child, Compare):
                raise RuleSemanticError(
                    f"line {token.line}: NOT applies to value predicates only"
                )
            return Not(child)
        return self._prim()

    def _prim(self) -> PatternExpr:
        token = self.current
        if token.kind == "LPAREN":
            self._advance()
            inner = self._or()
            self._expect("RPAREN", "closing parenthesis")
            return inner
        if self._at_kw(*VALUE_FNS):
            fn = self._advance().text
            return Compare(fn, self._kind_in_parens(), *self._comparison())
        if self._at_kw("SEQ"):
            self._advance()
            self._expect("LPAREN", "opening parenthesis")
            first = self._term("event kind")
            self._expect("ARROW", "'->'")
            second = self._term("event kind")
            self._expect("RPAREN", "closing parenthesis")
            return Seq(first, second)
        if self._at_kw("ABSENT"):
            self._advance()
            return Absent(self._kind_in_parens())
        if token.kind in ("IDENT", "IRI"):
            return Compare(None, self._term("event kind"), *self._comparison())
        self._fail("a pattern")

    def _kind_in_parens(self) -> str:
        self._expect("LPAREN", "opening parenthesis")
        kind = self._term("event kind")
        self._expect("RPAREN", "closing parenthesis")
        return kind

    def _comparison(self) -> tuple[str, float]:
        cmp = self._expect("CMP", "comparison operator").text
        return cmp, self._constant()

    def _term(self, expectation: str) -> str:
        token = self.current
        if token.kind == "IRI":
            self._advance()
            return token.value
        if token.kind == "IDENT":
            self._advance()
            return self.ns.expand(token.text) if ":" in token.text else token.text
        self._fail(expectation)

    def _constant(self) -> float:
        token = self._expect("NUMBER", "a numeric constant")
        if not math.isfinite(token.value):
            raise RuleSemanticError(f"line {token.line}: comparison constant must be finite")
        return token.value


def parse_ruleset(text: str, ns: Namespaces | None = None) -> list[CepRule]:
    """Parse one or more rules; rejects duplicate names and reserved emits."""
    ns = ns or Namespaces()
    rules = _Parser(_tokenize(text), ns).parse_ruleset()
    reserved = {p.value for p in Vocabulary(ns).property_units}
    for rule in rules:
        if rule.emit in reserved:
            raise RuleSemanticError(
                f"rule {rule.name}: emitted kind {rule.emit} is a canonical property"
            )
    return rules


def parse_rule(text: str, ns: Namespaces | None = None) -> CepRule:
    rules = parse_ruleset(text, ns)
    if len(rules) != 1:
        raise RuleSemanticError(f"expected exactly one rule, found {len(rules)}")
    return rules[0]


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

def duration_text(seconds: int) -> str:
    """A window length in the rule DSL's largest whole unit."""
    for unit, size in _UNIT_SECONDS.items():
        if seconds % size == 0:
            return f"{seconds // size}{unit}"
    return canonical_double(seconds / 60.0) + "m"


def _term_text(kind: str) -> str:
    return f"<{kind}>" if "://" in kind else kind


def _pattern_text(expr: PatternExpr) -> str:
    if isinstance(expr, Compare):
        operand = _term_text(expr.kind)
        if expr.fn is not None:
            operand = f"{expr.fn}({operand})"
        return f"{operand} {expr.cmp} {canonical_double(expr.constant)}"
    if isinstance(expr, Seq):
        return f"SEQ({_term_text(expr.first)} -> {_term_text(expr.second)})"
    if isinstance(expr, Absent):
        return f"ABSENT({_term_text(expr.kind)})"
    if isinstance(expr, Not):
        return f"NOT {_pattern_text(expr.child)}"
    if isinstance(expr, And):
        # a nested And/Or child only arises from explicit parentheses
        return " AND ".join(
            f"({_pattern_text(c)})" if isinstance(c, (And, Or)) else _pattern_text(c)
            for c in expr.children
        )
    if isinstance(expr, Or):
        return " OR ".join(
            f"({_pattern_text(c)})" if isinstance(c, Or) else _pattern_text(c)
            for c in expr.children
        )
    raise TypeError(f"not a pattern node: {expr!r}")


def rule_to_text(rule: CepRule) -> str:
    parts = [f"RULE {rule.name} WHEN {_pattern_text(rule.pattern)}",
             f"WITHIN {duration_text(rule.window.length)}"]
    if rule.window.stride != rule.window.length:
        parts.append(f"STEP {duration_text(rule.window.stride)}")
    parts.append(f"EMIT {_term_text(rule.emit)}")
    parts.append(f"SEVERITY {canonical_double(rule.severity_weight)}")
    return " ".join(parts)
