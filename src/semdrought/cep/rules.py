"""Detection rule DSL: tokenizer, recursive-descent parser and printer.

Concrete syntax (keywords are case-sensitive, ``#`` starts a comment):

    RULE dry_spell
    WHEN AVG(ex:precipitation) < 0.5 AND SLOPE(ex:soilMoisture) < 0
    WITHIN 30d STEP 1d
    EMIT DrySpell SEVERITY 0.6

Prefixed terms and angle-bracket IRIs are expanded at parse time, so a
rule's event kinds compare directly against canonical observation kinds.
"""

import math
import re
from dataclasses import dataclass

from ..errors import SemDroughtError
from ..model import Namespaces, Vocabulary, canonical_double

KEYWORDS = frozenset({
    "RULE", "WHEN", "WITHIN", "STEP", "EMIT", "SEVERITY",
    "OR", "AND", "NOT", "AVG", "MIN", "MAX", "SUM", "COUNT",
    "SLOPE", "SEQ", "ABSENT",
})
AGGREGATE_FNS = ("AVG", "MIN", "MAX", "SUM", "COUNT")
COMPARATORS = ("<=", ">=", "==", "!=", "<", ">")
_UNIT_SECONDS = {"d": 86400, "h": 3600, "m": 60}
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
class Threshold:
    kind: str
    cmp: str
    constant: float


@dataclass(frozen=True)
class Aggregate:
    fn: str
    kind: str
    cmp: str
    constant: float


@dataclass(frozen=True)
class Trend:
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


PatternExpr = Threshold | Aggregate | Trend | Seq | Absent | Not | And | Or


@dataclass(frozen=True)
class WindowSpec:
    mode: str            # sliding | tumbling
    length: int          # seconds
    step: int | None = None

    def __post_init__(self):
        if self.mode not in ("sliding", "tumbling"):
            raise ValueError(f"unknown window mode {self.mode!r}")
        if self.length <= 0:
            raise ValueError("window length must be positive")
        if self.mode == "sliding":
            if self.step is None or self.step <= 0 or self.step > self.length:
                raise ValueError("sliding window needs 0 < step <= length")
        elif self.step is not None:
            raise ValueError("tumbling window carries no step")

    @property
    def stride(self) -> int:
        return self.step if self.mode == "sliding" else self.length


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


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?::[A-Za-z_][A-Za-z0-9_]*)?")
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
_DURATION = re.compile(r"\d+(?:\.\d+)?[dhm]\b")
_IRIREF = re.compile(r"<[^<>\s]+>")


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for line_number, line in enumerate(text.splitlines(), start=1):
        pos = 0
        length = len(line)
        while pos < length:
            ch = line[pos]
            if ch in " \t":
                pos += 1
                continue
            if ch == "#":
                break
            column = pos + 1
            if line.startswith("->", pos):
                tokens.append(_Token("ARROW", "->", None, line_number, column))
                pos += 2
                continue
            two = line[pos:pos + 2]
            if two in ("<=", ">=", "==", "!="):
                tokens.append(_Token("CMP", two, None, line_number, column))
                pos += 2
                continue
            match = _IRIREF.match(line, pos)
            if match:
                tokens.append(_Token("IRI", match.group(), match.group()[1:-1],
                                     line_number, column))
                pos = match.end()
                continue
            if ch in "<>":
                tokens.append(_Token("CMP", ch, None, line_number, column))
                pos += 1
                continue
            if ch == "(":
                tokens.append(_Token("LPAREN", ch, None, line_number, column))
                pos += 1
                continue
            if ch == ")":
                tokens.append(_Token("RPAREN", ch, None, line_number, column))
                pos += 1
                continue
            match = _DURATION.match(line, pos)
            if match:
                text_value = match.group()
                seconds = float(text_value[:-1]) * _UNIT_SECONDS[text_value[-1]]
                tokens.append(_Token("DURATION", text_value, seconds, line_number, column))
                pos = match.end()
                continue
            match = _NUMBER.match(line, pos)
            if match:
                tokens.append(_Token("NUMBER", match.group(), float(match.group()),
                                     line_number, column))
                pos = match.end()
                continue
            match = _IDENT.match(line, pos)
            if match:
                word = match.group()
                kind = "KW" if word in KEYWORDS else "IDENT"
                tokens.append(_Token(kind, word, word, line_number, column))
                pos = match.end()
                continue
            raise RuleSyntaxError(line_number, column, "a token", repr(ch))
    last_line = text.count("\n") + 1
    tokens.append(_Token("EOF", "", None, last_line, 1))
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
        length = self._duration()
        step = None
        if self._at_kw("STEP"):
            self._advance()
            step = self._duration()
        self._expect_kw("EMIT")
        emit = self._term("emitted event kind")
        severity = DEFAULT_SEVERITY
        if self._at_kw("SEVERITY"):
            self._advance()
            severity = self._expect("NUMBER", "severity number").value
        if step is not None and step > length:
            raise RuleSemanticError(f"rule {name}: step exceeds window length")
        if not 0.0 <= severity <= 1.0:
            raise RuleSemanticError(f"rule {name}: severity must lie in [0, 1]")
        window = (WindowSpec("sliding", length, step) if step is not None
                  else WindowSpec("tumbling", length))
        return CepRule(name=name, window=window, pattern=pattern,
                       emit=emit, severity_weight=severity)

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
            if not isinstance(child, (Threshold, Aggregate, Trend)):
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
        if self._at_kw(*AGGREGATE_FNS):
            fn = self._advance().text
            self._expect("LPAREN", "opening parenthesis")
            kind = self._term("event kind")
            self._expect("RPAREN", "closing parenthesis")
            cmp = self._expect("CMP", "comparison operator").text
            constant = self._constant()
            return Aggregate(fn, kind, cmp, constant)
        if self._at_kw("SLOPE"):
            self._advance()
            self._expect("LPAREN", "opening parenthesis")
            kind = self._term("event kind")
            self._expect("RPAREN", "closing parenthesis")
            cmp = self._expect("CMP", "comparison operator").text
            constant = self._constant()
            return Trend(kind, cmp, constant)
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
            self._expect("LPAREN", "opening parenthesis")
            kind = self._term("event kind")
            self._expect("RPAREN", "closing parenthesis")
            return Absent(kind)
        if token.kind in ("IDENT", "IRI"):
            kind = self._term("event kind")
            cmp = self._expect("CMP", "comparison operator").text
            constant = self._constant()
            return Threshold(kind, cmp, constant)
        self._fail("a pattern")

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


def _reserved_kinds(ns: Namespaces) -> frozenset[str]:
    return frozenset(p.value for p in Vocabulary(ns).properties)


def parse_ruleset(text: str, ns: Namespaces | None = None) -> list[CepRule]:
    """Parse one or more rules; rejects duplicate names and reserved emits."""
    ns = ns or Namespaces()
    rules = _Parser(_tokenize(text), ns).parse_ruleset()
    reserved = _reserved_kinds(ns)
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
    for unit, size in (("d", 86400), ("h", 3600), ("m", 60)):
        if seconds % size == 0:
            return f"{seconds // size}{unit}"
    return canonical_double(seconds / 60.0) + "m"


def _term_text(kind: str) -> str:
    return f"<{kind}>" if "://" in kind else kind


def _pattern_text(expr: PatternExpr) -> str:
    if isinstance(expr, Threshold):
        return f"{_term_text(expr.kind)} {expr.cmp} {canonical_double(expr.constant)}"
    if isinstance(expr, Aggregate):
        return (f"{expr.fn}({_term_text(expr.kind)}) {expr.cmp} "
                f"{canonical_double(expr.constant)}")
    if isinstance(expr, Trend):
        return (f"SLOPE({_term_text(expr.kind)}) {expr.cmp} "
                f"{canonical_double(expr.constant)}")
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
    if rule.window.mode == "sliding":
        parts.append(f"STEP {duration_text(rule.window.step)}")
    parts.append(f"EMIT {_term_text(rule.emit)}")
    parts.append(f"SEVERITY {canonical_double(rule.severity_weight)}")
    return " ".join(parts)
