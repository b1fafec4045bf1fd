"""Rule DSL tokenizer, parser and printer tests."""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from semdrought.cep import (
    Absent,
    And,
    CepRule,
    Compare,
    Not,
    Or,
    RuleSemanticError,
    RuleSyntaxError,
    Seq,
    WindowSpec,
    parse_rule,
    parse_ruleset,
    rule_to_text,
)
from semdrought.cep.rules import _tokenize
from semdrought.model import Namespaces

NS = Namespaces()
PRECIP = NS.expand("ex:precipitation")
SOIL = NS.expand("ex:soilMoisture")
TEMP = NS.expand("ex:airTemperature")

DRY_SPELL = (
    "RULE dry_spell WHEN AVG(ex:precipitation) < 0.5 "
    "AND SLOPE(ex:soilMoisture) < 0 WITHIN 30d STEP 1d EMIT DrySpell SEVERITY 0.6"
)


class TestParser:
    def test_dry_spell_structure(self):
        rule = parse_rule(DRY_SPELL, NS)
        assert rule.name == "dry_spell"
        assert rule.window == WindowSpec(30 * 86400, 86400)
        assert rule.pattern == And((
            Compare("AVG", PRECIP, "<", 0.5),
            Compare("SLOPE", SOIL, "<", 0.0),
        ))
        assert rule.emit == "DrySpell"
        assert rule.severity_weight == 0.6

    def test_ik_count_rule(self):
        rule = parse_rule(
            "RULE y WHEN COUNT(IkDrierObservation) >= 3 WITHIN 90d "
            "EMIT IkDrierSignal SEVERITY 0.4", NS,
        )
        assert rule.pattern == Compare("COUNT", "IkDrierObservation", ">=", 3.0)
        assert rule.window == WindowSpec(90 * 86400, 90 * 86400)

    @pytest.mark.parametrize("text, column, found", [
        ("RULE a WHEN x > \u0661 WITHIN 30d EMIT B", 17, "'\u0661'"),
        ("RULE a WHEN x > 1 WITHIN \u0663\u0660d EMIT B", 26, "'\u0663'"),
        ("RULE a WHEN x > 1 WITHIN 30d STEP \uff11d EMIT B", 35, "'\uff11'"),
    ])
    def test_numbers_and_durations_take_ascii_digits_only(self, text, column, found):
        with pytest.raises(RuleSyntaxError) as err:
            parse_rule(text, NS)
        assert (err.value.line, err.value.column, err.value.found) == (1, column, found)

    def test_missing_step_means_tumbling(self):
        rule = parse_rule("RULE r WHEN x > 1 WITHIN 7d EMIT Y", NS)
        assert rule.window.stride == rule.window.length

    def test_step_equal_to_length_is_tumbling(self):
        stepped = parse_rule("RULE r WHEN x > 1 WITHIN 7d STEP 7d EMIT Y", NS)
        assert stepped == parse_rule("RULE r WHEN x > 1 WITHIN 7d EMIT Y", NS)
        assert "STEP" not in rule_to_text(stepped)

    def test_not_over_seq_rejected(self):
        with pytest.raises(RuleSemanticError):
            parse_rule("RULE x WHEN NOT SEQ(A -> B) WITHIN 7d EMIT Y", NS)

    def test_not_over_absent_rejected(self):
        with pytest.raises(RuleSemanticError):
            parse_rule("RULE x WHEN NOT ABSENT(A) WITHIN 7d EMIT Y", NS)

    def test_step_exceeding_length_rejected(self):
        with pytest.raises(RuleSemanticError):
            parse_rule("RULE x WHEN a > 1 WITHIN 1d STEP 2d EMIT Y", NS)

    def test_syntax_error_carries_position(self):
        with pytest.raises(RuleSyntaxError) as err:
            parse_rule("RULE x WHEN AVG( WITHIN 1d EMIT Y", NS)
        assert err.value.line == 1
        assert err.value.column > 0
        assert "kind" in err.value.expectation

    def test_angle_bracket_iri_term(self):
        rule = parse_rule(f"RULE x WHEN <{PRECIP}> < 1 WITHIN 1d EMIT Y", NS)
        assert rule.pattern == Compare(None, PRECIP, "<", 1.0)

    def test_comments_and_newlines(self):
        text = (
            "# detection rules\n"
            "RULE a WHEN x > 1 # threshold\n"
            "WITHIN 1d EMIT XHigh\n"
            "RULE b WHEN ABSENT(y) WITHIN 2d EMIT Quiet\n"
        )
        rules = parse_ruleset(text, NS)
        assert [r.name for r in rules] == ["a", "b"]
        assert rules[1].pattern == Absent("y")

    def test_duplicate_names_rejected(self):
        with pytest.raises(RuleSemanticError):
            parse_ruleset(
                "RULE a WHEN x > 1 WITHIN 1d EMIT Y\n"
                "RULE a WHEN x < 1 WITHIN 1d EMIT Z", NS,
            )

    def test_emit_must_not_be_canonical_property(self):
        with pytest.raises(RuleSemanticError):
            parse_rule("RULE x WHEN a > 1 WITHIN 1d EMIT ex:precipitation", NS)

    def test_severity_out_of_range(self):
        with pytest.raises(RuleSemanticError):
            parse_rule("RULE x WHEN a > 1 WITHIN 1d EMIT Y SEVERITY 1.5", NS)

    def test_default_severity(self):
        assert parse_rule("RULE x WHEN a > 1 WITHIN 1d EMIT Y", NS).severity_weight == 0.5

    def test_or_precedence(self):
        rule = parse_rule("RULE x WHEN a > 1 AND b > 2 OR c > 3 WITHIN 1d EMIT Y", NS)
        assert isinstance(rule.pattern, Or)
        assert isinstance(rule.pattern.children[0], And)

    def test_parenthesized_grouping(self):
        rule = parse_rule("RULE x WHEN a > 1 AND (b > 2 OR c > 3) WITHIN 1d EMIT Y", NS)
        assert isinstance(rule.pattern, And)
        assert isinstance(rule.pattern.children[1], Or)

    def test_durations_in_hours_and_minutes(self):
        rule = parse_rule("RULE x WHEN a > 1 WITHIN 12h STEP 30m EMIT Y", NS)
        assert rule.window.length == 12 * 3600
        assert rule.window.stride == 30 * 60

    def test_negative_constants(self):
        rule = parse_rule("RULE x WHEN SLOPE(a) < -0.25 WITHIN 1d EMIT Y", NS)
        assert rule.pattern == Compare("SLOPE", "a", "<", -0.25)


kinds = st.sampled_from(["A", "B", "IkDrierObservation", PRECIP, SOIL, TEMP])
comparators = st.sampled_from(["<", "<=", ">", ">=", "==", "!="])
constants = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False).map(
    lambda x: float(f"{x:.6g}")
)

leaf_patterns = st.one_of(
    st.builds(Compare, fn=st.none(), kind=kinds, cmp=comparators, constant=constants),
    st.builds(Compare, fn=st.sampled_from(["AVG", "MIN", "MAX", "SUM", "COUNT"]),
              kind=kinds, cmp=comparators, constant=constants),
    st.builds(Compare, fn=st.just("SLOPE"), kind=kinds, cmp=comparators, constant=constants),
    st.builds(Seq, first=kinds, second=kinds),
    st.builds(Absent, kind=kinds),
)

negated = st.one_of(
    leaf_patterns,
    st.builds(Not, st.one_of(
        st.builds(Compare, fn=st.none(), kind=kinds, cmp=comparators, constant=constants),
        st.builds(Compare, fn=st.sampled_from(["AVG", "COUNT"]),
                  kind=kinds, cmp=comparators, constant=constants),
        st.builds(Compare, fn=st.just("SLOPE"), kind=kinds, cmp=comparators, constant=constants),
    )),
)


def _compound(children_strategy):
    tuples = st.lists(children_strategy, min_size=2, max_size=3).map(tuple)
    return st.one_of(st.builds(And, tuples), st.builds(Or, tuples))


patterns = st.one_of(negated, _compound(negated), _compound(_compound(negated)))

windows = st.one_of(
    st.integers(min_value=1, max_value=60).map(
        lambda d: WindowSpec(d * 86400, d * 86400)
    ),
    st.tuples(
        st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=60)
    ).map(lambda lw: WindowSpec(max(lw) * 3600, min(lw) * 3600)),
)

rule_objects = st.builds(
    CepRule,
    name=st.sampled_from(["r1", "wet_watch", "dry_spell"]),
    window=windows,
    pattern=patterns,
    emit=st.sampled_from(["Alarm", "DrySpell", "IkDrierSignal"]),
    severity_weight=st.floats(min_value=0, max_value=1, allow_nan=False).map(
        lambda x: round(x, 3)
    ),
)


class TestPrinter:
    def test_example_round_trip(self):
        rule = parse_rule(DRY_SPELL, NS)
        assert parse_rule(rule_to_text(rule), NS) == rule

    @given(rule_objects)
    def test_print_parse_identity(self, rule):
        assert parse_rule(rule_to_text(rule), NS) == rule

    def test_iri_kinds_printed_in_angle_brackets(self):
        rule = parse_rule(DRY_SPELL, NS)
        text = rule_to_text(rule)
        assert f"<{PRECIP}>" in text


# strings over the DSL's alphabet: whole tokens, the characters they are made
# of, blanks, comments, newlines and characters no token starts with
DSL_PIECES = [
    "RULE", "WHEN", "WITHIN", "STEP", "EMIT", "AVG", "SEQ", "ex:p", "a_1",
    "<http://e/x>", "30d", "12h", "1.5", "-2", "1e3", "->", "<=", ">=", "==", "!=",
    "#", "\n", " ", "\t", *"aEdhm_:09.-+eE<>=!()/@",
]
dsl_strings = st.lists(st.sampled_from(DSL_PIECES), max_size=30).map("".join)

# a token can start at a character only in one of these ways
_TOKEN_START = re.compile(r"->|[<>()]|[=!]=|-?[0-9]|[A-Za-z_]")


class TestTokenizer:
    @given(dsl_strings)
    def test_tokens_sit_where_they_say(self, text):
        lines = text.split("\n")
        try:
            tokens = _tokenize(text)
        except RuleSyntaxError as err:
            rest = lines[err.line - 1][err.column - 1:]
            assert err.found == repr(rest[0])
            assert rest[0] not in " \t#"
            assert not _TOKEN_START.match(rest)
            return
        *body, eof = tokens
        assert (eof.kind, eof.line, eof.column) == ("EOF", len(lines), 1)
        assert [(t.line, t.column) for t in body] == sorted((t.line, t.column) for t in body)
        for number, line in enumerate(lines, start=1):
            pos = 0
            for token in (t for t in body if t.line == number):
                start = token.column - 1
                assert token.text and start >= pos
                assert line[start:start + len(token.text)] == token.text
                assert line[pos:start].strip(" \t") == ""
                pos = start + len(token.text)
            rest = line[pos:].lstrip(" \t")
            assert rest == "" or rest.startswith("#")

    def test_comment_runs_past_other_line_separators(self):
        with pytest.raises(RuleSyntaxError, match="expected keyword RULE, found end of input"):
            parse_ruleset("# note\x85RULE a WHEN x > 1 WITHIN 1d EMIT Y", NS)

    def test_carriage_return_ends_a_line(self):
        *body, eof = _tokenize("RULE a WHEN x > 1\rWITHIN 1d EMIT Y")
        assert [t.line for t in body] == [1] * 6 + [2] * 4
        assert (eof.line, eof.column) == (2, 1)
        assert _tokenize("RULE a\r\nWITHIN")[-1].line == 2

    def test_form_feed_outside_a_comment_is_no_token(self):
        with pytest.raises(RuleSyntaxError) as err:
            parse_ruleset("RULE a WHEN x > 1\x0cWITHIN 1d EMIT Y", NS)
        assert (err.value.line, err.value.column, err.value.found) == (1, 18, "'\\x0c'")
