"""Complex event processing: rule DSL and windowed evaluation engine."""

from .engine import (
    DegenerateSlopeError,
    EmptyWindowError,
    Engine,
    Event,
    Firing,
    OutOfOrderError,
    slope,
    window_aggregate,
)
from .rules import (
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

__all__ = [
    "Absent", "And", "CepRule", "Compare", "DegenerateSlopeError",
    "EmptyWindowError", "Engine", "Event", "Firing", "Not", "Or",
    "OutOfOrderError", "RuleSemanticError", "RuleSyntaxError", "Seq",
    "WindowSpec", "parse_rule", "parse_ruleset", "rule_to_text", "slope",
    "window_aggregate",
]
