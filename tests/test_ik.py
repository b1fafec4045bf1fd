"""Indicator registry and dryness-signal tests."""

import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from semdrought.cep import parse_rule, rule_to_text
from semdrought.ik import (
    BadConfidenceError,
    DuplicateIdError,
    IkIndicator,
    IkObservation,
    IkRegistry,
    IndicatorKind,
    InvalidWeightError,
    OutOfSeasonError,
    UnknownIndicatorError,
    Valence,
    compile_indicator_rules,
)
from semdrought.model import Namespaces

NS = Namespaces()

SEPTEMBER = 1663804800      # 2022-09-22


def indicator(id="lehota_frogs_silent", valence=Valence.DRIER, weight=0.8,
              season=(9, 10, 11), region="free_state") -> IkIndicator:
    return IkIndicator(
        id=id,
        phenomenon="lehota frogs not calling",
        kind=IndicatorKind.ABSENCE,
        valence=valence,
        weight=weight,
        season=frozenset(season),
        region=region,
    )


def observation(id="lehota_frogs_silent", ts=SEPTEMBER, region="free_state",
                confidence=1.0) -> IkObservation:
    return IkObservation(indicator_id=id, timestamp=ts, region=region,
                         confidence=confidence)


class TestRegistry:
    def test_register_and_query(self):
        registry = IkRegistry()
        registry.register_indicator(indicator())
        assert registry.indicators[0].weight == 0.8

    def test_duplicate_id(self):
        registry = IkRegistry()
        registry.register_indicator(indicator())
        with pytest.raises(DuplicateIdError):
            registry.register_indicator(indicator())

    def test_zero_weight_rejected(self):
        registry = IkRegistry()
        with pytest.raises(InvalidWeightError):
            registry.register_indicator(indicator(weight=0.0))

    def test_overweight_rejected(self):
        registry = IkRegistry()
        with pytest.raises(InvalidWeightError):
            registry.register_indicator(indicator(weight=1.2))

    def test_load_from_json(self):
        doc = json.dumps([{
            "id": "lehota_frogs_silent",
            "phenomenon": "lehota frogs not calling",
            "kind": "absence",
            "valence": "drier",
            "weight": 0.8,
            "season": [9, 10, 11],
            "region": "free_state",
        }])
        registry = IkRegistry.from_json(doc)
        (ind,) = registry.indicators
        assert ind.valence is Valence.DRIER
        assert ind.season == frozenset({9, 10, 11})


class TestRecordObservation:
    """The checks a report passes before it is logged, all in ``event_for``."""

    def setup_method(self):
        self.registry = IkRegistry()
        self.registry.register_indicator(indicator())
        self.registry.register_indicator(
            indicator(id="peulwane_low", valence=Valence.WETTER, weight=0.5)
        )

    def test_drier_event_value_is_weight_times_confidence(self):
        event = self.registry.event_for(observation(confidence=1.0))
        assert event.kind == "IkDrierObservation"
        assert event.value == pytest.approx(0.8)

    def test_wetter_event(self):
        event = self.registry.event_for(
            observation(id="peulwane_low", confidence=0.5)
        )
        assert event.kind == "IkWetterObservation"
        assert event.value == pytest.approx(0.25)

    def test_out_of_season(self):
        january = 1673000000
        with pytest.raises(OutOfSeasonError):
            self.registry.event_for(observation(ts=january))

    def test_unknown_indicator(self):
        with pytest.raises(UnknownIndicatorError):
            self.registry.event_for(observation(id="nope"))

    def test_bad_confidence(self):
        with pytest.raises(BadConfidenceError):
            self.registry.event_for(observation(confidence=1.5))
        with pytest.raises(BadConfidenceError):
            self.registry.event_for(observation(confidence=-0.1))

    def test_rejected_event_is_not_logged(self):
        september_1969 = -9590400
        with pytest.raises(ValueError):
            self.registry.event_for(observation(ts=september_1969))
        assert self.registry.observations == ()


WINDOW = (SEPTEMBER - 45 * 86400, SEPTEMBER + 45 * 86400)


def build_registry(entries):
    """entries: list of (valence, weight, confidence)."""
    registry = IkRegistry()
    for i, (valence, weight, confidence) in enumerate(entries):
        registry.register_indicator(
            indicator(id=f"ind{i}", valence=valence, weight=weight)
        )
        registry.record_observation(observation(id=f"ind{i}", confidence=confidence))
    return registry


class TestSignal:
    def test_single_drier_is_plus_one(self):
        registry = build_registry([(Valence.DRIER, 1.0, 1.0)])
        signal = registry.signal("free_state", WINDOW)
        assert signal.value == 1.0 and signal.support == 1

    def test_balanced_pair_is_zero(self):
        registry = build_registry([
            (Valence.DRIER, 0.5, 1.0), (Valence.WETTER, 0.5, 1.0)
        ])
        signal = registry.signal("free_state", WINDOW)
        assert signal.value == pytest.approx(0.0) and signal.support == 2

    def test_weighted_mean_hand_oracle(self):
        # (0.8 + 0.25 - 0.6) / (0.8 + 0.25 + 0.6) = 0.272727...
        registry = build_registry([
            (Valence.DRIER, 0.8, 1.0),
            (Valence.DRIER, 0.5, 0.5),
            (Valence.WETTER, 0.6, 1.0),
        ])
        signal = registry.signal("free_state", WINDOW)
        assert signal.value == pytest.approx(0.45 / 1.65, abs=1e-12)
        assert signal.value == pytest.approx(0.2727272727, abs=1e-9)
        assert signal.support == 3

    def test_empty_window_is_zero_signal(self):
        from semdrought.ik import IkSignal
        registry = build_registry([(Valence.DRIER, 1.0, 1.0)])
        assert registry.signal("free_state", (0, 10)) == IkSignal(0.0, 0)

    def test_region_filtering(self):
        registry = build_registry([(Valence.DRIER, 1.0, 1.0)])
        assert registry.signal("elsewhere", WINDOW).support == 0

    def test_window_boundaries_half_open(self):
        registry = build_registry([(Valence.DRIER, 1.0, 1.0)])
        at_end = registry.signal("free_state", (0, SEPTEMBER))
        at_start = registry.signal("free_state", (SEPTEMBER, SEPTEMBER + 100))
        assert at_end.support == 1      # (start, end] includes end
        assert at_start.support == 0    # start itself excluded

    entries_strategy = st.lists(
        st.tuples(
            st.sampled_from([Valence.DRIER, Valence.WETTER]),
            st.floats(min_value=0.01, max_value=1.0),
            st.floats(min_value=0.0, max_value=1.0),
        ),
        min_size=0, max_size=12,
    )

    @given(entries_strategy)
    def test_signal_bounded(self, entries):
        signal = build_registry(entries).signal("free_state", WINDOW)
        assert -1.0 <= signal.value <= 1.0
        assert signal.support == len(entries)

    @given(entries_strategy)
    def test_valence_flip_negates(self, entries):
        flipped = [
            (Valence.WETTER if v is Valence.DRIER else Valence.DRIER, w, c)
            for v, w, c in entries
        ]
        a = build_registry(entries).signal("free_state", WINDOW)
        b = build_registry(flipped).signal("free_state", WINDOW)
        assert a.value == pytest.approx(-b.value, abs=1e-12)

    @given(entries_strategy, st.floats(min_value=0.1, max_value=1.0))
    @example([(Valence.DRIER, 1.0, 5e-324)], 0.5)   # weight * confidence underflows
    def test_uniform_weight_rescaling_invariant(self, entries, factor):
        scaled = [(v, w * factor, c) for v, w, c in entries]
        a = build_registry(entries).signal("free_state", WINDOW)
        b = build_registry(scaled).signal("free_state", WINDOW)
        assert a.value == pytest.approx(b.value, abs=1e-9)


class TestCompileRules:
    def test_drier_rule_text(self):
        rules = compile_indicator_rules((), k=3, window_seconds=90 * 86400, ns=NS)
        assert rule_to_text(rules[0]) == (
            "RULE ik_drier WHEN COUNT(IkDrierObservation) >= 3 "
            "WITHIN 90d EMIT IkDrierSignal SEVERITY 0.4"
        )

    def test_round_trip_through_parser(self):
        for k in (1, 3, 10):
            for window in (86400, 90 * 86400, 3600):
                for rule in compile_indicator_rules((), k, window, NS):
                    assert parse_rule(rule_to_text(rule), NS) == rule

    def test_emits_both_valences(self):
        rules = compile_indicator_rules((), k=2, window_seconds=86400, ns=NS)
        assert [r.name for r in rules] == ["ik_drier", "ik_wetter"]
        assert rules[1].emit == "IkWetterSignal"

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            compile_indicator_rules((), k=0, window_seconds=86400, ns=NS)
