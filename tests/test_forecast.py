"""Climatology, index arithmetic and bulletin assembly tests."""

import math
import random
import statistics
from datetime import datetime, timezone

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from semdrought.cep import Firing, window_aggregate
from semdrought.forecast import (
    BadWeightsError,
    DviWeights,
    InsufficientBaselineError,
    NoDataError,
    Severity,
    build_climatology,
    classify_severity,
    compute_dvi,
    empirical_percentile,
    make_bulletin,
    period_bounds,
    period_values,
    standardized_anomaly,
)
from semdrought.ik import IkSignal
from semdrought.model import CanonicalObservation, Namespaces

NS = Namespaces()
PRECIP = NS.iri("ex:precipitation")
SOIL = NS.iri("ex:soilMoisture")
TEMP = NS.iri("ex:airTemperature")

UNITS = {
    PRECIP: NS.iri("ex:millimetre"),
    SOIL: NS.iri("ex:percentVolumetric"),
    TEMP: NS.iri("ex:degreeCelsius"),
}


def ts(year: int, month: int, day: int = 15) -> int:
    return int(datetime(year, month, day, tzinfo=timezone.utc).timestamp())


def obs(prop, value: float, when: int) -> CanonicalObservation:
    sensor = NS.join("sensor/s1")
    return CanonicalObservation(
        sensor_id=sensor, property=prop, value=value, unit=UNITS[prop], timestamp=when,
        lat=-29.1, lon=26.2,
    )


class TestClimatology:
    def test_two_point_formula(self):
        history = [obs(PRECIP, 10.0, ts(2020, 1)), obs(PRECIP, 20.0, ts(2021, 1))]
        entry = build_climatology(history)[(PRECIP.value, 1)]
        assert entry.mean == 15.0
        assert entry.std == pytest.approx(math.sqrt(50.0), abs=1e-9)
        assert len(entry.samples) == 2
        assert not entry.usable          # n below the minimum

    def test_identical_samples_unusable(self):
        history = [obs(PRECIP, 5.0, ts(2016 + y, 3)) for y in range(6)]
        entry = build_climatology(history)[(PRECIP.value, 3)]
        assert entry.std == 0.0 and not entry.usable

    def test_synthetic_history_matches_two_pass_oracle(self):
        rng = random.Random(42)
        history = []
        for year in (2020, 2021):
            for month in range(1, 13):
                for day in (5, 15, 25):
                    history.append(obs(PRECIP, rng.uniform(0, 30), ts(year, month, day)))
        climatology = build_climatology(history, min_count=5)
        for month in range(1, 13):
            samples = [o.value for o in history
                       if datetime.fromtimestamp(o.timestamp, tz=timezone.utc).month == month]
            mean = sum(samples) / len(samples)
            var = sum((x - mean) ** 2 for x in samples) / (len(samples) - 1)
            entry = climatology[(PRECIP.value, month)]
            assert entry.mean == pytest.approx(mean, abs=1e-9)
            assert entry.std == pytest.approx(math.sqrt(var), abs=1e-9)
            assert entry.usable

    def test_a_deviation_past_the_float_range_is_unusable(self):
        history = [obs(TEMP, v, ts(2020 + y, 3)) for y, v in enumerate((1.7e308, -1.7e308) * 3)]
        entry = build_climatology(history)[(TEMP.value, 3)]
        assert (entry.mean, entry.std, entry.usable) == (0.0, math.inf, False)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1))
    def test_the_rules_avg_is_bit_equal_to_fmean_without_overflow(self, values):
        """Means are the rules' AVG: the bytes ``statistics.fmean`` gave."""
        try:
            math.fsum(values)
        except OverflowError:
            assume(False)
        assert window_aggregate(values, "AVG").hex() == statistics.fmean(values).hex()

    def test_samples_kept_sorted(self):
        history = [obs(SOIL, v, ts(2020, 7, d)) for d, v in ((1, 9.0), (2, 1.0), (3, 5.0))]
        entry = build_climatology(history)[(SOIL.value, 7)]
        assert entry.samples == [1.0, 5.0, 9.0]


class TestStandardizedAnomaly:
    def test_center(self):
        assert standardized_anomaly(40.0, 40.0, 11.0) == 0.0

    def test_unit_deviation(self):
        assert standardized_anomaly(51.0, 40.0, 11.0) == 1.0

    def test_direct_arithmetic(self):
        assert standardized_anomaly(12.3, 40.0, 11.0) == pytest.approx(
            -2.5181818181, abs=1e-9
        )

    def test_degenerate_std_rejected(self):
        with pytest.raises(InsufficientBaselineError):
            standardized_anomaly(1.0, 1.0, 0.0)

    @pytest.mark.parametrize("x, mean, std", [(math.inf, 3.0, 2.0), (1.7e308, -1.7e308, 1.0),
                                              (1e308, 0.0, 1e-10)])
    def test_an_anomaly_past_the_float_range_is_rejected(self, x, mean, std):
        with pytest.raises(InsufficientBaselineError):
            standardized_anomaly(x, mean, std)

    @given(
        x=st.floats(-1e3, 1e3), mu=st.floats(-1e3, 1e3),
        sigma=st.floats(0.01, 1e3), shift=st.floats(-1e3, 1e3),
        scale=st.floats(0.01, 1e3),
    )
    def test_affine_equivariance(self, x, mu, sigma, shift, scale):
        base = standardized_anomaly(x, mu, sigma)
        shifted = standardized_anomaly(x + shift, mu + shift, sigma)
        scaled = standardized_anomaly(x * scale, mu * scale, sigma * scale)
        assert shifted == pytest.approx(base, abs=1e-6)
        assert scaled == pytest.approx(base, rel=1e-9, abs=1e-6)


class TestEmpiricalPercentile:
    def test_below_all(self):
        assert empirical_percentile(0.0, [float(i) for i in range(1, 10)]) == 0.0

    def test_median_position(self):
        samples = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]
        assert empirical_percentile(5.0, samples) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(InsufficientBaselineError):
            empirical_percentile(1.0, [])

    @given(
        x=st.floats(-10, 10),
        samples=st.lists(st.floats(-10, 10), min_size=1, max_size=20),
    )
    def test_matches_count_oracle_exactly(self, x, samples):
        ordered = sorted(samples)
        count = sum(1 for s in ordered if s <= x)
        assert empirical_percentile(x, ordered) == count / (len(ordered) + 1)


class TestComputeDvi:
    def test_neutral_midpoint(self):
        assert compute_dvi(0.0, 0.5, 0.0, 0.0) == pytest.approx(0.25, abs=1e-12)

    def test_saturated_drought(self):
        assert compute_dvi(-2.0, 0.0, 2.0, 1.0) == 1.0

    def test_hand_arithmetic_case(self):
        dvi = compute_dvi(-1.0, 0.2, 0.5, 0.2727272727272727)
        expected = 0.4 * 0.5 + 0.3 * 0.8 + 0.1 * 0.25 + 0.2 * (1.2727272727272727 / 2)
        assert dvi == pytest.approx(expected, abs=1e-12)
        assert dvi == pytest.approx(0.5922727272, abs=1e-9)

    def test_bad_weights(self):
        with pytest.raises(BadWeightsError):
            DviWeights(0.4, 0.3, 0.1, 0.1)
        with pytest.raises(BadWeightsError):
            DviWeights(-0.1, 0.6, 0.3, 0.2)

    dvi_inputs = st.tuples(
        st.floats(-5, 5), st.floats(0, 1), st.floats(-5, 5), st.floats(-1, 1)
    )

    @given(dvi_inputs)
    def test_always_in_unit_interval(self, inputs):
        assert 0.0 <= compute_dvi(*inputs) <= 1.0

    @given(dvi_inputs, st.floats(0.01, 2.0))
    def test_monotone_in_each_coordinate(self, inputs, delta):
        zp, smp, zt, ik = inputs
        base = compute_dvi(zp, smp, zt, ik)
        assert compute_dvi(zp - delta, smp, zt, ik) >= base - 1e-12
        assert compute_dvi(zp, max(0.0, smp - min(delta, 1)), zt, ik) >= base - 1e-12
        assert compute_dvi(zp, smp, zt + delta, ik) >= base - 1e-12
        assert compute_dvi(zp, smp, zt, min(1.0, ik + min(delta, 1))) >= base - 1e-12


class TestClassifySeverity:
    @pytest.mark.parametrize("dvi,severity", [
        (0.0, Severity.NONE),
        (0.2499999, Severity.NONE),
        (0.25, Severity.WATCH),
        (0.4999999, Severity.WATCH),
        (0.5, Severity.WARNING),
        (0.5922727, Severity.WARNING),
        (0.7499999, Severity.WARNING),
        (0.75, Severity.SEVERE),
        (1.0, Severity.SEVERE),
    ])
    def test_left_closed_boundaries(self, dvi, severity):
        assert classify_severity(dvi) is severity

    @given(st.floats(0, 1), st.floats(0, 1))
    def test_monotone_and_total(self, a, b):
        low, high = min(a, b), max(a, b)
        assert classify_severity(low) <= classify_severity(high)

    def test_labels(self):
        assert Severity.NONE.label == "None"
        assert Severity.SEVERE.label == "Severe"


def neutral_world():
    """History and period data engineered so every index term is neutral."""
    history = []
    for i, year in enumerate(range(2016, 2022)):
        history.append(obs(PRECIP, 8.0 + i, ts(year, 6)))       # mean 10.5
        history.append(obs(TEMP, 18.0 + i, ts(year, 6)))        # mean 20.5
    for v in range(1, 10):
        history.append(obs(SOIL, float(v), ts(2016 + (v - 1) % 6, 6, 2)))
    period_obs = [
        obs(PRECIP, 10.5, ts(2023, 6)),
        obs(TEMP, 20.5, ts(2023, 6)),
        obs(SOIL, 5.0, ts(2023, 6)),
    ]
    return history, period_obs


def zero_signal(region, window):
    return IkSignal(0.0, 0)


def values(readings):
    return period_values("r1", "2023-06", readings, NS)


class TestMakeBulletin:
    def test_no_data_period(self):
        with pytest.raises(NoDataError, match="no observations for r1 in 2023-06"):
            period_values("r1", "2023-06", [], NS)

    def test_neutral_period_is_watch_at_exactly_quarter(self):
        history, period_obs = neutral_world()
        bulletin = make_bulletin(
            "r1", "2023-06", values(period_obs), build_climatology(history),
            zero_signal, [], NS,
        )
        assert bulletin.dvi == pytest.approx(0.25, abs=1e-9)
        assert bulletin.severity in (Severity.NONE, Severity.WATCH)
        assert bulletin.z_precip == pytest.approx(0.0, abs=1e-9)
        assert bulletin.sm_percentile == 0.5

    def test_insufficient_baseline(self):
        history, period_obs = neutral_world()
        thin = [o for o in history if o.property != TEMP][:4] + period_obs
        with pytest.raises(InsufficientBaselineError):
            make_bulletin("r1", "2023-06", values(period_obs),
                          build_climatology(thin), zero_signal, [], NS)

    def test_period_without_soil_moisture(self):
        _, period_obs = neutral_world()
        dry = [o for o in period_obs if o.property != SOIL]
        with pytest.raises(NoDataError, match="no soilMoisture observations for r1 in 2023-06"):
            period_values("r1", "2023-06", dry, NS)

    def test_month_without_soil_baseline(self):
        history, period_obs = neutral_world()
        no_soil = [o for o in history if o.property != SOIL]
        with pytest.raises(InsufficientBaselineError,
                           match="no soil-moisture baseline for month 6"):
            make_bulletin("r1", "2023-06", values(period_obs), build_climatology(no_soil),
                          zero_signal, [], NS)

    def test_evidence_filtered_to_period(self):
        history, period_obs = neutral_world()
        inside = Firing("dry", ts(2023, 6, 20), "DrySpell")
        outside = Firing("dry", ts(2023, 5, 20), "DrySpell")
        bulletin = make_bulletin(
            "r1", "2023-06", values(period_obs), build_climatology(history),
            zero_signal, [inside, outside], NS,
        )
        assert bulletin.evidence == (inside,)

    def test_ik_weight_zero_makes_bulletins_ik_invariant(self):
        history, period_obs = neutral_world()
        weights = DviWeights(0.5, 0.375, 0.125, 0.0)

        def loud_signal(region, window):
            return IkSignal(1.0, 7)

        kwargs = dict(ns=NS, weights=weights)
        a = make_bulletin("r1", "2023-06", values(period_obs),
                          build_climatology(history), zero_signal, [], **kwargs)
        b = make_bulletin("r1", "2023-06", values(period_obs),
                          build_climatology(history), loud_signal, [], **kwargs)
        assert a == b

    def test_deterministic_issue_instant(self):
        history, period_obs = neutral_world()
        bulletin = make_bulletin(
            "r1", "2023-06", values(period_obs), build_climatology(history),
            zero_signal, [], NS,
        )
        assert bulletin.issued_at == period_bounds("2023-06")[1]

    def test_json_contract_keys(self):
        history, period_obs = neutral_world()
        payload = make_bulletin(
            "r1", "2023-06", values(period_obs), build_climatology(history),
            zero_signal, [], NS,
        ).to_json_dict()
        assert set(payload) >= {
            "region", "period", "dvi", "severity", "z_precip",
            "sm_percentile", "z_temp", "ik", "evidence",
        }
        assert payload["severity"] == "Watch"
        assert payload["ik"] == {"value": 0.0, "support": 0}


class TestPeriodBounds:
    def test_month_span(self):
        start, end = period_bounds("2023-06")
        assert start == ts(2023, 6, 1) and end == ts(2023, 7, 1)

    def test_december_rollover(self):
        _, end = period_bounds("2023-12")
        assert end == ts(2024, 1, 1)

    def test_rejects_garbage(self):
        for bad in ("2023", "2023-13", "June", "2023-06-01"):
            with pytest.raises(ValueError):
                period_bounds(bad)
