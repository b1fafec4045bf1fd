"""Drought-vulnerability forecasting.

Builds per-property monthly climatology baselines from observation history,
standardizes the current month against them, folds in the indigenous-
knowledge signal, and classifies the resulting vulnerability index.
"""

import math
import re
import statistics
from bisect import bisect_right
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import IntEnum

from .cep.engine import Firing, window_aggregate
from .errors import SemDroughtError
from .ik import IkSignal
from .model import CanonicalObservation, Iri, Namespaces, format_utc_instant, month_of

MIN_BASELINE_COUNT = 5
DVI_PROPERTIES = ("ex:precipitation", "ex:soilMoisture", "ex:airTemperature")
DEFAULT_IK_WINDOW_SECONDS = 90 * 86400


class ForecastError(SemDroughtError):
    code = "ForecastError"


class BadWeightsError(ForecastError):
    code = "BadWeights"


class InsufficientBaselineError(ForecastError):
    code = "InsufficientBaseline"


class NoDataError(ForecastError):
    code = "NoData"


@dataclass(frozen=True)
class DviWeights:
    precipitation: float = 0.4
    soil_moisture: float = 0.3
    temperature: float = 0.1
    ik: float = 0.2

    def __post_init__(self):
        parts = (self.precipitation, self.soil_moisture, self.temperature, self.ik)
        if not all(0 <= w < math.inf for w in parts):     # also false for NaN
            raise BadWeightsError("weights must be finite and non-negative")
        if abs(sum(parts) - 1.0) > 1e-9:
            raise BadWeightsError(f"weights must sum to 1, got {sum(parts)}")


class Severity(IntEnum):
    NONE = 0
    WATCH = 1
    WARNING = 2
    SEVERE = 3

    @property
    def label(self) -> str:
        return self.name.capitalize() if self is not Severity.NONE else "None"


DEFAULT_SEVERITY_THRESHOLDS = (0.25, 0.5, 0.75)


@dataclass(frozen=True)
class ClimatologyEntry:
    mean: float
    std: float
    samples: list[float]    # sorted
    usable: bool


def build_climatology(
    history: list[CanonicalObservation],
    min_count: int = MIN_BASELINE_COUNT,
) -> dict[tuple[str, int], ClimatologyEntry]:
    """Entries keyed by (property IRI text, calendar month): sample mean and
    n-1 standard deviation; short, flat or overflowing entries are unusable."""
    groups: dict[tuple[str, int], list[float]] = {}
    for obs in history:
        groups.setdefault((obs.property.value, month_of(obs.timestamp)), []).append(obs.value)
    entries = {}
    for key, samples in groups.items():
        samples.sort()
        try:
            std = statistics.stdev(samples) if len(samples) >= 2 else 0.0
        except OverflowError:   # a deviation past the float range
            std = math.inf
        entries[key] = ClimatologyEntry(
            mean=window_aggregate(samples, "AVG"), std=std, samples=samples,
            usable=len(samples) >= min_count and 0.0 < std < math.inf,
        )
    return entries


def standardized_anomaly(x: float, mean: float, std: float) -> float:
    z = (x - mean) / std if std > 0 else math.nan
    if not math.isfinite(z):    # std not positive, or too small for x - mean
        raise InsufficientBaselineError(f"no finite anomaly of {x!r} with deviation {std!r}")
    return z


def empirical_percentile(x: float, sorted_samples: list[float]) -> float:
    """Weibull plotting position r/(n+1), r = samples <= x, no interpolation."""
    if not sorted_samples:
        raise InsufficientBaselineError("no baseline samples for percentile")
    rank = bisect_right(sorted_samples, x)
    return rank / (len(sorted_samples) + 1)


def _clamp01(u: float) -> float:
    return max(0.0, min(1.0, u))


def _anomaly_term(u: float) -> float:
    # a two-sigma anomaly saturates its term
    return _clamp01(u / 2.0)


def compute_dvi(
    z_precip: float,
    sm_percentile: float,
    z_temp: float,
    ik_value: float,
    weights: DviWeights = DviWeights(),
) -> float:
    if not 0.0 <= sm_percentile <= 1.0:
        raise ValueError(f"soil-moisture percentile out of [0, 1]: {sm_percentile}")
    if not -1.0 <= ik_value <= 1.0:
        raise ValueError(f"ik signal out of [-1, 1]: {ik_value}")
    return _clamp01(
        weights.precipitation * _anomaly_term(-z_precip)
        + weights.soil_moisture * (1.0 - sm_percentile)
        + weights.temperature * _anomaly_term(z_temp)
        + weights.ik * (ik_value + 1.0) / 2.0
    )


def classify_severity(
    dvi: float,
    thresholds: tuple[float, float, float] = DEFAULT_SEVERITY_THRESHOLDS,
) -> Severity:
    if not 0.0 <= dvi <= 1.0:
        raise ValueError(f"vulnerability index out of [0, 1]: {dvi}")
    watch, warning, severe = thresholds
    if dvi >= severe:
        return Severity.SEVERE
    if dvi >= warning:
        return Severity.WARNING
    if dvi >= watch:
        return Severity.WATCH
    return Severity.NONE


@dataclass(frozen=True)
class ForecastBulletin:
    region: str
    issued_at: int
    period: str                 # YYYY-MM
    z_precip: float
    sm_percentile: float
    z_temp: float
    dvi: float
    severity: Severity
    ik: IkSignal
    evidence: tuple[Firing, ...]
    summary: str

    def to_json_dict(self) -> dict:
        return {
            "region": self.region,
            "issued_at": format_utc_instant(self.issued_at),
            "period": self.period,
            "dvi": round(self.dvi, 6),
            "severity": self.severity.label,
            "z_precip": round(self.z_precip, 6),
            "sm_percentile": round(self.sm_percentile, 6),
            "z_temp": round(self.z_temp, 6),
            "ik": {"value": round(self.ik.value, 6), "support": self.ik.support},
            "evidence": [
                {"rule": f.rule, "at": format_utc_instant(f.window_end)}
                for f in self.evidence
            ],
            "summary": self.summary,
        }


def period_bounds(period: str) -> tuple[int, int]:
    """[start, end) epoch seconds of a period written exactly YYYY-MM."""
    try:
        if not re.fullmatch(r"[0-9]{4}-[0-9]{2}", period):
            raise ValueError
        year, month = int(period[:4]), int(period[5:])
        start = datetime(year, month, 1, tzinfo=timezone.utc)
        end = datetime(year + month // 12, month % 12 + 1, 1,     # the next month's first
                       tzinfo=timezone.utc)
    except (ValueError, TypeError):
        raise ValueError(f"not a YYYY-MM period: {period!r}")
    return int(start.timestamp()), int(end.timestamp())


def period_values(region: str, period: str, readings: list[CanonicalObservation],
                  ns: Namespaces) -> dict[str, list[float]]:
    """The values of each DVI property among a region period's ``readings``,
    keyed by property IRI text, in reading order; NoData if the period has
    no readings, or none of one of those properties."""
    if not readings:
        raise NoDataError(f"no observations for {region} in {period}")
    values = {ns.iri(name).value: [] for name in DVI_PROPERTIES}
    for obs in readings:
        values.get(obs.property.value, []).append(obs.value)
    for prop, series in values.items():
        if not series:
            raise NoDataError(f"no {Iri(prop).local_name()} observations for {region} in {period}")
    return values


def make_bulletin(
    region: str,
    period: str,
    values: dict[str, list[float]],
    climatology: dict[tuple[str, int], ClimatologyEntry],
    ik_signal_fn,
    firings: list[Firing],
    ns: Namespaces | None = None,
    weights: DviWeights = DviWeights(),
    thresholds: tuple[float, float, float] = DEFAULT_SEVERITY_THRESHOLDS,
    ik_window_seconds: int = DEFAULT_IK_WINDOW_SECONDS,
) -> ForecastBulletin:
    """Assemble the dissemination bulletin for one region and month.

    ``values`` are the period's, as ``period_values`` gives them;
    ``ik_signal_fn(region, window)`` supplies the indigenous-knowledge
    signal. The issue instant is pinned to the period end so output is a
    pure function of its inputs.
    """
    ns = ns or Namespaces()
    start, end = period_bounds(period)
    month = month_of(start)

    precip, soil, temp = (ns.iri(name) for name in DVI_PROPERTIES)
    precip_total = window_aggregate(values[precip.value], "SUM")
    soil_mean = window_aggregate(values[soil.value], "AVG")
    temp_mean = window_aggregate(values[temp.value], "AVG")

    def usable_entry(prop: Iri):
        entry = climatology.get((prop.value, month))
        if entry is None or not entry.usable:
            raise InsufficientBaselineError(
                f"baseline unusable for {prop.local_name()} in month {month}"
            )
        return entry

    precip_entry = usable_entry(precip)
    temp_entry = usable_entry(temp)
    soil_entry = climatology.get((soil.value, month))
    if soil_entry is None or not soil_entry.samples:
        raise InsufficientBaselineError(f"no soil-moisture baseline for month {month}")

    z_precip = standardized_anomaly(precip_total, precip_entry.mean, precip_entry.std)
    z_temp = standardized_anomaly(temp_mean, temp_entry.mean, temp_entry.std)
    sm_percentile = empirical_percentile(soil_mean, soil_entry.samples)

    if weights.ik == 0.0:
        signal = IkSignal(value=0.0, support=0)   # ablation: ik fully inert
    else:
        signal = ik_signal_fn(region, (end - ik_window_seconds, end))

    dvi = compute_dvi(z_precip, sm_percentile, z_temp, signal.value, weights)
    severity = classify_severity(dvi, thresholds)
    evidence = tuple(f for f in firings if start <= f.window_end < end)
    summary = (
        f"{region} {period}: DVI {dvi:.3f} ({severity.label}); "
        f"precip z {z_precip:+.2f}, soil pct {sm_percentile:.2f}, "
        f"temp z {z_temp:+.2f}, ik {signal.value:+.2f} over {signal.support} reports"
    )
    return ForecastBulletin(
        region=region, issued_at=end, period=period, z_precip=z_precip,
        sm_percentile=sm_percentile, z_temp=z_temp, dvi=dvi, severity=severity,
        ik=signal, evidence=evidence, summary=summary,
    )
