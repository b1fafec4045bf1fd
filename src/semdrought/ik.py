"""Indigenous-knowledge drought indicators.

Indicator definitions (species behavior, flowering, presence/absence signs)
are configuration; observations against them aggregate into a bounded,
signed dryness signal and compile into count-based detection rules.
"""

import json
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum

from .errors import SemDroughtError
from .cep.engine import Event
from .cep.rules import CepRule, duration_text, parse_rule
from .model import Namespaces, json_number, month_of

DRIER_EVENT_KIND = "IkDrierObservation"
WETTER_EVENT_KIND = "IkWetterObservation"
IK_RULE_SEVERITY = 0.4


class IkError(SemDroughtError):
    code = "IkError"


class DuplicateIdError(IkError):
    code = "DuplicateId"


class InvalidWeightError(IkError):
    code = "InvalidWeight"


class UnknownIndicatorError(IkError):
    code = "UnknownIndicator"


class OutOfSeasonError(IkError):
    code = "OutOfSeason"


class BadConfidenceError(IkError):
    code = "BadConfidence"


class IndicatorKind(Enum):
    PRESENCE = "presence"
    ABSENCE = "absence"
    BEHAVIOR = "behavior"
    FLOWERING = "flowering"


class Valence(Enum):
    DRIER = 1
    WETTER = -1


@dataclass(frozen=True)
class IkIndicator:
    id: str
    phenomenon: str
    kind: IndicatorKind
    valence: Valence
    weight: float
    season: frozenset[int]     # calendar months, 1..12
    region: str

    def __post_init__(self):
        if not isinstance(self.id, str):
            raise TypeError(f"indicator id must be a string, not {type(self.id).__name__}")
        if not self.season or not all(type(m) is int and 1 <= m <= 12 for m in self.season):
            raise ValueError("season must be a non-empty set of integer months 1..12")
        object.__setattr__(self, "season", frozenset(self.season))


@dataclass(frozen=True)
class IkObservation:
    indicator_id: str
    timestamp: int
    region: str
    confidence: float


@dataclass(frozen=True)
class IkSignal:
    value: float     # [-1, +1], +1 strongly drier
    support: int

    def __post_init__(self):
        if self.support == 0 and self.value != 0.0:
            raise ValueError("a signal without support must be zero")


class IkRegistry:
    """Indicator definitions plus the append-only observation log."""

    def __init__(self, indicators: Iterable[IkIndicator] = ()):
        self._indicators: dict[str, IkIndicator] = {}
        self._log: list[IkObservation] = []
        for indicator in indicators:
            self.register_indicator(indicator)

    def register_indicator(self, indicator: IkIndicator) -> None:
        if not 0.0 < indicator.weight <= 1.0:
            raise InvalidWeightError(
                f"indicator {indicator.id}: weight must lie in (0, 1]"
            )
        if indicator.id in self._indicators:
            raise DuplicateIdError(f"indicator id already registered: {indicator.id}")
        self._indicators[indicator.id] = indicator

    @property
    def indicators(self) -> tuple[IkIndicator, ...]:
        return tuple(self._indicators.values())

    @property
    def observations(self) -> tuple[IkObservation, ...]:
        return tuple(self._log)

    def event_for(self, obs: IkObservation) -> Event:
        """The observation's stream event for the engine; raises for an
        observation the log must not hold, and logs nothing."""
        indicator = self._indicators.get(obs.indicator_id)
        if indicator is None:
            raise UnknownIndicatorError(f"unknown indicator: {obs.indicator_id}")
        if not 0.0 <= obs.confidence <= 1.0:
            raise BadConfidenceError(f"confidence out of [0, 1]: {obs.confidence}")
        month = month_of(obs.timestamp)
        if month not in indicator.season:
            raise OutOfSeasonError(
                f"indicator {indicator.id} is out of season in month {month}"
            )
        kind = (DRIER_EVENT_KIND if indicator.valence is Valence.DRIER
                else WETTER_EVENT_KIND)
        return Event(kind=kind, timestamp=obs.timestamp, value=indicator.weight * obs.confidence)

    def record_observation(self, obs: IkObservation) -> None:
        """Log an observation that ``event_for`` accepted."""
        self._log.append(obs)

    def signal(self, region: str, window: tuple[int, int]) -> IkSignal:
        """Weighted dryness ratio over in-window (start, end] observations."""
        start, end = window
        in_window = [obs for obs in self._log
                     if obs.region == region and start < obs.timestamp <= end]
        top = max((obs.confidence for obs in in_window), default=0.0)
        if top == 0.0:
            return IkSignal(value=0.0, support=len(in_window))
        numerator = 0.0
        denominator = 0.0
        for obs in in_window:
            indicator = self._indicators[obs.indicator_id]
            # confidences relative to the largest, so that tiny ones do not
            # underflow to a zero mass; the ratio is unchanged
            mass = indicator.weight * (obs.confidence / top)
            numerator += indicator.valence.value * mass
            denominator += mass
        value = numerator / denominator
        return IkSignal(value=max(-1.0, min(1.0, value)), support=len(in_window))

    @classmethod
    def from_json(cls, document: str) -> "IkRegistry":
        """Load indicator definitions from a JSON array; bad JSON raises ValueError."""
        payload = json.loads(document)
        if not isinstance(payload, list):
            raise ValueError("indicator file must hold a JSON array")
        return cls(IkIndicator(
            id=item["id"],
            phenomenon=item.get("phenomenon", ""),
            kind=IndicatorKind(item["kind"]),
            valence=Valence[item["valence"].upper()],
            weight=json_number(item["weight"], "weight"),
            season=item["season"],
            region=item.get("region", ""),
        ) for item in payload)


def compile_indicator_rules(
    indicators: tuple[IkIndicator, ...],
    k: int,
    window_seconds: int,
    ns: Namespaces | None = None,
) -> list[CepRule]:
    """Count-threshold rules over the drier and wetter observation streams,
    the same for any ``indicators``. The texts are fed back through the rule
    parser so the compiled form is guaranteed to round-trip."""
    if k < 1:
        raise ValueError("observation count threshold must be at least 1")
    if window_seconds <= 0 or window_seconds % 60:
        raise ValueError("window must be a positive whole number of minutes")
    window = duration_text(window_seconds)
    texts = [
        f"RULE ik_drier WHEN COUNT({DRIER_EVENT_KIND}) >= {k} "
        f"WITHIN {window} EMIT IkDrierSignal SEVERITY {IK_RULE_SEVERITY}",
        f"RULE ik_wetter WHEN COUNT({WETTER_EVENT_KIND}) >= {k} "
        f"WITHIN {window} EMIT IkWetterSignal SEVERITY {IK_RULE_SEVERITY}",
    ]
    return [parse_rule(text, ns) for text in texts]
