"""Service configuration loading and validation.

All paths in the file resolve relative to the file's own directory, so a
config directory can be moved wholesale.
"""

import json
from dataclasses import dataclass
from pathlib import Path

from ..errors import SemDroughtError
from ..forecast import DEFAULT_SEVERITY_THRESHOLDS, BadWeightsError, DviWeights
from ..model import DEFAULT_BASE_IRI, parse_utc_instant


class NotFoundError(SemDroughtError):
    code = "NotFound"


class InvalidConfigError(SemDroughtError):
    code = "InvalidConfig"

    def __init__(self, fieldname: str, reason: str):
        super().__init__(f"config field {fieldname}: {reason}")
        self.fieldname = fieldname
        self.reason = reason


@dataclass(frozen=True)
class Config:
    base_iri: str
    alignment_table_path: Path
    indicators_path: Path
    rules_path: Path
    regions: dict[str, tuple[str, ...]]        # region id -> raw sensor ids
    weights: DviWeights = DviWeights()
    severity_thresholds: tuple[float, float, float] = DEFAULT_SEVERITY_THRESHOLDS
    http_host: str = "127.0.0.1"
    http_port: int = 8080
    persistence_dir: Path | None = None
    baseline_window: tuple[int, int] | None = None   # [start, end) epoch seconds
    ik_window_days: int = 90
    min_baseline_count: int = 5
    compile_ik_rules: bool = True
    ik_rule_count: int = 3
    ik_rule_window_days: int = 90


def load_config(path: str | Path) -> Config:
    """Read, default and validate a service config file."""
    path = Path(path)
    if not path.is_file():
        raise NotFoundError(f"config file not found: {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InvalidConfigError("(file)", f"bad JSON: {exc.msg}")
    if not isinstance(payload, dict):
        raise InvalidConfigError("(file)", "config must be a JSON object")
    base = path.parent

    def nonempty_string(name: str, value) -> str:
        if not isinstance(value, str) or not value:
            raise InvalidConfigError(name, "a non-empty string is required")
        return value

    def file_field(name: str) -> Path:
        resolved = (base / nonempty_string(name, payload.get(name))).resolve()
        if not resolved.is_file():
            raise NotFoundError(f"{name} file not found: {resolved}")
        return resolved

    alignment = file_field("alignment_table")
    indicators = file_field("indicators")
    rules = file_field("rules")

    regions_raw = payload.get("regions")
    if not isinstance(regions_raw, dict) or not regions_raw:
        raise InvalidConfigError("regions", "a non-empty region map is required")
    regions: dict[str, tuple[str, ...]] = {}
    for region, sensors in regions_raw.items():
        if (not isinstance(sensors, list) or not sensors
                or not all(isinstance(s, str) and s for s in sensors)):
            raise InvalidConfigError("regions", f"{region}: expected sensor id list")
        regions[region] = tuple(sensors)

    weights_raw = payload.get("weights", {})
    if not isinstance(weights_raw, dict):
        raise InvalidConfigError("weights", "expected an object")
    try:
        weights = DviWeights(
            precipitation=float(weights_raw.get("precipitation", 0.4)),
            soil_moisture=float(weights_raw.get("soil_moisture", 0.3)),
            temperature=float(weights_raw.get("temperature", 0.1)),
            ik=float(weights_raw.get("ik", 0.2)),
        )
    except (BadWeightsError, ValueError, TypeError) as exc:
        raise InvalidConfigError("weights", str(exc))

    thresholds_raw = payload.get("severity_thresholds", list(DEFAULT_SEVERITY_THRESHOLDS))
    if (not isinstance(thresholds_raw, list) or len(thresholds_raw) != 3
            or not all(isinstance(t, (int, float)) for t in thresholds_raw)):
        raise InvalidConfigError("severity_thresholds", "expected three numbers")
    thresholds = tuple(float(t) for t in thresholds_raw)
    if not 0 <= thresholds[0] < thresholds[1] < thresholds[2] <= 1:
        raise InvalidConfigError("severity_thresholds", "must ascend within [0, 1]")

    http_raw = payload.get("http", {})
    if not isinstance(http_raw, dict):
        raise InvalidConfigError("http", "expected an object")
    port = http_raw.get("port", 8080)
    if type(port) is not int or not 0 <= port <= 65535:
        raise InvalidConfigError("http.port", "expected an integer in 0-65535")

    persistence = payload.get("persistence_dir")
    persistence_dir = None
    if persistence is not None:
        persistence_dir = (base / nonempty_string("persistence_dir", persistence)).resolve()

    baseline_raw = payload.get("baseline")
    baseline = None
    if baseline_raw is not None:
        try:
            baseline = (parse_utc_instant(baseline_raw["start"]),
                        parse_utc_instant(baseline_raw["end"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidConfigError("baseline", f"expected start/end instants: {exc}")
        if baseline[0] >= baseline[1]:
            raise InvalidConfigError("baseline", "start must precede end")

    def positive_int(name: str, default: int) -> int:
        value = payload.get(name, default)
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise InvalidConfigError(name, "expected a positive integer")
        return value

    return Config(
        base_iri=nonempty_string("base_iri", payload.get("base_iri", DEFAULT_BASE_IRI)),
        alignment_table_path=alignment,
        indicators_path=indicators,
        rules_path=rules,
        regions=regions,
        weights=weights,
        severity_thresholds=thresholds,
        http_host=nonempty_string("http.host", http_raw.get("host", "127.0.0.1")),
        http_port=port,
        persistence_dir=persistence_dir,
        baseline_window=baseline,
        ik_window_days=positive_int("ik_window_days", 90),
        min_baseline_count=positive_int("min_baseline_count", 5),
        compile_ik_rules=bool(payload.get("compile_ik_rules", True)),
        ik_rule_count=positive_int("ik_rule_count", 3),
        ik_rule_window_days=positive_int("ik_rule_window_days", 90),
    )
