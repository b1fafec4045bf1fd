"""Service configuration: the one place that reads and checks it.

``load_config`` reads the JSON config file and the three files it names:
the alignment table, the indigenous-knowledge indicator definitions and
the detection rule file. It parses them against the configured base IRI,
adds the count rules compiled from the indicators, and returns them parsed
in a ``Config``. A missing file raises NotFoundError. Any other fault
raises InvalidConfigError naming the field: a value of the wrong type or
range, a damaged sibling file, a sensor listed under two regions, two
sensors whose observation IRIs collide, or a key the loader does not read,
at the top level or inside ``weights``, ``http`` or ``baseline``.

All paths in the file resolve relative to the file's own directory, so a
config directory can be moved wholesale.
"""

import json
from dataclasses import dataclass, fields
from pathlib import Path

from ..cep.rules import CepRule, parse_ruleset
from ..errors import SemDroughtError
from ..forecast import (DEFAULT_IK_WINDOW_SECONDS, DEFAULT_SEVERITY_THRESHOLDS,
                        MIN_BASELINE_COUNT, BadWeightsError, DviWeights)
from ..ik import IkIndicator, IkRegistry, compile_indicator_rules
from ..ingest import AlignmentTable
from ..model import (DEFAULT_BASE_IRI, ModelError, Namespaces, Vocabulary, json_number,
                     observation_iri_prefix, parse_utc_instant)


class NotFoundError(SemDroughtError):
    code = "NotFound"


class InvalidConfigError(SemDroughtError):
    code = "InvalidConfig"

    def __init__(self, fieldname: str, reason: str):
        super().__init__(f"config field {fieldname}: {reason}")
        self.fieldname = fieldname


@dataclass(frozen=True)
class Config:
    table: AlignmentTable                      # its vocabulary follows the base IRI
    indicators: tuple[IkIndicator, ...]
    rules: tuple[CepRule, ...]                 # the rule file's, then the compiled IK rules
    regions: dict[str, tuple[str, ...]]        # region id -> raw sensor ids
    sensor_regions: dict[str, str]             # sensor IRI -> region id
    weights: DviWeights
    severity_thresholds: tuple[float, float, float]
    http_host: str
    http_port: int
    persistence_dir: Path | None
    baseline_window: tuple[int, int] | None    # [start, end) epoch seconds
    ik_window_days: int
    min_baseline_count: int


def load_config(path: str | Path) -> Config:
    """Read, default and validate a service config file and the files it names."""
    path = Path(path)
    if not path.is_file():
        raise NotFoundError(f"config file not found: {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:   # bad JSON, or an integer of more digits than int() reads
        raise InvalidConfigError("(file)", f"bad JSON: {exc}")
    if not isinstance(payload, dict):
        raise InvalidConfigError("(file)", "config must be a JSON object")
    base = path.parent
    # each field, nested ones too, is popped as it is read, so what is left was never read

    def nonempty_string(name: str, value) -> str:
        if not isinstance(value, str) or not value:
            raise InvalidConfigError(name, "a non-empty string is required")
        return value

    def unread(section: dict, prefix: str = "") -> None:
        if section:
            raise InvalidConfigError(prefix + min(section), "not a config key")

    def positive_int(name: str, default: int) -> int:
        value = payload.pop(name, default)
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise InvalidConfigError(name, "expected a positive integer")
        return value

    def parsed_file(name: str, parse):
        """``parse`` of the text of the file that field ``name`` names."""
        resolved = (base / nonempty_string(name, payload.pop(name, None))).resolve()
        if not resolved.is_file():
            raise NotFoundError(f"{name} file not found: {resolved}")
        # a damaged file raises one of these: not UTF-8 or not JSON, a value of
        # the wrong JSON type, a missing key, or a value out of range
        try:
            return parse(resolved.read_text(encoding="utf-8"))
        except (AttributeError, KeyError, TypeError, ValueError, OverflowError,
                SemDroughtError) as exc:
            raise InvalidConfigError(name, f"{resolved.name}: {type(exc).__name__}: {exc}")

    try:
        ns = Namespaces(nonempty_string("base_iri", payload.pop("base_iri", DEFAULT_BASE_IRI)))
    except ModelError as exc:
        raise InvalidConfigError("base_iri", str(exc))
    vocabulary = Vocabulary(ns)
    table = parsed_file("alignment_table", lambda text: AlignmentTable.from_json(text, vocabulary))
    indicators = parsed_file("indicators", lambda text: IkRegistry.from_json(text).indicators)
    rules = parsed_file("rules", lambda text: parse_ruleset(text, ns))
    named = {r.name for r in rules}
    rules.extend(r for r in compile_indicator_rules(
        indicators,
        k=positive_int("ik_rule_count", 3),
        window_seconds=positive_int("ik_rule_window_days", 90) * 86400,
        ns=ns,
    ) if r.name not in named)

    regions_raw = payload.pop("regions", None)
    if not isinstance(regions_raw, dict) or not regions_raw:
        raise InvalidConfigError("regions", "a non-empty region map is required")
    regions: dict[str, tuple[str, ...]] = {}
    sensor_regions: dict[str, str] = {}
    minted: dict[str, str] = {}    # observation IRI prefix -> sensor IRI
    for region, sensors in regions_raw.items():
        if (not isinstance(sensors, list) or not sensors
                or not all(isinstance(s, str) and s for s in sensors)):
            raise InvalidConfigError("regions", f"{region}: expected sensor id list")
        regions[region] = tuple(sensors)
        for raw_id in sensors:
            iri = table.sensor(raw_id).iri
            if sensor_regions.setdefault(iri.value, region) != region:
                raise InvalidConfigError("regions", f"sensor {raw_id} is listed under "
                                         f"{sensor_regions[iri.value]} and {region}")
            prefix = observation_iri_prefix(ns, iri)
            if minted.setdefault(prefix, iri.value) != iri.value:
                raise InvalidConfigError("regions", f"sensors {minted[prefix]} and {iri.value} "
                                         f"mint the same observation IRIs, {prefix}<seconds>")

    weights_raw = payload.pop("weights", {})
    if not isinstance(weights_raw, dict):
        raise InvalidConfigError("weights", "expected an object")
    try:
        weights = DviWeights(**{f.name: json_number(weights_raw.pop(f.name, f.default), f.name)
                                for f in fields(DviWeights)})
    except (BadWeightsError, TypeError, OverflowError) as exc:
        raise InvalidConfigError("weights", str(exc))
    unread(weights_raw, "weights.")

    thresholds_raw = payload.pop("severity_thresholds", list(DEFAULT_SEVERITY_THRESHOLDS))
    try:
        thresholds = tuple(json_number(t, "threshold") for t in thresholds_raw)
    except (TypeError, OverflowError):
        thresholds = ()
    if len(thresholds) != 3:     # also for a map, whose keys are strings
        raise InvalidConfigError("severity_thresholds", "expected three numbers")
    if not 0 <= thresholds[0] < thresholds[1] < thresholds[2] <= 1:
        raise InvalidConfigError("severity_thresholds", "must ascend within [0, 1]")

    http_raw = payload.pop("http", {})
    if not isinstance(http_raw, dict):
        raise InvalidConfigError("http", "expected an object")
    port = http_raw.pop("port", 8080)
    if type(port) is not int or not 0 <= port <= 65535:
        raise InvalidConfigError("http.port", "expected an integer in 0-65535")
    host = nonempty_string("http.host", http_raw.pop("host", "127.0.0.1"))
    unread(http_raw, "http.")

    persistence = payload.pop("persistence_dir", None)
    persistence_dir = None
    if persistence is not None:
        persistence_dir = (base / nonempty_string("persistence_dir", persistence)).resolve()

    baseline_raw = payload.pop("baseline", None)
    baseline = None
    if baseline_raw is not None:
        try:
            baseline = (parse_utc_instant(baseline_raw.pop("start")),
                        parse_utc_instant(baseline_raw.pop("end")))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise InvalidConfigError("baseline", f"expected start/end instants: {exc}")
        unread(baseline_raw, "baseline.")
        if baseline[0] >= baseline[1]:
            raise InvalidConfigError("baseline", "start must precede end")

    config = Config(
        table=table,
        indicators=indicators,
        rules=tuple(rules),
        regions=regions,
        sensor_regions=sensor_regions,
        weights=weights,
        severity_thresholds=thresholds,
        http_host=host,
        http_port=port,
        persistence_dir=persistence_dir,
        baseline_window=baseline,
        ik_window_days=positive_int("ik_window_days", DEFAULT_IK_WINDOW_SECONDS // 86400),
        min_baseline_count=positive_int("min_baseline_count", MIN_BASELINE_COUNT),
    )
    unread(payload)
    return config
