"""Seeded scaled-world generator for the benchmark.

A world is regions x cadence x years of readings from three sensors per
region (precipitation, soil moisture, air temperature), plus in-season
indigenous-knowledge (IK) reports and one deliberately unalignable line.
Every year each region gets one engineered dry spell: rain stops, soil
moisture falls steadily and temperature climbs past 40 C, so the drought
rules fire and their emitted events are re-injected.

The alignment table, indicators, scenario rules and line rendering come
from ``tests/scenario.py``, imported as is. The expected replay summary
(``parsed``, ``rejected``, ``firings``) is written to a manifest; firings
come from the ``oracle_firings`` re-scan oracle, run once per region and
cached by a hash of the oracle's source, the rules and the history because
it is quadratic in the stream length.
"""

import hashlib
import json
import math
import os
import random
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

import scenario
from scenario import ALIGNMENT, INDICATORS, RULES_TEXT, SENSORS, _render_line, _TERMS, iso
import test_cep_engine
from test_cep_engine import oracle_firings

from semdrought.cep.engine import Event
from semdrought.cep.rules import parse_ruleset
from semdrought.ik import DRIER_EVENT_KIND, WETTER_EVENT_KIND, compile_indicator_rules
from semdrought.model import Namespaces

START_YEAR = scenario.START_YEAR
DAY = 86400
IK_RULE_COUNT = 3
IK_RULE_WINDOW_DAYS = 90
SPELL_DAYS = 50

# About a dozen rules mixing threshold, aggregate, SLOPE, SEQ and ABSENT over
# long windows with short strides; the SEQ rules consume events that other
# rules emit, so emission and re-injection run on every dry spell.
DENSE_RULES_TEXT = RULES_TEXT + """\
RULE rain_deficit WHEN SUM(ex:precipitation) < 8 WITHIN 10d STEP 6h EMIT RainDeficit SEVERITY 0.3
RULE soil_drying WHEN SLOPE(ex:soilMoisture) < -0.2 WITHIN 14d STEP 6h EMIT SoilDrying SEVERITY 0.4
RULE warm_spell WHEN AVG(ex:airTemperature) > 28 WITHIN 20d STEP 6h EMIT WarmSpell SEVERITY 0.3
RULE soil_low WHEN MAX(ex:soilMoisture) < 16 WITHIN 15d STEP 6h EMIT SoilLow SEVERITY 0.5
RULE no_rain WHEN MAX(ex:precipitation) < 0.5 WITHIN 12d STEP 6h EMIT NoRain SEVERITY 0.4
RULE hot_days WHEN COUNT(ex:airTemperature) >= 20 AND MIN(ex:airTemperature) > 30 WITHIN 10d STEP 6h EMIT HotDays SEVERITY 0.3
RULE onset WHEN SEQ(RainDeficit -> SoilDrying) WITHIN 20d STEP 6h EMIT DroughtOnset SEVERITY 0.7
RULE deepening WHEN SEQ(DroughtOnset -> SoilLow) WITHIN 25d STEP 6h EMIT DroughtDeepening SEVERITY 0.8
RULE recovery WHEN ABSENT(NoRain) AND MIN(ex:soilMoisture) > 22 WITHIN 20d STEP 6h EMIT Recovered SEVERITY 0.1
RULE wet_spell WHEN AVG(ex:precipitation) > 6 AND NOT SLOPE(ex:soilMoisture) < 0 WITHIN 10d STEP 6h EMIT WetSpell SEVERITY 0.1
"""


@dataclass(frozen=True)
class Shape:
    """Size and rule set of a generated world.

    The history is everything before the last ``tail_days`` days; the tail
    is those days' sensor readings, which the live stage posts.
    ``baseline_years`` 0 makes the baseline window the whole history.
    """

    regions: int
    cadence_hours: int
    years: int
    tail_days: int
    baseline_years: int
    rules: str = RULES_TEXT


@dataclass(frozen=True)
class World:
    """Paths of one generated world and its expected replay summary."""

    config: Path
    history: Path           # replay input: every line before the tail
    tail: list              # tail readings as POST /observations bodies, in time order
    periods: list           # (region, period) pairs a forecast is served for
    manifest: dict


def _ts(year: int, month: int, day: int, hour: int = 0) -> int:
    return int(datetime(year, month, day, hour, tzinfo=timezone.utc).timestamp())


def _month(ts: int) -> int:
    return datetime.fromtimestamp(ts, tz=timezone.utc).month


def _seasonal(mean: float, amplitude: float, ts: int) -> float:
    phase = 2 * math.pi * ((ts / DAY) % 365.25) / 365.25
    return mean + amplitude * math.cos(phase)


def _sensor(region: str, prop: str) -> str:
    raw = next(s for s, p in SENSORS.items() if p == prop)
    return f"{region}_{raw}"


def _drier_indicator(month: int) -> str:
    for item in INDICATORS:
        if item["valence"] == "drier" and item["season"] != list(range(1, 13)) \
                and month in item["season"]:
            return item["id"]
    return "ants_nest_high"


def _readings(rng: random.Random, shape: Shape, region_index: int):
    """(ts, property, value) per sensor reading and (ts, indicator) IK reports."""
    step = shape.cadence_hours * 3600
    readings = []
    ik_reports = []
    soil = 25.0
    for year in range(START_YEAR, START_YEAR + shape.years):
        # one dry spell a year on fixed dates, so every seed asks the same work
        spell_start = _ts(year, 3, 10) + 7 * region_index * DAY
        spell_end = spell_start + SPELL_DAYS * DAY
        ts = _ts(year, 1, 1) + region_index * 3600 % step
        end = _ts(year + 1, 1, 1)
        next_ik = spell_start + 2 * DAY
        while ts < end:
            dry = spell_start <= ts < spell_end
            if dry:
                precip = round(rng.uniform(0.0, 0.3), 4)
                soil = max(2.0, soil - rng.uniform(0.2, 0.5) * shape.cadence_hours / 24)
                temp = round(_seasonal(33.0, 3.0, ts) + 6.0 * (ts - spell_start)
                             / (spell_end - spell_start) + rng.gauss(0.0, 0.8), 4)
            else:
                precip = round(max(0.0, rng.gauss(_seasonal(5.0, 2.0, ts), 1.5)), 4)
                soil = min(60.0, max(2.0, soil + (25.0 - soil) * 0.2
                                     * shape.cadence_hours / 24 + rng.gauss(0.0, 0.3)))
                temp = round(_seasonal(22.0, 5.0, ts) + rng.gauss(0.0, 2.0), 4)
            readings.append((ts, "precipitation", precip))
            readings.append((ts, "soil_moisture", round(soil, 4)))
            readings.append((ts, "temperature", temp))
            if dry and ts >= next_ik:
                ik_ts = ts + 6 * 3600
                ik_reports.append((ik_ts, _drier_indicator(_month(ik_ts))))
                next_ik = ts + rng.randint(4, 8) * DAY
            ts += step
        # wetter reports after the spell, in the wet months
        for month in (11, 12):
            ik_reports.append((_ts(year, month, 10 + region_index, 6),
                               "peulwane_birds_flocking"))
    return readings, ik_reports


def _region_stream(ns, readings, ik_reports) -> list[Event]:
    kind_of = {"precipitation": ns.expand("ex:precipitation"),
               "soil_moisture": ns.expand("ex:soilMoisture"),
               "temperature": ns.expand("ex:airTemperature")}
    weight_of = {i["id"]: i["weight"] for i in INDICATORS}
    valence_of = {i["id"]: i["valence"] for i in INDICATORS}
    stream = [Event(kind=kind_of[prop], timestamp=ts, value=value)
              for ts, prop, value in readings]
    stream.extend(
        Event(kind=DRIER_EVENT_KIND if valence_of[ind] == "drier" else WETTER_EVENT_KIND,
              timestamp=ts, value=weight_of[ind])
        for ts, ind in ik_reports)
    stream.sort(key=lambda e: e.timestamp)
    return stream


def _rules(shape: Shape, ns):
    rules = parse_ruleset(shape.rules, ns)
    existing = {r.name for r in rules}
    rules.extend(r for r in compile_indicator_rules(
        (), k=IK_RULE_COUNT, window_seconds=IK_RULE_WINDOW_DAYS * DAY, ns=ns)
        if r.name not in existing)
    return rules


def _oracle_count(shape: Shape, per_region, cut: int) -> int:
    """Re-scan oracle firings summed over regions, events before ``cut`` only."""
    ns = Namespaces()
    rules = _rules(shape, ns)
    total = 0
    for readings, ik_reports in per_region:
        readings = [r for r in readings if r[0] < cut]
        ik_reports = [r for r in ik_reports if r[0] < cut]
        total += len(oracle_firings(rules, _region_stream(ns, readings, ik_reports)))
    return total


def generate(target: Path, seed: int, shape: Shape, cache_dir: Path | None = None) -> World:
    """Write config, history, tail and manifest for one world under ``target``."""
    target = Path(target)
    target.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    regions = [f"r{i + 1}" for i in range(shape.regions)]
    per_region = [_readings(rng, shape, i) for i in range(shape.regions)]
    world_end = _ts(START_YEAR + shape.years, 1, 1)
    cut = world_end - shape.tail_days * DAY

    alignment = {"terms": ALIGNMENT["terms"], "units": ALIGNMENT["units"], "sensors": {}}
    for i, region in enumerate(regions):
        for raw, station in ALIGNMENT["sensors"].items():
            alignment["sensors"][f"{region}_{raw}"] = {
                "iri": f"ex:sensor/{region}_{raw}",
                "lat": round(station["lat"] - 0.5 * i, 4),
                "lon": station["lon"],
            }

    lines = []          # (ts, tiebreak, line) of the history
    tail = []           # (ts, json document)
    formats = ("csv", "json", "xml")
    counter = 0
    for region, (readings, ik_reports) in zip(regions, per_region):
        for ts, prop, value in readings:
            term, unit = _TERMS[prop][counter % 3]
            sensor = _sensor(region, prop)
            station = alignment["sensors"][sensor]
            fmt = "json" if ts >= cut else formats[counter % 3]
            counter += 1
            line = _render_line(fmt, sensor, term, value, unit, ts,
                                station["lat"], station["lon"])
            if ts >= cut:
                tail.append((ts, line.partition("|")[2]))
            else:
                lines.append((ts, 0, line))
        for ts, indicator in ik_reports:
            if ts < cut:
                doc = json.dumps({"indicator_id": indicator, "timestamp": iso(ts),
                                  "region": region, "confidence": 1.0})
                lines.append((ts, 1, f"ik|{doc}"))
    parsed = len(lines)
    # one deliberately unalignable line keeps the rejection path counted
    bad_ts = cut - 12 * 3600
    lines.append((bad_ts, 2, f"csv|{regions[0]}_s1,frogcount,3,mm,{iso(bad_ts)},-29.12,26.21"))
    lines.sort(key=lambda item: (item[0], item[1]))
    tail.sort(key=lambda item: item[0])

    (target / "alignment.json").write_text(json.dumps(alignment, indent=1), encoding="utf-8")
    (target / "indicators.json").write_text(json.dumps(INDICATORS, indent=1), encoding="utf-8")
    (target / "detection.rules").write_text(shape.rules, encoding="utf-8")
    baseline_end = (_ts(START_YEAR + shape.baseline_years, 1, 1) if shape.baseline_years
                    else cut)
    config = {
        "alignment_table": "alignment.json",
        "indicators": "indicators.json",
        "rules": "detection.rules",
        "regions": {region: [_sensor(region, p) for p in SENSORS.values()]
                    for region in regions},
        "baseline": {"start": iso(_ts(START_YEAR, 1, 1)), "end": iso(baseline_end)},
        "persistence_dir": "state",
        "ik_rule_count": IK_RULE_COUNT,
        "ik_rule_window_days": IK_RULE_WINDOW_DAYS,
        "http": {"host": "127.0.0.1", "port": 0},
    }
    config_path = target / "config.json"
    config_path.write_text(json.dumps(config, indent=1), encoding="utf-8")

    history_text = "".join(line + "\n" for _, _, line in lines)
    history_path = target / "history.txt"
    history_path.write_text(history_text, encoding="utf-8")
    key = hashlib.sha256("\0".join((
        Path(test_cep_engine.__file__).read_text(encoding="utf-8"),
        f"{IK_RULE_COUNT} {IK_RULE_WINDOW_DAYS}", shape.rules, history_text,
    )).encode("utf-8")).hexdigest()[:24]
    firings = _cached(cache_dir, key, lambda: _oracle_count(shape, per_region, cut))
    manifest = {
        "seed": seed,
        "shape": asdict(shape),
        "lines": len(lines),
        "parsed": parsed,
        "rejected": {"UnknownTerm": 1},
        "firings": firings,
        "tail_posts": len(tail),
    }
    (target / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return World(config=config_path, history=history_path,
                 tail=[doc for _, doc in tail], periods=_periods(regions, cut),
                 manifest=manifest)


def _periods(regions: list[str], cut: int) -> list[tuple[str, str]]:
    """Every (region, month) of the history whose month ends before the cut."""
    periods = []
    year, month = START_YEAR, 1
    while True:
        year_after, month_after = (year, month + 1) if month < 12 else (year + 1, 1)
        if _ts(year_after, month_after, 1) > cut:
            return periods
        periods.extend((region, f"{year:04d}-{month:02d}") for region in regions)
        year, month = year_after, month_after


def _cached(cache_dir: Path | None, key: str, compute):
    if cache_dir is None:
        return compute()
    path = Path(cache_dir) / f"oracle-{key}.json"
    if path.is_file():
        return json.loads(path.read_text(encoding="utf-8"))
    value = compute()
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_suffix(f".{os.getpid()}.tmp")
    temp.write_text(json.dumps(value), encoding="utf-8")
    temp.replace(path)
    return value
