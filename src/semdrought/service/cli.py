"""Command-line entry points.

Exit codes: 0 success, 1 usage or configuration error, 2 runtime error.
"""

import argparse
import json
import sys
from pathlib import Path

from ..cep.rules import parse_ruleset
from ..errors import SemDroughtError
from ..model import Namespaces
from .config import InvalidConfigError, NotFoundError, load_config
from .httpd import serve
from .pipeline import STORE_FILE, Pipeline

USAGE_EXIT = 1
RUNTIME_EXIT = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="semdrought",
                     description="drought early-warning middleware")
    commands = parser.add_subparsers(dest="command", required=True)

    serve_cmd = commands.add_parser("serve", help="run the dissemination service")
    serve_cmd.add_argument("--config", required=True)

    replay_cmd = commands.add_parser("replay", help="replay a dataset file")
    replay_cmd.add_argument("--config", required=True)
    replay_cmd.add_argument("--input", required=True)
    replay_cmd.add_argument("--speed", type=float, default=0.0,
                            help="time multiplier; 0 replays as fast as possible")

    forecast_cmd = commands.add_parser("forecast", help="print a bulletin as JSON")
    forecast_cmd.add_argument("--config", required=True)
    forecast_cmd.add_argument("--region", required=True)
    forecast_cmd.add_argument("--period", required=True, help="YYYY-MM")

    validate_cmd = commands.add_parser("validate-rules", help="check a rule file")
    validate_cmd.add_argument("--file", required=True)
    validate_cmd.add_argument("--base-iri", default=None)

    export_cmd = commands.add_parser("export", help="write the store as N-Triples")
    export_cmd.add_argument("--config", required=True)
    export_cmd.add_argument("--out", required=True)
    return parser


def _cmd_serve(args) -> int:
    pipeline = Pipeline(load_config(args.config))
    persistence = pipeline.config.persistence_dir
    if persistence is not None and (persistence / STORE_FILE).is_file():
        pipeline.restore(persistence)
    server = serve(pipeline)
    host, port = server.server_address[:2]
    print(f"listening on http://{host}:{port}", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def _cmd_replay(args) -> int:
    if args.speed < 0:
        raise _UsageError("--speed must be non-negative")
    pipeline = Pipeline(load_config(args.config))
    summary = pipeline.replay(args.input, speed=args.speed)
    print(json.dumps(summary.to_json_dict(), indent=2))
    return 0


def _cmd_forecast(args) -> int:
    pipeline = Pipeline(load_config(args.config))
    persistence = pipeline.config.persistence_dir
    if persistence is None:
        raise SemDroughtError("config has no persistence_dir; nothing to forecast from")
    pipeline.restore(persistence)
    bulletin = pipeline.bulletin(args.region, args.period)
    print(json.dumps(bulletin.to_json_dict(), indent=2))
    return 0


def _cmd_validate_rules(args) -> int:
    path = Path(args.file)
    if not path.is_file():
        print(f"rule file not found: {path}", file=sys.stderr)
        return USAGE_EXIT
    ns = Namespaces(args.base_iri) if args.base_iri else Namespaces()
    try:
        rules = parse_ruleset(path.read_text(encoding="utf-8"), ns)
    except SemDroughtError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return USAGE_EXIT
    print(f"ok: {len(rules)} rule(s)")
    return 0


def _cmd_export(args) -> int:
    pipeline = Pipeline(load_config(args.config))
    persistence = pipeline.config.persistence_dir
    if persistence is None:
        raise SemDroughtError("config has no persistence_dir; nothing to export")
    pipeline.restore(persistence)
    Path(args.out).write_text(pipeline.serialize(), encoding="utf-8")
    return 0


_COMMANDS = {
    "serve": _cmd_serve,
    "replay": _cmd_replay,
    "forecast": _cmd_forecast,
    "validate-rules": _cmd_validate_rules,
    "export": _cmd_export,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    try:
        return _COMMANDS[args.command](args)
    except (NotFoundError, InvalidConfigError, _UsageError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except SemDroughtError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_EXIT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_EXIT


if __name__ == "__main__":
    sys.exit(main())
