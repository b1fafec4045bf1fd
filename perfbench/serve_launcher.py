"""Start ``semdrought serve`` in this process, optionally traced.

Installs the layer wrappers when ``--trace`` is given, then calls
``semdrought.service.cli.main(["serve", "--config", CONFIG])``. SIGINT
stops the server; the launcher then writes its peak RSS (and the spans)
to the ``--report`` file.

    python3 perfbench/serve_launcher.py --config CONFIG --report OUT [--trace SPANS]
"""

import argparse
import json
import resource
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from semdrought.service import cli  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", default=None)
    args = parser.parse_args()

    # SIGINT must stop the server even if this process inherited it ignored,
    # as background jobs of a non-interactive shell do
    signal.signal(signal.SIGINT, signal.default_int_handler)
    recorder = None
    if args.trace:
        import spans
        recorder = spans.Recorder()
        spans.install(recorder)
    code = cli.main(["serve", "--config", args.config])
    if recorder is not None:
        recorder.write(Path(args.trace))
    report = {"exit": code,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    Path(args.report).write_text(json.dumps(report), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
