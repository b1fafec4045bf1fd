"""One timed replay in a fresh process: ``Pipeline(load_config(...))`` then
``Pipeline.replay``, which includes end-of-stream saturation and persistence.

Prints one JSON object: the replay summary, wall times, peak RSS and the
store's size afterwards. With ``--trace`` the layer wrappers are installed
first and the spans are written to that file at the end.

    python3 perfbench/replay_child.py --config CONFIG --input LINES [--trace SPANS]
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from semdrought.service.config import load_config  # noqa: E402
from semdrought.service.pipeline import Pipeline  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--input", required=True)
    parser.add_argument("--trace", default=None)
    args = parser.parse_args()

    recorder = None
    if args.trace:
        import spans
        recorder = spans.Recorder()
        spans.install(recorder)

    start = time.perf_counter()
    pipeline = Pipeline(load_config(args.config))
    setup_end = time.perf_counter()
    summary = pipeline.replay(args.input)
    end = time.perf_counter()
    store = pipeline.store
    result = {
        "summary": summary.to_json_dict(),
        "setup_s": setup_end - start,
        "replay_s": end - setup_end,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "triples": len(store),
        "inferred": sum(1 for t in store if store.is_inferred(t)),
    }
    if recorder is not None:
        recorder.write(Path(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
