"""One measured backsolve run, in a fresh process.

    python3 perfbench/child.py --config CFG --result OUT.json
        [--csv RESULTS.csv] [--trace]

Times `import backsolve` plus `parse_config` (set-up), then
`backsolve.run(config, csv)`, and writes those times, the peak resident
memory and, with --trace, the spans and counts to OUT.json. Without --csv
it stops after set-up. BLAS thread caps come from the environment, which
the parent sets before this process starts.
"""

from __future__ import annotations

import argparse
import json
import resource
import time


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--csv", default=None)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    with open(args.config, encoding="utf-8") as fh:
        text = fh.read()

    t0 = time.perf_counter()
    import backsolve

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
    config = backsolve.parse_config(text)
    setup_s = time.perf_counter() - t0

    out = {"setup_s": setup_s}
    if args.csv is not None:
        t1 = time.perf_counter()
        backsolve.run(config, args.csv)
        out["run_s"] = time.perf_counter() - t1
    # ru_maxrss is in KiB on Linux
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        out["trace"] = tracer.dump()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
