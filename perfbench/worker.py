"""One pass of one workload in a fresh process; prints one JSON line.

Usage (normally started by ``run.py``)::

    python3 perfbench/worker.py --workload storm --seed 2002 --mode timed \
        --out .bench_build/perfbench

Modes:

* ``setup``  -- import the library and generate the inputs, then stop;
* ``timed``  -- set up, run one pass with tracing off, check the outputs;
* ``traced`` -- the same pass with spans, call counters and the sampling
  profiler on; adds the per-layer metrics and writes the spans.

Set-up time is measured from before the first ``repro`` import, so every
pass pays the import, as a user's fresh process does.  Times are reported
both raw and in reference seconds (see ``probe.py``); the speed probe runs
from the first line on.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

from probe import SpeedProbe  # noqa: E402

PROBE = SpeedProbe()
PROBE.start()

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from tracing import Census, Tracer  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.RUN))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "traced"))
    parser.add_argument("--out", required=True, type=pathlib.Path)
    args = parser.parse_args()

    workloads.import_library()
    generate_start = time.perf_counter()
    inputs = workloads.generate(args.workload, args.seed)
    setup_end = time.perf_counter()
    result = {
        "setup_s": PROBE.reference_seconds(_START, setup_end),
        "raw_setup_s": setup_end - _START,
    }
    if args.mode == "setup":
        PROBE.stop()
        print(json.dumps(result))
        return

    census = Census()
    census.install()
    tracer = None
    if args.mode == "traced":
        tracer = Tracer(census)
        tracer.install()
        tracer.start_sampling(PROBE)
    start = time.perf_counter()
    outputs = workloads.run(args.workload, inputs, args.out)
    end = time.perf_counter()
    PROBE.stop()
    if tracer is not None:
        tracer.stop_sampling(PROBE)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = workloads.checks(args.workload, args.seed, outputs)
    failed = [name for name, ok in checks if not ok]
    for name in failed:
        print(f"check failed: {name}", file=sys.stderr)
    result.update(
        wall_s=PROBE.reference_seconds(start, end),
        raw_wall_s=end - start,
        peak_rss_mb=peak_rss_mb,
        deliveries=workloads.deliveries(args.workload, outputs, census),
        attempted=len(checks),
        failed=len(failed),
    )
    if tracer is not None:
        for what in tracer.missing:
            print(f"trace hook not installed: {what}", file=sys.stderr)
        metrics = tracer.metrics()
        metrics["workload.generate_s"] = setup_end - generate_start
        result["per_layer"] = metrics
        tracer.write_spans(
            args.out / f"spans-{args.workload}-seed{args.seed}.json",
            f"{args.workload}/seed{args.seed}/traced",
        )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
