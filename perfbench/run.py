"""Run one workload of the benchmark and print its result.

    python3 perfbench/run.py --workload pai-csv --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``pai-csv``          ``repro mine-rulebook --input`` on a 100k-job PAI CSV
* ``supercloud-synth`` 12k SuperCloud jobs synthesised, mined, saved
* ``serve``            ``repro serve`` under a paced and a saturated load

With ``--trace 0`` the result carries the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` the per-layer ones (a layer the
workload does not run reads 0).  Progress and a readable summary go to
stderr; the last line of stdout is the result as one JSON object.  Each
run also leaves its full record (environment header, metrics, spans) in
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
import traceback
from pathlib import Path

from harness import (
    ROOT,
    SRC,
    WORK,
    check_metrics,
    declared_metrics,
    env_header,
    metric,
    say,
)

WORKLOADS = ("pai-csv", "supercloud-synth", "serve")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's self-tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def check_program() -> str | None:
    """Why the program cannot be benchmarked from this checkout, if it cannot."""
    if not (ROOT / "BENCHMARK.json").is_file():
        return f"no BENCHMARK.json in {ROOT}"
    if not (SRC / "repro" / "__init__.py").is_file():
        return f"no program source at {SRC / 'repro'}"
    sys.path.insert(0, str(SRC))
    import repro

    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        return f"repro imports from {repro.__file__}, not from {SRC}"
    return None


def measure(args: argparse.Namespace) -> dict:
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.workload == "serve":
            import serveload

            scale = serveload.SMOKE if args.smoke else serveload.ServeScale()
            metrics, outcome, details = serveload.run_serve(
                args.seed, args.seconds, bool(args.trace), work, scale
            )
        else:
            import batchload

            scale = batchload.SMOKE if args.smoke else batchload.BatchScale()
            metrics, outcome, details = batchload.run_batch(
                args.workload, args.seed, args.seconds, bool(args.trace), work, scale
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    declared = declared_metrics(bool(args.trace))
    if args.trace:
        # every per-layer metric is reported; one this workload's path
        # never reaches took no time and counted nothing
        details["not_on_path"] = sorted(
            m["name"] for m in declared if m["name"] not in metrics
        )
        for m in declared:
            metrics.setdefault(m["name"], metric(0.0, m["unit"]))
    check_metrics(metrics, declared)
    return {
        "result": {
            "correct": outcome.failed == 0,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": metrics,
        },
        "ok_share": outcome.ok_share,
        "failures": outcome.reasons,
        "details": details,
    }


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    problem = check_program()
    if problem is not None:
        say(f"perfbench: {problem}")
        return 2
    header = env_header()
    started = time.monotonic()
    try:
        record = measure(args)
    except Exception:  # a failed run prints no result, only why
        traceback.print_exc()
        return 1
    record["env"] = header
    record["workload"] = args.workload
    record["seed"] = args.seed
    record["trace"] = args.trace
    record["run_s"] = time.monotonic() - started
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(time.time())}.json"
    (results / name).write_text(json.dumps(record, indent=1))

    result = record["result"]
    say(f"{args.workload} seed={args.seed} trace={args.trace}: "
        f"ok_share={record['ok_share']:.4f} "
        f"({result['attempted'] - result['failed']}/{result['attempted']})"
        + (f" failures={record['failures']}" if record["failures"] else ""))
    for key, value in sorted(record["details"].items()):
        if key != "spans":
            say(f"  {key}: {value}")
    for key, value in result["metrics"].items():
        say(f"  {key:<44} {value['value']:>14.6g} {value['unit']}")
    print("# env " + json.dumps(header, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
