"""Benchmark entry point for karmic.

    python3 bench/run.py --workload gauss-rate|holder-rate|cli-roundtrip \
        --seed N --seconds T --trace 0|1

Run from the root of a source checkout; karmic is imported from its
``src/`` directory, never from an installed copy.  Each workload runs in
processes of its own (see ``workloads.py``), with ``KARMIC_THREADS``
cleared.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
the end-to-end metrics ``setup_s``, ``rows_per_s`` and ``peak_rss_mb``, with
``--trace 1`` the per-layer metrics.  The line before it holds the machine
details and the tracing overhead, and ``bench/results/`` keeps a copy.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import LAYER_UNITS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: the measured seconds are split over this many fresh processes, each of
#: which also gives one set-up sample; pooling them keeps one process's hash
#: seed and memory layout, and a minute of a busy neighbour, from setting
#: the whole run
MEASURE_PROCESSES = 5
#: no worker may outlive this, so that a run ends within 180 s
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "rows_per_s": "rows/s", "peak_rss_mb": "MB"}


class WorkerError(RuntimeError):
    pass


def run_worker(workload: str, mode: str, seed: int, seconds: float, deadline: float,
               check: bool = True) -> dict:
    """Start one worker process, wait for it, and return its JSON result."""
    env = {k: v for k, v in os.environ.items() if k != "KARMIC_THREADS"}
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", workload,
           "--mode", mode, "--seed", str(seed), "--seconds", str(seconds), "--t0", repr(t0)]
    if not check:
        cmd.append("--no-check")
    timeout = max(1.0, deadline - time.monotonic())
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker for {workload} ran past {timeout:.0f} s") from exc
    if done.returncode != 0:
        raise WorkerError(f"{mode} worker for {workload} exited {done.returncode}:\n"
                          f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="karmic benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "karmic", "__init__.py")):
        print(f"no karmic sources under {os.path.join(ROOT, 'src')}; run from a checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    try:
        if args.trace:
            result = run_worker(args.workload, "trace", args.seed, args.seconds, deadline)
            metrics = {name: {"value": result["layers"][name], "unit": unit}
                       for name, unit in LAYER_UNITS.items()}
        else:
            parts = [run_worker(args.workload, "measure", args.seed,
                                args.seconds / MEASURE_PROCESSES, deadline,
                                check=i == MEASURE_PROCESSES - 1)
                     for i in range(MEASURE_PROCESSES)]
            setups = [part["setup_s"] for part in parts]
            rounds = [r for part in parts for r in part["rounds"]]
            result = dict(parts[-1], setup_samples=setups, rounds=rounds,
                          process_peak_rss_mb=[part["peak_rss_mb"] for part in parts],
                          attempted=sum(part["attempted"] for part in parts),
                          failed=sum(part["failed"] for part in parts))
            values = {"setup_s": statistics.median(setups),
                      "rows_per_s": sum(u for u, _ in rounds) / sum(d for _, d in rounds),
                      "peak_rss_mb": statistics.median(result["process_peak_rss_mb"])}
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END_UNITS.items()}
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return 1
    for failure in result["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    detail = {key: value for key, value in result.items() if key != "layers"}
    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, metrics=metrics)
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with open(os.path.join(HERE, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=2)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
