#!/usr/bin/env python3
"""Repository benchmark: builds the harness from this checkout's sources,
runs one workload, checks its sinks against the sequential reference and
prints the metrics.

    python3 perfbench/run.py --workload sensors_open --seed 1 --seconds 10 --trace 0

Run from the repository root. Human-readable lines go first; the last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer metrics of a separate traced run (see perfbench/README.md).
Exits non-zero if the build fails or any phase's sinks differ.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402

WORKLOADS = ("sensors_open", "sensors_saturated", "paper_grain", "partitioned")

END_TO_END = {
    "phases_per_s": "1/s",
    "latency_p50_us": "us",
    "cpu_us_per_phase": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "latency_p99_us": "us",
    "core.scheduler.ns_per_pair": "ns",
    "core.scheduler.pairs_per_phase": "count",
    "core.engine.start_phase_us_p50": "us",
    "core.engine.start_phase_us_p99": "us",
    "core.engine.start_phase_blocked_ms": "ms",
    "core.engine.dispatch_delay_us_p50": "us",
    "core.engine.retire_delay_us_p50": "us",
    "core.engine.phase_self_us_p50": "us",
    "core.engine.nonmodule_ns_per_pair": "ns",
    "core.engine.bookkeeping_ns_per_pair": "ns",
    "core.dispatch.parks_per_phase": "count",
    "core.dispatch.steals_per_phase": "count",
    "model.on_phase_ns_p50": "ns",
    "model.busy_ms": "ms",
    "model.achieved_parallelism": "ratio",
    "baseline.sequential_phases_per_s": "1/s",
    "distrib.channel.send_us_p50": "us",
    "distrib.channel.send_us_p99": "us",
    "distrib.channel.send_blocked_ms": "ms",
    "distrib.channel.recv_wait_ms": "ms",
    "distrib.channel.frames_per_phase": "count",
    "distrib.channel.bytes_per_phase": "bytes",
    "distrib.wire.encode_ns_per_delivery": "ns",
    "distrib.wire.decode_ns_per_delivery": "ns",
    "distrib.wire.bytes_per_delivery": "bytes",
    "distrib.transport.remote_frac": "ratio",
    "distrib.transport.watermarks_per_phase": "count",
    "distrib.transport.phases_per_s": "1/s",
    "core.checkpoint.quiesce_us": "us",
    "core.checkpoint.snapshot_us": "us",
    "core.checkpoint.restore_us": "us",
    "core.checkpoint.image_bytes": "bytes",
    "core.checkpoint.restore_divergent_phases": "count",
    "setup.build_ms": "ms",
    "setup.executor_ms": "ms",
    "gen.lag_us_p99": "us",
    "host.effective_cores": "count",
    "host.cpu_ms": "ms",
    "trace.overhead_pct": "%",
}

HARNESS_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures (once) and builds the harness; returns its path."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "perfbench_harness"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            log("perfbench: build step failed:", " ".join(step))
            return None
    return build_dir / "perfbench_harness"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path(__file__).resolve().parent.parent
    build_dir = root / ".bench_build" / "perfbench"
    harness = build(root, build_dir)
    if harness is None:
        return 2

    out_dir = build_dir / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-{args.seed}-{args.trace}"
    result_path = out_dir / f"{stem}.json"
    spans_path = out_dir / f"{stem}.spans"
    command = [str(harness), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(result_path)]
    if args.trace:
        command += ["--spans", str(spans_path)]
    try:
        done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=HARNESS_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log("perfbench: harness timed out")
        return 3
    if done.returncode != 0:
        log(f"perfbench: harness exited with {done.returncode}")
        return 3

    with open(result_path) as f:
        raw = json.load(f)
    spans = benchlib.read_spans(spans_path) if args.trace else None
    summary = benchlib.summarize(raw, spans)

    wanted = PER_LAYER if args.trace else END_TO_END
    source = summary.per_layer if args.trace else summary.end_to_end
    for line in summary.lines:
        print(line)
    missing = [name for name in wanted if name not in source]
    if summary.correct and missing:
        log("perfbench: metrics missing:", ", ".join(missing))
        return 4
    metrics = {name: {"value": source[name], "unit": unit}
               for name, unit in wanted.items() if name in source}
    for name, entry in metrics.items():
        print(f"{name:42s} {entry['value']:14.4f} {entry['unit']}")
    print(json.dumps({"correct": summary.correct,
                      "attempted": summary.attempted,
                      "failed": summary.failed,
                      "metrics": metrics}))
    return 0 if summary.correct else 1


if __name__ == "__main__":
    sys.exit(main())
