"""Turns the harness's raw measurements into the benchmark's metrics.

The harness (harness.cpp) writes per-repetition timestamps, counters and,
on a traced run, a span file. Everything here is plain arithmetic over
those, so it is unit-tested without building the engine (test_benchlib.py).
"""

import math
import struct
from statistics import median

# Percentiles considered when reporting "the highest percentile that still
# has at least ten samples beyond it".
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99, 99.999)
MIN_SAMPLES_BEYOND = 10

# phases_per_s is this percentile of the run's per-repetition rates, not
# their median. On a shared host a neighbour can take the cores for tens of
# seconds, longer than a repetition, sometimes for most of a run; the median
# then measures the neighbour. The fast end of ~30 one-second repetitions is
# what the code sustains when the host gives it its cores.
RATE_PERCENTILE = 90.0

SPAN_FORMAT = "<BBHIQqq"
SPAN_BYTES = struct.calcsize(SPAN_FORMAT)
SPAN_NAMES = {
    1: "model.on_phase",
    2: "core.engine.start_phase",
    3: "distrib.channel.send",
    4: "distrib.channel.recv",
    5: "core.checkpoint.quiesce",
    6: "core.checkpoint.snapshot",
    7: "core.checkpoint.restore",
    8: "core.scheduler.start_phase",
    9: "core.scheduler.finish_execution_batch",
}
RUN_MAIN, RUN_COMPLEMENT = 1, 2  # RunId in harness.cpp
MODULE, START_PHASE, SEND, RECV = 1, 2, 3, 4


def _rank(n, q):
    # The epsilon keeps float error (99.9 * 10000 / 100 > 9990) from
    # pushing an exact rank up by one.
    return max(1, math.ceil(q * n / 100.0 - 1e-9))


def percentile(values, q):
    """Nearest-rank percentile of `values` (q in (0, 100])."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), q) - 1]


def samples_beyond(n, q):
    return n - _rank(n, q)


def tail_percentile(n):
    """Highest ladder percentile with at least ten of n samples beyond it,
    or None when even the median lacks them."""
    best = None
    for q in PERCENTILE_LADDER:
        if samples_beyond(n, q) >= MIN_SAMPLES_BEYOND:
            best = q
    return best


def describe_tail(values, unit):
    """'p50=.. p99.9=.. us (n=..)': the median, the highest supported
    percentile and the sample count."""
    n = len(values)
    q = tail_percentile(n)
    if q is None:
        return f"n={n}: too few samples for a percentile"
    return (f"p50={percentile(values, 50):.1f} "
            f"p{q:g}={percentile(values, q):.1f} {unit} (n={n})")


def completion_times(phases, completions):
    """Open-loop accounting, step 1: when each phase 1..phases was first
    covered by a completion. `completions` holds (completed_through, t)
    pairs as the engine reported them, possibly out of order across
    threads; a value v covers every phase <= v."""
    done = [None] * (phases + 1)
    covered = 0
    for value, t in sorted(completions, key=lambda c: (c[1], c[0])):
        while covered < min(value, phases):
            covered += 1
            done[covered] = t
    if covered < phases:
        raise ValueError(f"only {covered} of {phases} phases completed")
    return done[1:]


def phase_latencies_ns(due, completions):
    """Open-loop accounting, step 2: latency of each phase from its due
    time (not its issue time) to the first completion covering it, so a
    stall also charges the phases queued behind it."""
    done = completion_times(len(due), completions)
    return [d - s for s, d in zip(due, done)]


def generator_lag_ns(due, issue):
    """How late the generator issued each phase relative to its due time."""
    return [i - d for d, i in zip(due, issue)]


def failed_frac(failed, attempted):
    if attempted <= 0:
        raise ValueError("no phases attempted")
    return failed / attempted


def read_spans(path):
    with open(path, "rb") as f:
        data = f.read()
    usable = len(data) - len(data) % SPAN_BYTES
    return list(struct.iter_unpack(SPAN_FORMAT, data[:usable]))


def covered_ns(start, end, children):
    """Length of [start, end] covered by the union of child intervals."""
    total = 0
    cursor = start
    for c0, c1 in sorted(children):
        c0, c1 = max(c0, cursor), min(c1, end)
        if c1 > c0:
            total += c1 - c0
            cursor = c1
    return total


def self_times_ns(parents, children_of):
    """Self time of each parent span: its duration minus the part of it its
    child spans cover. `parents` maps key -> (start, end); children_of maps
    key -> [(start, end), ...]."""
    return {k: (e - s) - covered_ns(s, e, children_of.get(k, []))
            for k, (s, e) in parents.items()}


class Summary:
    """The run's metrics plus the human-readable lines explaining them."""

    def __init__(self):
        self.end_to_end = {}
        self.per_layer = {}
        self.lines = []
        self.correct = True
        self.attempted = 0
        self.failed = 0


def _rep_rate(rep):
    return rep["phases"] * 1e9 / (rep["end_ns"] - rep["first_start_ns"])


def _rep_latencies(rep):
    return phase_latencies_ns(rep["due_ns"], rep["completions"])


def summarize(raw, spans=None):
    """Computes every metric from a harness result (and, when traced, its
    spans)."""
    s = Summary()
    reps = raw["reps"]
    measured = [r for r in reps if r["label"] == "measure"]
    gate = [r for r in reps if r["label"] != "checkpoint_restore"]
    s.attempted = sum(r["phases"] - r["sink_from"] + 1 for r in gate)
    s.failed = sum(r["failed"] for r in gate)
    s.correct = s.failed == 0 and len(measured) > 0
    for r in reps:
        if r["mismatch"] and r["label"] != "checkpoint_restore":
            s.lines.append(f"MISMATCH in {r['label']}: {r['mismatch']}")
    if not measured or any(r["error"] for r in measured):
        s.correct = False
        return s

    lat = [_rep_latencies(r) for r in measured]
    e2e = s.end_to_end
    e2e["phases_per_s"] = percentile([_rep_rate(r) for r in measured],
                                     RATE_PERCENTILE)
    e2e["latency_p50_us"] = median([percentile(v, 50) for v in lat]) / 1e3
    e2e["cpu_us_per_phase"] = median(
        [(r["cpu_ns"] - r["wait_cpu_ns"]) / r["phases"] / 1e3
         for r in measured])
    setups = raw["setups"]
    e2e["setup_s"] = median([b + e for b, e in setups]) / 1e9
    e2e["peak_rss_mb"] = raw["peak_rss_kb"] / 1024.0

    host = [h["cpu_ns"] / h["wall_ns"] for h in raw["host"]]
    cores = median(host)
    threads = raw["worker_threads"]
    label = "oversubscribed" if cores < 0.9 * threads else "calibrated"
    s.lines.append(
        f"workload {raw['workload']} seed {raw['seed']}: {len(measured)} "
        f"repetitions of {measured[0]['phases']} phases, "
        f"{'open loop at %g phases/s' % raw['rate'] if raw['rate'] else 'closed loop'}, "
        f"{threads} worker threads, grain {raw['grain_iterations']} iterations")
    s.lines.append(
        f"host: effective cores {cores:.2f} (min {min(host):.2f}, max "
        f"{max(host):.2f}) for {threads} threads -> {label}; process CPU "
        f"{raw['run_cpu_ns'] / 1e6:.0f} ms over {raw['run_wall_ns'] / 1e9:.1f} s; "
        f"{raw['hw_concurrency']} CPUs listed")
    pooled = [x / 1e3 for v in lat for x in v]
    s.lines.append("latency (pooled over repetitions): "
                   + describe_tail(pooled, "us"))
    ref = raw["reference"]
    s.lines.append(
        f"reference: {ref['sink_records']} sink records in "
        f"{ref['phases_with_sinks']} of {ref['phases']} phases")
    s.lines.append(
        f"failed_frac = {failed_frac(s.failed, s.attempted):.6f} "
        f"({s.failed} of {s.attempted} phases differ from the sequential "
        f"reference or ran in a run that threw)")
    # p99 swings several-fold between runs on a shared host, beyond any
    # bound an end-to-end metric may carry, so it is reported per layer.
    s.per_layer["latency_p99_us"] = median(
        [percentile(v, 99) for v in lat]) / 1e3
    s.per_layer["host.effective_cores"] = cores
    s.per_layer["host.cpu_ms"] = raw["run_cpu_ns"] / 1e6
    if raw["trace"] and spans is not None and s.correct:
        _per_layer(raw, spans, measured, lat, s)
    return s


def _per_layer(raw, spans, measured, lat, s):
    m = s.per_layer
    reps = {r["label"]: r for r in raw["reps"]}
    engine_kind = raw["kind"] == "engine"
    main = reps["traced"]
    engine_rep = main if engine_kind else reps["complement_engine"]
    engine_run = RUN_MAIN if engine_kind else RUN_COMPLEMENT
    transport_rep = reps["complement_transport"] if engine_kind else main
    transport_run = RUN_COMPLEMENT if engine_kind else RUN_MAIN

    by = {}
    for kind, run, _pad, vertex, phase, t0, t1 in spans:
        by.setdefault((kind, run), []).append((vertex, phase, t0, t1))

    def durations(kind, run):
        return [t1 - t0 for _v, _p, t0, t1 in by.get((kind, run), [])]

    # core.scheduler: single-threaded replay.
    replay = raw["replay"]
    m["core.scheduler.ns_per_pair"] = replay["scheduler_ns"] / replay["pairs"]
    m["core.scheduler.pairs_per_phase"] = replay["pairs"] / replay["phases"]

    # core.engine: the environment and the engine seams.
    starts = durations(START_PHASE, engine_run)
    m["core.engine.start_phase_us_p50"] = percentile(starts, 50) / 1e3
    m["core.engine.start_phase_us_p99"] = percentile(starts, 99) / 1e3
    m["core.engine.start_phase_blocked_ms"] = sum(starts) / 1e6
    first, last = {}, {}
    children = {}
    for _v, p, t0, t1 in by.get((MODULE, engine_run), []):
        first[p] = min(first.get(p, t0), t0)
        last[p] = max(last.get(p, t1), t1)
        children.setdefault(p, []).append((t0, t1))
    for _v, p, t0, t1 in by.get((START_PHASE, engine_run), []):
        children.setdefault(p, []).append((t0, t1))
    ret = engine_rep["ret_ns"]
    done = completion_times(engine_rep["phases"], engine_rep["completions"])
    n = engine_rep["phases"]
    m["core.engine.dispatch_delay_us_p50"] = percentile(
        [first[p] - ret[p - 1] for p in range(1, n + 1) if p in first],
        50) / 1e3
    m["core.engine.retire_delay_us_p50"] = percentile(
        [done[p - 1] - last[p] for p in range(1, n + 1) if p in last],
        50) / 1e3
    phase_spans = {p: (engine_rep["due_ns"][p - 1], done[p - 1])
                   for p in range(1, n + 1)}
    m["core.engine.phase_self_us_p50"] = percentile(
        list(self_times_ns(phase_spans, children).values()), 50) / 1e3
    m["core.engine.bookkeeping_ns_per_pair"] = median(
        [r["stats"]["bookkeeping_ns"] / r["stats"]["executed_pairs"]
         for r in measured])

    # model: module on_phase spans of the workload's own traced run.
    module = durations(MODULE, RUN_MAIN)
    busy = sum(module)
    wall = main["end_ns"] - main["first_start_ns"]
    pairs = main["stats"]["executed_pairs"]
    m["model.on_phase_ns_p50"] = percentile(module, 50)
    m["model.busy_ms"] = busy / 1e6
    m["model.achieved_parallelism"] = busy / wall
    m["core.engine.nonmodule_ns_per_pair"] = (
        raw["worker_threads"] * wall - busy) / pairs

    # core.dispatch: counters of the measured repetitions.
    m["core.dispatch.parks_per_phase"] = median(
        [r["stats"]["parks"] / r["phases"] for r in measured])
    m["core.dispatch.steals_per_phase"] = median(
        [r["stats"]["steals_ok"] / r["phases"] for r in measured])

    ref = raw["reference"]
    m["baseline.sequential_phases_per_s"] = ref["phases"] * 1e9 / ref["wall_ns"]

    # distrib: channel seam, captured frames and transport counters.
    sends = durations(SEND, transport_run)
    m["distrib.channel.send_us_p50"] = percentile(sends, 50) / 1e3
    m["distrib.channel.send_us_p99"] = percentile(sends, 99) / 1e3
    m["distrib.channel.send_blocked_ms"] = sum(sends) / 1e6
    m["distrib.channel.recv_wait_ms"] = sum(durations(RECV, transport_run)) / 1e6
    ts = transport_rep["tstats"]
    tp = transport_rep["phases"]
    m["distrib.channel.frames_per_phase"] = ts["frames_sent"] / tp
    m["distrib.channel.bytes_per_phase"] = ts["bytes_sent"] / tp
    wire = raw["wire"]
    s.lines.append(
        f"wire: {wire['frames']} captured frames, "
        f"{wire['reencoded_identical']} re-encoded byte-identical, "
        f"{wire['decode_errors']} failed to decode")
    if wire["decode_errors"]:
        s.correct = False
    m["distrib.wire.encode_ns_per_delivery"] = wire["encode_ns"] / wire["deliveries"]
    m["distrib.wire.decode_ns_per_delivery"] = wire["decode_ns"] / wire["deliveries"]
    m["distrib.wire.bytes_per_delivery"] = wire["batch_bytes"] / wire["deliveries"]
    messages = ts["remote_messages"] + ts["local_messages"]
    m["distrib.transport.remote_frac"] = ts["remote_messages"] / messages
    m["distrib.transport.watermarks_per_phase"] = ts["watermarks_sent"] / tp
    m["distrib.transport.phases_per_s"] = _rep_rate(transport_rep)

    # core.checkpoint: quiesce/snapshot/restore probe.
    ck = raw["checkpoint"]
    m["core.checkpoint.quiesce_us"] = median(ck["quiesce_ns"]) / 1e3
    m["core.checkpoint.snapshot_us"] = median(ck["snapshot_ns"]) / 1e3
    m["core.checkpoint.restore_us"] = median(ck["restore_ns"]) / 1e3
    m["core.checkpoint.image_bytes"] = median(ck["image_bytes"])
    m["core.checkpoint.restore_divergent_phases"] = reps[
        "checkpoint_restore"]["failed"]

    # setup and the generator.
    m["setup.build_ms"] = median([b for b, _e in raw["setups"]]) / 1e6
    m["setup.executor_ms"] = median([e for _b, e in raw["setups"]]) / 1e6
    lag_reps = measured if engine_kind else [engine_rep]
    m["gen.lag_us_p99"] = median(
        [percentile(generator_lag_ns(r["due_ns"], r["issue_ns"]), 99)
         for r in lag_reps]) / 1e3

    # Tracing overhead: the traced repetition against the untraced ones,
    # on the workload's headline metric.
    if raw["rate"]:
        untraced = median([percentile(v, 50) for v in lat])
        traced = percentile(_rep_latencies(main), 50)
        m["trace.overhead_pct"] = (traced / untraced - 1.0) * 100.0
    else:
        untraced = median([_rep_rate(r) for r in measured])
        m["trace.overhead_pct"] = (untraced / _rep_rate(main) - 1.0) * 100.0

    s.lines.append("per-span table (self = duration minus child coverage):")
    s.lines.append(f"  {'span':40s} {'run':>3s} {'count':>8s} "
                   f"{'total_ms':>10s} {'self_ms':>10s} {'p50_us':>9s}")
    self_of_phase = self_times_ns(phase_spans, children)
    s.lines.append(
        f"  {'core.engine.phase':40s} {engine_run:>3d} {n:>8d} "
        f"{sum(e - b for b, e in phase_spans.values()) / 1e6:>10.2f} "
        f"{sum(self_of_phase.values()) / 1e6:>10.2f} "
        f"{percentile([e - b for b, e in phase_spans.values()], 50) / 1e3:>9.1f}")
    for (kind, run), rows in sorted(by.items()):
        d = [t1 - t0 for _v, _p, t0, t1 in rows]
        s.lines.append(
            f"  {SPAN_NAMES.get(kind, str(kind)):40s} {run:>3d} {len(d):>8d} "
            f"{sum(d) / 1e6:>10.2f} {sum(d) / 1e6:>10.2f} "
            f"{percentile(d, 50) / 1e3:>9.1f}")
    if m["core.checkpoint.restore_divergent_phases"]:
        s.lines.append(
            "WARNING: an engine restored from a mid-run checkpoint diverges "
            f"from the reference in {m['core.checkpoint.restore_divergent_phases']} "
            f"phases ({reps['checkpoint_restore']['mismatch']}); reported as "
            "core.checkpoint.restore_divergent_phases, not folded into "
            "failed_frac, since no workload restarts a partition")
