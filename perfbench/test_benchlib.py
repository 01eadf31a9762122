"""Tests of the benchmark's own accounting.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The harness tests run the built harness (python3 perfbench/run.py builds it
into .bench_build/perfbench) and are skipped when it is absent.
"""

import json
import subprocess
import tempfile
import unittest
from pathlib import Path

import benchlib
import run

ROOT = Path(__file__).resolve().parent.parent
HARNESS = ROOT / ".bench_build" / "perfbench" / "perfbench_harness"


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_keeps_ten_samples_beyond(self):
        self.assertIsNone(benchlib.tail_percentile(10))
        self.assertEqual(benchlib.tail_percentile(20), 50.0)
        self.assertEqual(benchlib.tail_percentile(100), 90.0)
        self.assertEqual(benchlib.tail_percentile(999), 90.0)
        self.assertEqual(benchlib.tail_percentile(1000), 99.0)
        self.assertEqual(benchlib.tail_percentile(10000), 99.9)
        for n in (20, 100, 999, 1000, 12345):
            q = benchlib.tail_percentile(n)
            self.assertGreaterEqual(benchlib.samples_beyond(n, q), 10)

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(benchlib.percentile(values, 50), 50)
        self.assertEqual(benchlib.percentile(values, 99), 99)
        self.assertEqual(benchlib.percentile(values, 100), 100)
        self.assertEqual(benchlib.percentile([7], 99), 7)

    def test_description_states_sample_count(self):
        text = benchlib.describe_tail(list(range(1000)), "us")
        self.assertIn("n=1000", text)
        self.assertIn("p99=", text)
        self.assertIn("too few", benchlib.describe_tail([1, 2, 3], "us"))


def simulate_open_loop(phases, period, service, window, stall_phase,
                       stall):
    """A toy engine fed open loop: start_phase blocks while `window`
    phases are in flight, phases complete in order, and the phase
    `stall_phase` holds the engine for `stall` ns."""
    due = [p * period for p in range(phases)]
    issue, done = [], []
    for p in range(phases):
        i = due[p] if p < window else max(due[p], done[p - window])
        d = max(i + service, done[-1] if done else 0)
        if p == stall_phase:
            d += stall
        issue.append(i)
        done.append(d)
    return due, issue, [(p + 1, t) for p, t in enumerate(done)]


class OpenLoopAccounting(unittest.TestCase):
    def test_stall_charges_later_phases_and_generator_lag(self):
        ms = 1_000_000
        due, issue, completions = simulate_open_loop(
            phases=400, period=ms, service=ms // 5, window=64,
            stall_phase=100, stall=150 * ms)
        lat = benchlib.phase_latencies_ns(due, completions)
        lag = benchlib.generator_lag_ns(due, issue)
        self.assertEqual(lat[50], ms // 5)
        # Phases due during the stall wait for it: latency counts from the
        # due time, so they carry the remainder of the stall.
        self.assertGreater(lat[100], 140 * ms)
        self.assertGreater(lat[150], 90 * ms)
        self.assertGreater(lat[200], 40 * ms)
        # Once 64 phases are in flight, start_phase blocks: the generator
        # runs late, which an issue-time clock would have hidden.
        self.assertEqual(max(lag[:164]), 0)
        self.assertGreater(max(lag), 50 * ms)
        issue_based = [d - i for d, i in zip(
            benchlib.completion_times(400, completions), issue)]
        self.assertLess(issue_based[200], lat[200])

    def test_out_of_order_completions_cover_prefixes(self):
        completions = [(3, 30), (1, 10), (2, 40), (5, 50)]
        self.assertEqual(benchlib.completion_times(5, completions),
                         [10, 30, 30, 50, 50])
        with self.assertRaises(ValueError):
            benchlib.completion_times(6, completions)


class SpanSelfTime(unittest.TestCase):
    def test_self_time_subtracts_child_coverage(self):
        parents = {1: (0, 100), 2: (100, 200)}
        children = {1: [(10, 30), (20, 40), (90, 120)], 2: []}
        self.assertEqual(benchlib.self_times_ns(parents, children),
                         {1: 100 - 30 - 10, 2: 100})


class FailedFrac(unittest.TestCase):
    def test_fraction_of_attempted(self):
        self.assertEqual(benchlib.failed_frac(0, 10), 0.0)
        self.assertEqual(benchlib.failed_frac(1, 4), 0.25)
        with self.assertRaises(ValueError):
            benchlib.failed_frac(0, 0)


class Catalogue(unittest.TestCase):
    def test_benchmark_json_lists_what_run_py_prints(self):
        with open(ROOT / "BENCHMARK.json") as f:
            bench = json.load(f)
        listed = [w["name"] for w in bench["workloads"]]
        self.assertTrue(set(listed) <= set(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         run.PER_LAYER)
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])


@unittest.skipUnless(HARNESS.exists(), "harness not built")
class Harness(unittest.TestCase):
    def run_harness(self, workload, *extra):
        with tempfile.TemporaryDirectory(dir=HARNESS.parent) as tmp:
            out = Path(tmp) / "result.json"
            subprocess.run([str(HARNESS), "--workload", workload, "--seed",
                            "7", "--seconds", "1", "--trace", "0", "--out",
                            str(out), *extra], check=True, timeout=170)
            with open(out) as f:
                return json.load(f)

    def test_altered_sink_set_fails_its_phase(self):
        raw = self.run_harness("paper_grain", "--corrupt-phase", "5")
        summary = benchlib.summarize(raw)
        self.assertFalse(summary.correct)
        self.assertEqual(summary.failed, 1)
        self.assertGreater(summary.attempted, 1000)
        self.assertAlmostEqual(
            benchlib.failed_frac(summary.failed, summary.attempted),
            1 / summary.attempted)

    def test_dropped_late_delivery_fails_sensor_run(self):
        # Vertex 1 (the first ewma) skips one execution late in each run:
        # the per-group level sinks must catch it in every repetition.
        raw = self.run_harness("sensors_saturated", "--drop-phase", "7900")
        summary = benchlib.summarize(raw)
        self.assertFalse(summary.correct)
        gated = [r for r in raw["reps"] if r["label"] in ("warmup", "measure")]
        self.assertTrue(all(r["failed"] > 0 for r in gated))
        self.assertTrue(all(r["error"] == "" for r in gated))
        self.assertGreater(summary.failed, 0)

    def test_reference_sinks_cover_almost_every_sensor_phase(self):
        raw = self.run_harness("sensors_open")
        ref = raw["reference"]
        self.assertGreater(ref["phases_with_sinks"], 0.95 * ref["phases"])

    def test_injected_engine_stall_shows_as_latency_and_lag(self):
        raw = self.run_harness("sensors_open", "--stall-ms", "150",
                               "--stall-phase", "300")
        summary = benchlib.summarize(raw)
        self.assertTrue(summary.correct)
        rep = [r for r in raw["reps"] if r["label"] == "measure"][0]
        lat = benchlib.phase_latencies_ns(rep["due_ns"], rep["completions"])
        lag = benchlib.generator_lag_ns(rep["due_ns"], rep["issue_ns"])
        ms = 1_000_000
        self.assertLess(benchlib.percentile(lat[:250], 50), 5 * ms)
        self.assertGreater(lat[299], 140 * ms)
        self.assertGreater(lat[360], 50 * ms)
        self.assertGreater(max(lag[300:]), 50 * ms)
        self.assertLess(max(lag[:250]), 20 * ms)


if __name__ == "__main__":
    unittest.main()
