"""Self-tests of the benchmark itself; they need no build.

    python3 perfbench/run.py --self-test
    python3 perfbench/test_perfbench.py
"""

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

UNIT_RE = r"^[A-Za-z0-9_/%.-]{1,16}$"


def load_benchmark():
    with open(HERE.parent / "BENCHMARK.json") as f:
        return json.load(f)


def snapshot(wall_s, scale):
    """A registry snapshot whose instruments grew linearly with `scale`."""
    hist = {"count": 100 * scale, "sum": 150.0 * scale, "max": 4.0,
            "buckets": [40 * scale, 60 * scale] + [0] * 30}
    names = ["span_" + h for h, _, _ in metrics.HANDLERS] + [
        "transport_pool_queue_delay_ms", "transport_pool_drain_batch",
        "transport_strand_batch", "transport_io_loop_busy_ms",
        "transport_timer_delay_ms", "store_fsync_ms",
        "store_commit_batch_records"]
    counters = {name: 1000 * scale for name in (
        "store_appends_total", "store_commits_total",
        "transport_messages_sent", "transport_bytes_sent",
        "transport_backpressure_drops", "transport_disconnects",
        "trace_spans", "trace_dropped", "broker_coins_deposited")}
    return {"wall_s": wall_s, "cpu_s": wall_s,
            "histograms": {n: dict(hist) for n in names},
            "counters": counters}


def synthetic_raw(mode="closed", payments=2000):
    """The driver's output shape, with made-up values."""
    snaps = {"start": snapshot(1, 0), "withdrawn": snapshot(2, 1),
             "warm": snapshot(2.5, 1), "paid": snapshot(12, 2),
             "end": snapshot(20, 3)}
    if mode == "rounds":
        snaps = {"start": snaps["start"], "end": snaps["end"]}
    honest = payments - payments // 16
    return {
        "mode": mode, "workers": 4, "withdraw_region": [1.0, 2.0],
        "pay_region": [2.5, 12.0], "region_cpu_s": 20.0,
        "peak_rss_kb": 30000, "ops_total": payments, "payments": payments,
        "accepted": payments - payments // 16, "honest_failed": 0,
        "replay_refused": payments // 16, "replay_failed": 0,
        "withdrawals": payments - payments // 16, "withdraw_failed": 0,
        "deposits": payments - payments // 16, "deposit_failed": 0,
        "pay_lat_ms": [10.0 + i % 100 for i in range(payments)],
        "pay_done_s": [2.5 + 9.5 * i / payments for i in range(payments)],
        "pay_accepted": [int(i % 16 != 5) for i in range(payments)],
        "withdraw_lat_ms": [12.0 + i % 50 for i in range(honest)],
        "withdraw_done_s": [1.0 + i / honest for i in range(honest)],
        "flushes": [[honest // 8, 1.0]] * 8,
        "rounds": [[1.0 + 3 * r, 3.0 + 3 * r, 4.0 + 3 * r] for r in range(4)],
        "resilience": {"retries": 0, "failovers": 0,
                       "duplicates_suppressed": 0, "breaker_trips": 0,
                       "timeouts": 0, "late_replies_ignored": 0},
        "snapshots": snaps, "violations": [], "errors": {},
        "replay": {"pay_exp": [14] * 40, "pay_ver": [5] * 40,
                   "withdraw_exp": [15] * 40, "violations": []},
    }


def synthetic_spans():
    spans, sid = [], 0
    for op in range(4):
        sid += 1
        root = sid
        spans.append({"op": op, "id": root, "parent": 0, "part": "replay",
                      "name": "pay", "t0_ns": 0, "t1_ns": 10_000_000})
        t = 0
        for names in metrics.ECASH_SPANS.values():
            for name in names:
                sid += 1
                spans.append({"op": op, "id": sid, "parent": root,
                              "part": "replay", "name": name,
                              "t0_ns": t, "t1_ns": t + 500_000})
                t += 500_000
    for probe in metrics.PROBES.values():
        sid += 1
        spans.append({"op": 2_000_000, "id": sid, "parent": 0,
                      "part": "replay", "name": probe, "t0_ns": 0,
                      "t1_ns": 50_000})
    return spans


def result_of(values):
    return {"correct": True, "attempted": 10, "failed": 0,
            "metrics": {n: {"value": v, "unit": u}
                        for n, (v, u, *_) in values.items()}}


class PercentileRule(unittest.TestCase):
    def test_no_p99_from_fewer_than_ten_tail_samples(self):
        self.assertEqual(metrics.samples_beyond(1000, 99), 10)
        self.assertEqual(metrics.samples_beyond(999, 99), 9)
        self.assertIsNone(metrics.tail_percentile(list(range(999)), 99))
        self.assertIsNotNone(metrics.tail_percentile(list(range(1000)), 99))
        self.assertIsNotNone(metrics.tail_percentile(list(range(20)), 50))

    def test_short_run_reports_its_p99_as_missing(self):
        short = metrics.per_layer(synthetic_raw(payments=999),
                                  synthetic_spans(), synthetic_raw())
        self.assertEqual(short["run.pay_p99_ms"][0], metrics.MISSING)
        full = metrics.per_layer(synthetic_raw(payments=1000),
                                 synthetic_spans(), synthetic_raw())
        self.assertNotEqual(full["run.pay_p99_ms"][0], metrics.MISSING)

    def test_registry_percentile_withheld_on_a_short_tail(self):
        h = {"count": 500, "sum": 500.0, "max": 2.0,
             "buckets": [250, 250] + [0] * 30}
        self.assertEqual(metrics.hist_percentile(h, 99), metrics.MISSING)
        self.assertNotEqual(metrics.hist_percentile(h, 50), metrics.MISSING)
        h2 = dict(h, count=1000, buckets=[500, 500] + [0] * 30)
        self.assertLessEqual(metrics.hist_percentile(h2, 99), 2.0)

    def test_overhead_compares_the_traced_run_with_its_untraced_twin(self):
        traced, untraced = synthetic_raw(), synthetic_raw()
        untraced["pay_lat_ms"] = [x / 1.25 for x in traced["pay_lat_ms"]]
        layer = metrics.per_layer(traced, synthetic_spans(), untraced)
        self.assertAlmostEqual(layer["obs.bench_overhead_frac"][0], 0.25)

    def test_percentile_interpolates_between_ranks(self):
        self.assertEqual(metrics.percentile([4, 1, 3, 2], 50), 2.5)
        self.assertEqual(metrics.percentile([7], 99), 7)


class Schedule(unittest.TestCase):
    def test_byte_identical_for_a_seed(self):
        for name in workloads.WORKLOADS:
            a = workloads.generate(name, 7, 10)
            self.assertEqual(a.encode(), workloads.generate(name, 7, 10)
                             .encode(), name)
            self.assertNotEqual(a, workloads.generate(name, 8, 10), name)

    def test_replays_reuse_a_finished_coin_elsewhere(self):
        for name, w in workloads.WORKLOADS.items():
            ops = [list(map(int, line.split()[1:]))
                   for line in workloads.generate(name, 5, 10).splitlines()
                   if line.startswith("op ")]
            replays = [(i, op) for i, op in enumerate(ops) if op[3] >= 0]
            self.assertLessEqual(len(replays),
                                 len(ops) // workloads.REPLAY_EVERY + 1)
            self.assertGreater(len(replays),
                               len(ops) // workloads.REPLAY_EVERY // 2)
            for i, (rnd, lane, merchant, ref) in replays:
                original = ops[ref]
                self.assertLess(ref, i)
                self.assertEqual(original[3], -1)  # an honest payment
                self.assertNotEqual(original[2], merchant)
                self.assertEqual(original[1], lane)  # finished: same client
                if w.mode == "rounds":
                    self.assertEqual(original[0], rnd)


class Names(unittest.TestCase):
    def test_every_name_and_unit_is_well_formed(self):
        bench = load_benchmark()
        names = [w["name"] for w in bench["workloads"]]
        for group in ("end_to_end", "per_layer"):
            names += [m["name"] for m in bench[group]]
            for m in bench[group]:
                self.assertRegex(m["unit"], UNIT_RE)
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, metrics.NAME_RE)
            self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")

    def test_workloads_match_the_definitions(self):
        bench = load_benchmark()
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(workloads.WORKLOADS))


class Schema(unittest.TestCase):
    def test_end_to_end_output_parses(self):
        bench = load_benchmark()
        for mode in ("closed", "rounds"):
            values = metrics.end_to_end(synthetic_raw(mode), [0.4, 0.5, 0.6])
            result = json.loads(json.dumps(result_of(values)))
            run.check_result(result, bench, trace=False)

    def test_per_layer_output_parses(self):
        bench = load_benchmark()
        for mode in ("closed", "rounds"):
            values = metrics.per_layer(synthetic_raw(mode), synthetic_spans(),
                                       synthetic_raw(mode))
            result = json.loads(json.dumps(result_of(values)))
            run.check_result(result, bench, trace=True)

    def test_malformed_output_is_refused(self):
        bench = load_benchmark()
        good = result_of(metrics.end_to_end(synthetic_raw(), [0.5]))
        bad = [dict(good, correct="yes"), dict(good, attempted=0),
               {k: v for k, v in good.items() if k != "failed"},
               dict(good, metrics={**good["metrics"],
                                   "pay_per_s": {"value": "fast",
                                                 "unit": "1/s"}}),
               dict(good, metrics={k: v for k, v in good["metrics"].items()
                                   if k != "setup_s"})]
        for result in bad:
            with self.assertRaises(run.BenchError):
                run.check_result(result, bench, trace=False)

    def test_benchmark_json_follows_the_contract(self):
        bench = load_benchmark()
        self.assertEqual(set(bench), {"command", "paths", "run_seconds",
                                      "workloads", "end_to_end",
                                      "per_layer"})
        self.assertTrue(2 <= len(bench["workloads"]) <= 8)
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        self.assertIn("setup_s", bounds)
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        for m in bench["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in bench["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for p in bench["paths"]:
            self.assertTrue((HERE.parent / p).is_dir())


if __name__ == "__main__":
    unittest.main()
