#!/usr/bin/env python3
"""perfbench — the repository benchmark.

    python3 perfbench/run.py --workload pay_closed --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  The first run builds the driver from
source into .bench_build/ (see CMakeLists.txt here); every run then

  1. generates the workload's input from --seed (workloads.py),
  2. with --trace 0, starts the driver SETUP_RUNS times in --setup-only
     mode, then once for the measured run; with --trace 1, once untraced
     and once traced; each in a fresh process,
  3. checks the run's outcomes (the driver verifies every double-spend
     proof and the broker's ledger; any violation fails the run), and
  4. prints every metric with its unit and sample count, then one JSON
     line: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
reports its per-layer metrics and writes the spans as JSONL under
.bench_out/.  Exit status: 0 for a correct run, 1 when a correctness check
failed, 2 when the benchmark could not run.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave nothing but .bench_* in the checkout

import metrics  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build"
OUT_DIR = ROOT / ".bench_out"
DRIVER = BUILD_DIR / "perfbench_driver"
# setup_s is the median of this many set-ups, each in a fresh process.
SETUP_RUNS = 7
DRIVER_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 840


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"{ROOT} holds no p2pcash sources to build; run "
                         "from the root of a checkout")
    BUILD_DIR.mkdir(exist_ok=True)
    build_log = BUILD_DIR / "perfbench-build.log"
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "perfbench_driver", "-j", jobs])
    with open(build_log, "w") as out:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                raise BenchError(f"build step {cmd[:2]} failed: {e}")
            if rc != 0:
                tail = build_log.read_text().splitlines()[-30:]
                raise BenchError("build failed:\n" + "\n".join(tail))


def run_driver(args):
    """Runs the driver to completion; a crash is reported, never retried."""
    cmd = [str(DRIVER)] + args
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"driver exceeded {DRIVER_TIMEOUT_S} s: {cmd}")
    if proc.returncode != 0:
        how = (f"signal {-proc.returncode}" if proc.returncode < 0
               else f"exit {proc.returncode}")
        raise BenchError(f"driver died ({how}): {cmd}\n{proc.stderr[-2000:]}")


def load_benchmark():
    with open(HERE.parent / "BENCHMARK.json") as f:
        return json.load(f)


def check_result(result, bench, trace):
    """Raises BenchError unless `result` matches the output schema."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise BenchError(f"result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        raise BenchError("correct must be a bool")
    for key, low in (("attempted", 1), ("failed", 0)):
        v = result[key]
        if not isinstance(v, int) or isinstance(v, bool) or v < low:
            raise BenchError(f"{key} must be a whole number >= {low}")
    declared = {m["name"]: m["unit"]
                for m in bench["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != set(declared):
        missing = set(declared) - set(result["metrics"])
        extra = set(result["metrics"]) - set(declared)
        raise BenchError(f"metrics differ: missing {sorted(missing)}, "
                         f"undeclared {sorted(extra)}")
    for name, m in result["metrics"].items():
        if not metrics.NAME_RE.match(name):
            raise BenchError(f"bad metric name {name!r}")
        if set(m) != {"value", "unit"} or m["unit"] != declared[name]:
            raise BenchError(f"{name}: expected unit {declared[name]}")
        v = m["value"]
        if (not isinstance(v, (int, float)) or isinstance(v, bool)
                or not math.isfinite(v)):
            raise BenchError(f"{name}: value {v!r} is not a finite number")


def run(workload, seed, seconds, trace):
    bench = load_benchmark()
    if workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; choose from "
                         f"{sorted(workloads.WORKLOADS)}")
    build()
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{workload}-s{seed}-t{int(trace)}"
    input_path = stem.with_suffix(".in")
    input_path.write_text(workloads.generate(workload, seed, seconds))

    def measure(traced):
        raw_path = stem.with_suffix(f".t{int(traced)}.raw.json")
        args = ["--input", str(input_path), "--out", str(raw_path),
                "--trace", str(int(traced))]
        if traced:
            args += ["--spans", str(spans_path)]
        run_driver(args)
        return json.loads(raw_path.read_text())

    spans_path = stem.with_suffix(".spans.jsonl")
    setup, untraced = [], None
    if trace:
        # The untraced twin of the traced run gives obs.bench_overhead_frac.
        untraced = measure(False)
    else:
        for i in range(SETUP_RUNS):
            out = stem.with_suffix(f".setup{i}.json")
            run_driver(["--input", str(input_path), "--out", str(out),
                        "--setup-only"])
            setup.append(json.loads(out.read_text())["setup_s"])
    raw = measure(trace)

    violations = list(raw["violations"])
    attempted, failed = metrics.attempted_failed(raw)
    if trace:
        violations += untraced["violations"] + raw["replay"]["violations"]
        a, f = metrics.attempted_failed(untraced)
        attempted, failed = attempted + a, failed + f

    print(f"perfbench {workload} seed={seed} seconds={seconds} "
          f"trace={int(trace)}: {raw['payments']} payments "
          f"({raw['accepted']} accepted, {raw['replay_refused']} replays "
          f"refused with a verified proof), {raw['withdrawals']} withdrawals, "
          f"{raw['deposits']} deposits; timed region "
          f"{raw['pay_region'][1] - raw['pay_region'][0]:.2f} s")
    values = {}
    if trace:
        spans = metrics.read_spans(spans_path)
        layer = metrics.per_layer(raw, spans, untraced)
        for name, (value, unit) in layer.items():
            values[name] = (value, unit)
            shown = "missing" if value == metrics.MISSING else f"{value:.6g}"
            print(f"  {name:36s} {shown:>12s} {unit}")
        print(f"  spans: {spans_path}")
    else:
        for name, (value, unit, n) in metrics.end_to_end(
                raw, setup).items():
            values[name] = (value, unit)
            print(f"  {name:20s} {value:12.6g} {unit:5s} (n={n})")
        # Reported per layer (no bound); shown here for the record.
        for label, key in (("pay", "pay_lat_ms"),
                           ("withdraw", "withdraw_lat_ms")):
            p = metrics.tail_percentile(raw[key], 99)
            print(f"  {label} p99: "
                  f"{'missing' if p is None else f'{p:.6g} ms'} "
                  f"(n={len(raw[key])})")
        if raw["flushes"]:
            print(f"  deposits: {metrics.deposit_rate(raw):.6g} 1/s "
                  f"(n={raw['deposits']})")
    print(f"  attempted {attempted}, failed {failed}, fail_frac "
          f"{failed / attempted:.4g}")
    for r in (raw, untraced) if trace else (raw,):
        for reason, n in r["errors"].items():
            print(f"  failed {n}x: {reason}")
    for v in violations:
        print(f"  VIOLATION: {v}")

    result = {
        "correct": not violations,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }
    check_result(result, bench, trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the benchmark's own tests and exit")
    args = parser.parse_args()
    if args.self_test:
        import unittest
        suite = unittest.defaultTestLoader.loadTestsFromName("test_perfbench")
        ok = unittest.TextTestRunner(verbosity=2).run(suite).wasSuccessful()
        return 0 if ok else 1
    if not args.workload or args.seconds < 1:
        parser.error("--workload and a positive --seconds are required")
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, metrics.MetricError, OSError, ValueError,
            KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
