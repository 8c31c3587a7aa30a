"""Turns the driver's raw measurements into the benchmark's metrics.

End-to-end metrics come from the untraced run's own samples.  Per-layer
metrics come from the traced run: the runtime registry's histograms and
counters diffed between phase snapshots (reg), and the spans the driver
recorded around public layer calls (call); obs.bench_overhead_frac also
reads an untraced run of the same input.
"""

import json
import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
# A percentile is reported only when at least this many samples lie beyond
# it; otherwise it is missing.
TAIL_SAMPLES = 10
# Per-layer value for a percentile withheld by that rule, or for a layer
# the workload never exercised.
MISSING = -1.0

# Actor handler spans (the runtime's span_<name>_ms histograms), the metric
# stem each is reported under, and the operation it is charged to.
HANDLERS = [
    ("merchant_validate", "actors.merchant_validate", "pay"),
    ("witness_commit", "actors.witness_commit", "pay"),
    ("witness_countersign", "actors.witness_countersign", "pay"),
    ("broker_withdraw_offer", "actors.broker_withdraw_offer", "withdraw"),
    ("broker_withdraw_finish", "actors.broker_withdraw_finish", "withdraw"),
    ("reconcile", "actors.broker_reconcile", "deposit"),
]

# Replay spans summed per operation into each ecash.* self time.
ECASH_SPANS = {
    "ecash.wallet_pay_ms": ["wallet.prepare_payment", "wallet.build_transcript"],
    "ecash.witness_commit_ms": ["witness.request_commitment"],
    "ecash.witness_sign_ms": ["witness.sign_transcript"],
    "ecash.witness_refuse_ms": ["witness.refuse_transcript"],
    "ecash.merchant_receive_ms": ["merchant.receive_payment"],
    "ecash.wallet_withdraw_ms": ["wallet.begin_withdrawal",
                                 "wallet.complete_withdrawal"],
    "ecash.broker_withdraw_ms": ["broker.start_withdrawal",
                                 "broker.finish_withdrawal"],
    "ecash.broker_deposit_ms": ["broker.deposit"],
}

# Direct calls into the lower layers (microseconds per call).
PROBES = {
    "group.exp_us": "group.exp",
    "group.exp2_us": "group.exp2",
    "sig.sign_us": "sig.sign",
    "sig.verify_us": "sig.verify",
    "nizk.verify_us": "nizk.verify",
    "blindsig.issue_us": "blindsig.issue",
    "wire.encode_us": "wire.encode",
    "wire.decode_us": "wire.decode",
    "wire.frame_us": "wire.frame",
}


class MetricError(Exception):
    """A metric the benchmark must report cannot be computed."""


# ---------------------------------------------------------------------------
# Percentiles
# ---------------------------------------------------------------------------

def samples_beyond(n, pct):
    """How many of n samples lie above the pct-th percentile (by rank)."""
    return n - (pct * n + 99) // 100


def percentile(values, pct):
    """Linear interpolation between closest ranks; values need not be
    sorted."""
    if not values:
        raise MetricError("percentile of no samples")
    s = sorted(values)
    rank = (len(s) - 1) * pct / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (rank - lo)


def tail_percentile(values, pct):
    """The pct-th percentile, or None when fewer than TAIL_SAMPLES samples
    lie beyond it."""
    if samples_beyond(len(values), pct) < TAIL_SAMPLES:
        return None
    return percentile(values, pct)


# ---------------------------------------------------------------------------
# Registry snapshots
# ---------------------------------------------------------------------------

def _hist(snapshot, name):
    h = snapshot["histograms"].get(name)
    if h is None:
        return {"count": 0, "sum": 0.0, "max": 0.0, "buckets": [0] * 32}
    return h


def hist_diff(before, after, name):
    """The samples a histogram received between two snapshots."""
    a, b = _hist(before, name), _hist(after, name)
    return {
        "count": b["count"] - a["count"],
        "sum": b["sum"] - a["sum"],
        "max": b["max"],
        "buckets": [y - x for x, y in zip(a["buckets"], b["buckets"])],
    }


def bucket_upper(i):
    return float("inf") if i + 1 >= 32 else float(2 ** i)


def hist_percentile(h, pct):
    """The registry's own estimate (linear inside the covering log2 bucket,
    clamped to the observed maximum), applied to a snapshot difference.
    MISSING under the tail rule."""
    count = h["count"]
    if count == 0 or (pct > 50 and samples_beyond(count, pct) < TAIL_SAMPLES):
        return MISSING
    rank = pct / 100.0 * count
    cumulative = 0
    for i, n in enumerate(h["buckets"]):
        if n == 0:
            continue
        before = cumulative
        cumulative += n
        if cumulative < rank:
            continue
        if i + 1 >= 32:
            return h["max"]
        lower = 0.0 if i == 0 else bucket_upper(i - 1)
        frac = min(max((rank - before) / n, 0.0), 1.0)
        return min(lower + (bucket_upper(i) - lower) * frac, h["max"])
    return h["max"]


def counter_diff(before, after, name):
    return after["counters"][name] - before["counters"][name]


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

def read_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def self_times(spans):
    """{(op, name): self time in ms summed over that op's spans of that
    name}.  A span's self time is its duration minus the part of it that
    its child spans cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered, end = 0, s["t0_ns"]
        kids = sorted(children.get(s["id"], []), key=lambda k: k["t0_ns"])
        for k in kids:
            lo, hi = max(k["t0_ns"], end), min(k["t1_ns"], s["t1_ns"])
            if hi > lo:
                covered += hi - lo
                end = hi
        key = (s["op"], s["name"])
        out[key] = out.get(key, 0.0) + (s["t1_ns"] - s["t0_ns"] - covered) / 1e6
    return out


# ---------------------------------------------------------------------------
# End-to-end metrics
# ---------------------------------------------------------------------------

def _ops(raw):
    """The workload's unit of work in its timed region."""
    if raw["mode"] == "rounds":
        return raw["payments"] + raw["withdrawals"] + raw["deposits"]
    return len(raw["pay_lat_ms"])


def attempted_failed(raw):
    """Every payment of the input, withdrawal and deposit is an attempt.  A
    correctly refused replay is a success."""
    attempted = (raw["ops_total"] + raw["withdrawals"] + raw["deposits"] +
                 raw["deposit_failed"])
    failed = (raw["honest_failed"] + raw["replay_failed"] +
              raw["withdraw_failed"] + raw["deposit_failed"])
    return max(attempted, 1), failed


# Rates are the median over windows of a phase, so a transient stall of the
# host moves a few windows, not the metric.
RATE_WINDOWS = 10


def windowed_rate(times, region):
    """Median over RATE_WINDOWS equal windows of `region` of events per
    second."""
    start, end = region
    width = (end - start) / RATE_WINDOWS
    if width <= 0:
        raise MetricError("empty region")
    counts = [0] * RATE_WINDOWS
    for t in times:
        k = int((t - start) / width)
        if 0 <= k < RATE_WINDOWS:
            counts[k] += 1
        elif k == RATE_WINDOWS:
            counts[-1] += 1  # the region's own end
    return statistics.median(c / width for c in counts)


def rounds_rate(times, bounds):
    """Median over rounds of events per second of [start, end]."""
    rates = []
    for start, end in bounds:
        n = sum(1 for t in times if start <= t <= end)
        rates.append(n / (end - start))
    return statistics.median(rates)


def deposit_rate(raw):
    """Transcripts acknowledged per second of the deposit bursts."""
    seconds = sum(s for _, s in raw["flushes"])
    return sum(n for n, _ in raw["flushes"]) / seconds if seconds else MISSING


def end_to_end(raw, setup_samples):
    """{name: (value, unit, samples)} for every end-to-end metric."""
    pay, wd = raw["pay_lat_ms"], raw["withdraw_lat_ms"]
    accepted = [t for t, ok in zip(raw["pay_done_s"], raw["pay_accepted"])
                if ok]
    if raw["mode"] == "rounds":
        # Per second of the rounds' withdraw-and-pay phases.  The deposit
        # phases run on the broker strand alone, and their rate is too
        # unsteady for a bound (see run.deposit_per_s).
        phases = [(r[0], r[1]) for r in raw["rounds"]]
        pay_rate = rounds_rate(accepted, phases)
        wd_rate = rounds_rate(raw["withdraw_done_s"], phases)
    else:
        pay_rate = windowed_rate(accepted, raw["pay_region"])
        wd_rate = windowed_rate(raw["withdraw_done_s"], raw["withdraw_region"])
    return {
        "setup_s": (statistics.median(setup_samples), "s", len(setup_samples)),
        "pay_per_s": (pay_rate, "1/s", len(accepted)),
        "pay_p50_ms": (percentile(pay, 50), "ms", len(pay)),
        "withdraw_per_s": (wd_rate, "1/s", len(wd)),
        "withdraw_p50_ms": (percentile(wd, 50), "ms", len(wd)),
        "cpu_ms_per_op": (raw["region_cpu_s"] * 1e3 / _ops(raw), "ms",
                          _ops(raw)),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MB", 1),
    }


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def _windows(raw):
    """(pay, withdraw, deposit, whole) snapshot pairs."""
    s = raw["snapshots"]
    if raw["mode"] == "rounds":
        whole = (s["start"], s["end"])
        return whole, whole, whole, whole
    # pay_closed has no deposit phase.
    return ((s["warm"], s["paid"]), (s["start"], s["withdrawn"]),
            (s["paid"], s["paid"]), (s["start"], s["paid"]))


def _per(x, n):
    return x / n if n else MISSING


def _mean_over_ops(selftimes, names):
    """Mean and median, over ops, of the summed self time of `names`."""
    per_op = {}
    for (op, name), ms in selftimes.items():
        if name in names:
            per_op[op] = per_op.get(op, 0.0) + ms
    values = list(per_op.values())
    if not values:
        return MISSING, MISSING
    return statistics.mean(values), statistics.median(values)


def per_layer(raw, spans, untraced):
    """{name: (value, unit)} for every per-layer metric of the traced run
    `raw`; `untraced` is a run of the same input without the spans."""
    out = {}
    pay_w, wd_w, dep_w, whole = _windows(raw)
    ops = _ops(raw)
    counts = {
        "pay": raw["payments"] if raw["mode"] == "rounds" else ops,
        "withdraw": raw["withdrawals"],
        "deposit": raw["deposits"],
    }
    window_of = {"pay": pay_w, "withdraw": wd_w, "deposit": dep_w}

    # call: direct layer calls and the in-process replay.
    replay = [s for s in spans if s["part"] == "replay"]
    for metric, name in PROBES.items():
        durations = [(s["t1_ns"] - s["t0_ns"]) / 1e3 for s in replay
                     if s["name"] == name]
        out[metric] = (statistics.median(durations) if durations else MISSING,
                       "us")
    rc = raw["replay"]
    out["ecash.exps_per_pay"] = (statistics.median(rc["pay_exp"]), "count")
    out["ecash.vers_per_pay"] = (statistics.median(rc["pay_ver"]), "count")
    out["ecash.exps_per_withdraw"] = (statistics.median(rc["withdraw_exp"]),
                                      "count")
    selftimes = self_times(replay)
    ecash_mean = {}
    for metric, names in ECASH_SPANS.items():
        mean, median = _mean_over_ops(selftimes, set(names))
        ecash_mean[metric] = mean
        out[metric] = (median, "ms")

    # reg: actor handler wall time, from the runtime's span histograms.
    handler_sum = 0.0
    handler_mean = {}
    for span, stem, kind in HANDLERS:
        before, after = window_of[kind]
        h = hist_diff(before, after, f"span_{span}_ms")
        out[f"{stem}_p50_ms"] = (hist_percentile(h, 50), "ms")
        out[f"{stem}_ms_per_op"] = (_per(h["sum"], counts[kind]), "ms")
        handler_mean[span] = _per(h["sum"], h["count"])
        if (before, after) == pay_w:
            handler_sum += h["sum"]

    def ratio(handlers, ecash):
        num = [handler_mean[h] for h in handlers]
        den = [ecash_mean[e] for e in ecash]
        if MISSING in num or MISSING in den or sum(den) <= 0:
            return MISSING
        return sum(num) / sum(den)

    out["actors.inflation"] = (ratio(
        ["merchant_validate", "witness_commit", "witness_countersign"],
        ["ecash.merchant_receive_ms", "ecash.witness_commit_ms",
         "ecash.witness_sign_ms"]), "ratio")
    out["actors.broker_inflation"] = (ratio(
        ["broker_withdraw_offer", "broker_withdraw_finish"],
        ["ecash.broker_withdraw_ms"]), "ratio")

    res = raw["resilience"]
    out["actors.rpc_retries_per_op"] = (res["retries"] / ops, "count")
    out["actors.failovers_per_op"] = (res["failovers"] / ops, "count")
    out["actors.dup_suppressed_per_op"] = (
        res["duplicates_suppressed"] / ops, "count")
    before, after = dep_w
    sends = hist_diff(before, after, "span_reconcile_ms")["count"]
    out["actors.deposit_useful_ratio"] = (_per(
        counter_diff(before, after, "broker_coins_deposited"), sends), "ratio")

    # reg: verify strands, transport, obs — over the timed region.
    before, after = pay_w
    wall = after["wall_s"] - before["wall_s"]
    qd = hist_diff(before, after, "transport_pool_queue_delay_ms")
    out["verify.queue_delay_p50_ms"] = (hist_percentile(qd, 50), "ms")
    out["verify.queue_delay_p99_ms"] = (hist_percentile(qd, 99), "ms")
    out["verify.queue_delay_ms_per_op"] = (qd["sum"] / ops, "ms")
    for metric, hname in (("verify.drain_batch", "transport_pool_drain_batch"),
                          ("verify.strand_batch", "transport_strand_batch")):
        h = hist_diff(before, after, hname)
        out[metric] = (_per(h["sum"], h["count"]), "count")
    io = hist_diff(before, after, "transport_io_loop_busy_ms")
    out["transport.io_busy_ms_per_op"] = (io["sum"] / ops, "ms")
    out["transport.timer_delay_p99_ms"] = (hist_percentile(
        hist_diff(before, after, "transport_timer_delay_ms"), 99), "ms")
    out["transport.msgs_per_op"] = (counter_diff(
        before, after, "transport_messages_sent") / ops, "count")
    out["transport.bytes_per_op"] = (counter_diff(
        before, after, "transport_bytes_sent") / ops, "B")
    out["transport.backpressure_drops"] = (counter_diff(
        before, after, "transport_backpressure_drops"), "count")
    out["transport.reconnects"] = (counter_diff(
        before, after, "transport_disconnects"), "count")
    out["obs.spans_per_op"] = (counter_diff(
        before, after, "trace_spans") / ops, "count")
    out["obs.trace_dropped"] = (counter_diff(
        before, after, "trace_dropped"), "count")
    out["obs.bench_overhead_frac"] = (
        percentile(raw["pay_lat_ms"], 50) /
        percentile(untraced["pay_lat_ms"], 50) - 1, "ratio")
    out["layers.coverage"] = (
        (handler_sum + qd["sum"] + io["sum"]) / (wall * 1e3 * raw["workers"]),
        "ratio")

    # reg: store, over the whole run.
    before, after = whole
    fs = hist_diff(before, after, "store_fsync_ms")
    out["store.fsync_p50_ms"] = (hist_percentile(fs, 50), "ms")
    out["store.fsync_p99_ms"] = (hist_percentile(fs, 99), "ms")
    cb = hist_diff(before, after, "store_commit_batch_records")
    out["store.commit_batch_records"] = (_per(cb["sum"], cb["count"]),
                                         "count")
    all_ops = raw["payments"] + raw["withdrawals"] + raw["deposits"]
    out["store.appends_per_op"] = (counter_diff(
        before, after, "store_appends_total") / all_ops, "count")
    out["store.commits_per_op"] = (counter_diff(
        before, after, "store_commits_total") / all_ops, "count")

    # The run as a whole: tails and rates too noisy to carry a bound.
    for name, key in (("run.pay_p99_ms", "pay_lat_ms"),
                      ("run.withdraw_p99_ms", "withdraw_lat_ms")):
        p = tail_percentile(raw[key], 99)
        out[name] = (MISSING if p is None else p, "ms")
    out["run.deposit_per_s"] = (deposit_rate(raw), "1/s")
    attempted, failed = attempted_failed(raw)
    out["run.fail_frac"] = (failed / attempted, "ratio")
    return out
