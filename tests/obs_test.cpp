// Observability layer: metrics registry (log2 histograms, collectors,
// Prometheus/JSON export) and the causal trace layer (spans, events,
// ring-buffer sink, JSONL determinism).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "metrics/counters.h"
#include "obs/clock.h"
#include "obs/flight_recorder.h"
#include "obs/json_writer.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace p2pcash::obs {
namespace {

// ---------------------------------------------------------------------------
// Histogram bucketing edge cases
// ---------------------------------------------------------------------------

TEST(Histogram, BucketZeroCoversZeroNegativeAndSubMillisecond) {
  EXPECT_EQ(Histogram::bucket_index(0.0), 0u);
  EXPECT_EQ(Histogram::bucket_index(-5.0), 0u);
  EXPECT_EQ(Histogram::bucket_index(0.25), 0u);
  EXPECT_EQ(Histogram::bucket_index(1.0), 0u);  // bucket 0 is (-inf, 1]
  EXPECT_EQ(Histogram::bucket_index(std::numeric_limits<double>::quiet_NaN()),
            0u);
}

TEST(Histogram, PowerOfTwoBoundariesAreInclusive) {
  // Bucket i covers (2^(i-1), 2^i]: an exact power of two lands in its own
  // bucket, one ulp above spills into the next.
  EXPECT_EQ(Histogram::bucket_index(2.0), 1u);
  EXPECT_EQ(Histogram::bucket_index(2.0001), 2u);
  EXPECT_EQ(Histogram::bucket_index(4.0), 2u);
  EXPECT_EQ(Histogram::bucket_index(1024.0), 10u);
  EXPECT_EQ(Histogram::bucket_index(1025.0), 11u);
}

TEST(Histogram, MaxRepresentableAndOverflowBucket) {
  // The last finite boundary is 2^30 ms; beyond that everything goes to
  // the +Inf overflow bucket (index kBuckets-1).
  const double last_finite = Histogram::bucket_upper(Histogram::kBuckets - 2);
  EXPECT_EQ(Histogram::bucket_index(last_finite), Histogram::kBuckets - 2);
  EXPECT_EQ(Histogram::bucket_index(last_finite * 2),
            Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::bucket_index(std::numeric_limits<double>::max()),
            Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::bucket_index(std::numeric_limits<double>::infinity()),
            Histogram::kBuckets - 1);
  EXPECT_TRUE(std::isinf(Histogram::bucket_upper(Histogram::kBuckets - 1)));
}

TEST(Histogram, RecordTracksCountSumMinMax) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.percentile(50), 0.0);
  h.record(0.0);
  h.record(3.0);
  h.record(100.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 103.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[Histogram::bucket_index(3.0)], 1u);
  EXPECT_EQ(h.buckets()[Histogram::bucket_index(100.0)], 1u);
}

TEST(Histogram, PercentileClampedToObservedRange) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.record(50.0);
  // All samples in one bucket: interpolation cannot escape [min, max].
  EXPECT_DOUBLE_EQ(h.percentile(0), 50.0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 50.0);
}

TEST(Histogram, PercentileOrdersAcrossBuckets) {
  Histogram h;
  for (int i = 0; i < 90; ++i) h.record(2.0);     // bucket 1
  for (int i = 0; i < 10; ++i) h.record(1000.0);  // bucket 10
  const double p50 = h.percentile(50);
  const double p95 = h.percentile(95);
  const double p99 = h.percentile(99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p50, 2.0);
  EXPECT_GT(p95, 2.0);  // the tail reaches into the slow bucket
  EXPECT_LE(p99, 1000.0);
}

TEST(Histogram, OverflowSamplesReportObservedMax) {
  Histogram h;
  h.record(1.0);
  const double huge = 5e9;  // past the last finite boundary
  h.record(huge);
  EXPECT_EQ(h.buckets()[Histogram::kBuckets - 1], 1u);
  EXPECT_DOUBLE_EQ(h.percentile(100), huge);  // clamped to max, not +inf
}

// ---------------------------------------------------------------------------
// Registry: identity, collectors, exports
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, NamedMetricsAreStableIdentities) {
  MetricsRegistry reg;
  reg.counter("requests").inc();
  reg.counter("requests").inc(2);
  EXPECT_EQ(reg.counter("requests").value(), 3u);
  reg.gauge("depth").set(7.5);
  EXPECT_DOUBLE_EQ(reg.gauge("depth").value(), 7.5);
  reg.histogram("lat").record(4.0);
  EXPECT_EQ(reg.histogram("lat").count(), 1u);
  EXPECT_NE(reg.find_counter("requests"), nullptr);
  EXPECT_EQ(reg.find_counter("missing"), nullptr);
  EXPECT_EQ(reg.find_gauge("missing"), nullptr);
  EXPECT_EQ(reg.find_histogram("missing"), nullptr);
  EXPECT_EQ(reg.histogram_names(), std::vector<std::string>{"lat"});
}

TEST(MetricsRegistry, CollectorsFeedBothExports) {
  MetricsRegistry reg;
  metrics::ResilienceCounters rc;
  rc.retries = 7;
  reg.register_collector([&rc]() { return resilience_samples("rpc", rc); });
  metrics::OpCounters ops{11, 22, 33, 44};
  reg.register_collector(
      [&ops]() { return op_counter_samples("crypto", ops); });

  const std::string prom = reg.prometheus_text();
  EXPECT_NE(prom.find("rpc_retries_total 7"), std::string::npos);
  EXPECT_NE(prom.find("crypto_ops_exp_total 11"), std::string::npos);
  EXPECT_NE(prom.find("crypto_ops_ver_total 44"), std::string::npos);

  const std::string json = reg.json_text();
  EXPECT_NE(json.find("\"rpc_retries_total\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"crypto_ops_hash_total\": 22"), std::string::npos);
}

TEST(MetricsRegistry, PrometheusHistogramIsCumulativeWithInf) {
  MetricsRegistry reg;
  auto& h = reg.histogram("pay_ms");
  h.record(2.0);
  h.record(2.0);
  h.record(1000.0);
  const std::string prom = reg.prometheus_text();
  EXPECT_NE(prom.find("# TYPE pay_ms histogram"), std::string::npos);
  EXPECT_NE(prom.find("pay_ms_bucket{le=\"2\"} 2"), std::string::npos);
  EXPECT_NE(prom.find("pay_ms_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(prom.find("pay_ms_count 3"), std::string::npos);
  EXPECT_NE(prom.find("pay_ms_p50"), std::string::npos);
  EXPECT_NE(prom.find("pay_ms_p95"), std::string::npos);
  EXPECT_NE(prom.find("pay_ms_p99"), std::string::npos);
}

TEST(MetricsRegistry, ExportsAreByteDeterministic) {
  auto build = []() {
    MetricsRegistry reg;
    reg.counter("b_total").inc(2);
    reg.counter("a_total").inc(1);
    reg.gauge("g").set(1.25);
    auto& h = reg.histogram("lat_ms");
    for (int i = 1; i <= 32; ++i) h.record(static_cast<double>(i));
    return std::make_pair(reg.prometheus_text(), reg.json_text());
  };
  const auto first = build();
  const auto second = build();
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
}

// ---------------------------------------------------------------------------
// JsonWriter non-finite handling
// ---------------------------------------------------------------------------

TEST(JsonWriter, NonFiniteDoublesEmitNull) {
  // "%.6g" renders inf/nan as bare tokens, which is not JSON.  An empty
  // histogram's min is +inf and a 0/0 rate is NaN, and both reach the
  // JSON export — they must come out as null.
  JsonWriter w;
  w.field("pinf", std::numeric_limits<double>::infinity());
  w.field("ninf", -std::numeric_limits<double>::infinity());
  w.field("nan", std::nan(""));
  w.field("finite", 1.5);
  w.array_double("mixed", {1.0, std::numeric_limits<double>::infinity(),
                           std::nan("")});
  const std::string doc = w.finish();
  EXPECT_NE(doc.find("\"pinf\": null"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"ninf\": null"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"nan\": null"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"finite\": 1.5"), std::string::npos) << doc;
  EXPECT_NE(doc.find("[1, null, null]"), std::string::npos) << doc;
}

TEST(JsonWriter, EmptyHistogramJsonExportIsValid) {
  // Regression for the concrete production path: a registered-but-never-
  // recorded histogram exports min=+inf through the JSON emitter.
  MetricsRegistry reg;
  reg.histogram("never_recorded_ms");
  const std::string doc = reg.json_text();
  EXPECT_EQ(doc.find("inf"), std::string::npos) << doc;
  EXPECT_EQ(doc.find("nan"), std::string::npos) << doc;
}

// ---------------------------------------------------------------------------
// Trace layer
// ---------------------------------------------------------------------------

struct FakeClock {
  TimeMs now = 0;
  std::function<TimeMs()> fn() {
    return [this]() { return now; };
  }
};

TEST(Tracer, SpanLifecycleAndHierarchy) {
  FakeClock clock;
  TraceSink sink;
  MetricsRegistry reg;
  Tracer tracer(clock.fn(), &sink, &reg);

  const auto root = tracer.start_root("payment", 9);
  ASSERT_TRUE(root.valid());
  clock.now = 10;
  const auto child = tracer.start_child(root, "payment_commit", 9);
  ASSERT_TRUE(child.valid());
  EXPECT_EQ(child.trace, root.trace);
  EXPECT_TRUE(tracer.is_open(root));
  EXPECT_TRUE(tracer.is_open(child));

  clock.now = 40;
  tracer.end_span(child);
  clock.now = 50;
  tracer.end_span(root, "ok");
  EXPECT_EQ(tracer.open_spans(), 0u);

  auto spans = sink.spans_for(root.trace);
  ASSERT_EQ(spans.size(), 2u);
  // Completion order: child first.
  EXPECT_EQ(spans[0]->name, "payment_commit");
  EXPECT_EQ(spans[0]->parent, root.span);
  EXPECT_DOUBLE_EQ(spans[0]->start_ms, 10.0);
  EXPECT_DOUBLE_EQ(spans[0]->end_ms, 40.0);
  EXPECT_EQ(spans[1]->name, "payment");
  EXPECT_EQ(spans[1]->parent, 0u);

  // Durations landed in per-phase histograms.
  const auto* h = reg.find_histogram("span_payment_commit_ms");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 1u);
  EXPECT_DOUBLE_EQ(h->sum(), 30.0);
}

TEST(Tracer, InvalidParentPropagatesAsNoop) {
  FakeClock clock;
  TraceSink sink;
  Tracer tracer(clock.fn(), &sink);
  const TraceContext untraced{};
  const auto child = tracer.start_child(untraced, "x", 1);
  EXPECT_FALSE(child.valid());
  tracer.end_span(child);          // all no-ops
  tracer.event(child, "e", "d");
  EXPECT_EQ(sink.size(), 0u);
}

TEST(Tracer, DoubleEndIsIgnored) {
  FakeClock clock;
  TraceSink sink;
  Tracer tracer(clock.fn(), &sink);
  const auto root = tracer.start_root("withdraw", 1);
  tracer.end_span(root, "ok");
  tracer.end_span(root, "late-duplicate");  // span already closed
  EXPECT_EQ(sink.span_count(), 1u);
  EXPECT_EQ(sink.spans_for(root.trace)[0]->status, "ok");
}

TEST(Tracer, EventsAttachToSpans) {
  FakeClock clock;
  TraceSink sink;
  Tracer tracer(clock.fn(), &sink);
  const auto root = tracer.start_root("payment", 2);
  clock.now = 33;
  tracer.event(root, "rpc.retry", "resending transcript");
  tracer.end_span(root);
  const std::string jsonl = sink.to_jsonl();
  EXPECT_NE(jsonl.find("\"kind\":\"event\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"t_ms\":33"), std::string::npos);
  EXPECT_NE(jsonl.find("rpc.retry"), std::string::npos);
  EXPECT_EQ(sink.event_count(), 1u);
}

TEST(TraceSink, RingBufferDropsOldestAndCounts) {
  FakeClock clock;
  TraceSink sink(/*capacity=*/2);
  Tracer tracer(clock.fn(), &sink);
  for (int i = 0; i < 3; ++i) {
    std::string name = "s";
    name += std::to_string(i);
    const auto root = tracer.start_root(name, 0);
    tracer.end_span(root);
  }
  EXPECT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink.dropped(), 1u);
  EXPECT_EQ(sink.span_count(), 3u);  // total ever added
  const std::string jsonl = sink.to_jsonl();
  EXPECT_EQ(jsonl.find("\"name\":\"s0\""), std::string::npos);  // evicted
  EXPECT_NE(jsonl.find("\"name\":\"s2\""), std::string::npos);
}

TEST(TraceSink, TraceFilterAndClear) {
  FakeClock clock;
  TraceSink sink;
  Tracer tracer(clock.fn(), &sink);
  const auto t1 = tracer.start_root("one", 0);
  const auto t2 = tracer.start_root("two", 0);
  tracer.event(t1, "only-in-one");
  tracer.end_span(t1);
  tracer.end_span(t2);
  const std::string only = sink.trace_jsonl(t1.trace);
  EXPECT_NE(only.find("\"name\":\"one\""), std::string::npos);
  EXPECT_NE(only.find("only-in-one"), std::string::npos);
  EXPECT_EQ(only.find("\"name\":\"two\""), std::string::npos);
  sink.clear();
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.span_count(), 0u);
  EXPECT_EQ(sink.to_jsonl(), "");
}

TEST(TraceSink, JsonlGolden) {
  // Pins the export schema byte-for-byte: trace_lint.py, the timeline
  // renderer and the replay-determinism CI check all parse these lines.
  FakeClock clock;
  TraceSink sink;
  Tracer tracer(clock.fn(), &sink);
  const auto root = tracer.start_root("withdraw", 9);
  clock.now = 1.5;
  tracer.event(root, "rpc.retry", "resend \"withdraw.start\"");
  clock.now = 2.25;
  tracer.end_span(root, "ok");
  EXPECT_EQ(sink.to_jsonl(),
            "{\"kind\":\"event\",\"trace\":1,\"span\":1,\"t_ms\":1.5,"
            "\"name\":\"rpc.retry\",\"detail\":\"resend \\\"withdraw.start\\\""
            "\"}\n"
            "{\"kind\":\"span\",\"trace\":1,\"span\":1,\"parent\":0,"
            "\"name\":\"withdraw\",\"node\":9,\"start_ms\":0,\"end_ms\":2.25,"
            "\"status\":\"ok\"}\n");
}

TEST(TraceSink, NonFiniteTimesEmitNull) {
  // Trace lines follow the JsonWriter number rule: a NaN clock reading
  // must not leak a bare `nan` token into the JSONL.
  TraceSink sink;
  Tracer tracer([] { return std::numeric_limits<double>::quiet_NaN(); },
                &sink);
  const auto root = tracer.start_root("withdraw", 1);
  tracer.event(root, "rpc.retry");
  tracer.end_span(root, "ok");
  const std::string jsonl = sink.to_jsonl();
  EXPECT_EQ(jsonl.find("nan"), std::string::npos) << jsonl;
  EXPECT_NE(jsonl.find("\"t_ms\":null,"), std::string::npos) << jsonl;
  EXPECT_NE(jsonl.find("\"start_ms\":null,\"end_ms\":null,"),
            std::string::npos)
      << jsonl;
}

// ---------------------------------------------------------------------------
// Clock seam: the same Tracer runs on sim-time (SimWorld) or wall-clock
// (NodeRuntime) through obs::Clock.
// ---------------------------------------------------------------------------

TEST(Clock, ManualClockSetAndAdvance) {
  ManualClock clock;
  EXPECT_DOUBLE_EQ(clock.now_ms(), 0.0);
  clock.set(100.0);
  EXPECT_DOUBLE_EQ(clock.now_ms(), 100.0);
  clock.advance(2.5);
  EXPECT_DOUBLE_EQ(clock.now_ms(), 102.5);
}

TEST(Clock, WallClockIsMonotoneFromConstruction) {
  WallClock clock;
  const TimeMs a = clock.now_ms();
  const TimeMs b = clock.now_ms();
  EXPECT_GE(a, 0.0);  // epoch = construction time
  EXPECT_GE(b, a);
}

TEST(Clock, TracerRunsOnInjectedClock) {
  ManualClock clock;
  TraceSink sink;
  Tracer tracer(clock, &sink);
  const auto root = tracer.start_root("payment", 1);
  clock.set(42.0);
  tracer.end_span(root, "ok");
  auto spans = sink.spans_for(root.trace);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_DOUBLE_EQ(spans[0]->start_ms, 0.0);
  EXPECT_DOUBLE_EQ(spans[0]->end_ms, 42.0);
}

// ---------------------------------------------------------------------------
// Export metadata: the transport-kind line tooling uses to tell sim traces
// from TCP traces.
// ---------------------------------------------------------------------------

TEST(TraceSink, MetaLineGolden) {
  FakeClock clock;
  TraceSink sink;
  Tracer tracer(clock.fn(), &sink);
  sink.set_meta({"tcp", 8});
  const auto root = tracer.start_root("withdraw", 9);
  clock.now = 2.25;
  tracer.end_span(root, "ok");
  EXPECT_EQ(sink.to_jsonl(),
            "{\"kind\":\"meta\",\"transport\":\"tcp\",\"hardware_threads\":8}"
            "\n"
            "{\"kind\":\"span\",\"trace\":1,\"span\":1,\"parent\":0,"
            "\"name\":\"withdraw\",\"node\":9,\"start_ms\":0,\"end_ms\":2.25,"
            "\"status\":\"ok\"}\n");
  // The per-trace filter carries the same context line.
  EXPECT_NE(sink.trace_jsonl(root.trace).find("\"kind\":\"meta\""),
            std::string::npos);
}

TEST(TraceSink, MetaSurvivesClearAndAbsentByDefault) {
  FakeClock clock;
  TraceSink sink;
  Tracer tracer(clock.fn(), &sink);
  const auto root = tracer.start_root("x", 0);
  tracer.end_span(root);
  EXPECT_EQ(sink.to_jsonl().find("\"kind\":\"meta\""), std::string::npos);
  sink.set_meta({"sim", 4});
  sink.clear();
  // clear() evicts records but keeps the export context: the meta line is
  // all that remains.
  EXPECT_EQ(sink.to_jsonl(),
            "{\"kind\":\"meta\",\"transport\":\"sim\","
            "\"hardware_threads\":4}\n");
  const auto again = tracer.start_root("y", 0);
  tracer.end_span(again);
  EXPECT_NE(sink.to_jsonl().find("\"transport\":\"sim\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// FlightRecorder: lock-free crash breadcrumbs
// ---------------------------------------------------------------------------

TEST(FlightRecorder, RecordsAndSnapshotsInOrder) {
  ManualClock clock;
  FlightRecorder rec(16, clock_fn(clock));
  clock.set(1.0);
  rec.record("net.connect", "node 3");
  clock.set(2.0);
  rec.record("net.disconnect");
  EXPECT_EQ(rec.recorded(), 2u);
  auto snap = rec.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_STREQ(snap[0].name, "net.connect");
  EXPECT_STREQ(snap[0].detail, "node 3");
  EXPECT_DOUBLE_EQ(snap[0].t_ms, 1.0);
  EXPECT_STREQ(snap[1].name, "net.disconnect");
}

TEST(FlightRecorder, RingWrapsKeepingNewest) {
  ManualClock clock;
  FlightRecorder rec(8, clock_fn(clock));  // capacity rounds to exactly 8
  for (int i = 0; i < 20; ++i)
    rec.record("step", std::to_string(i));
  EXPECT_EQ(rec.recorded(), 20u);
  auto snap = rec.snapshot();
  ASSERT_EQ(snap.size(), 8u);
  EXPECT_STREQ(snap.front().detail, "12");  // oldest retained
  EXPECT_STREQ(snap.back().detail, "19");
}

TEST(FlightRecorder, OversizedFieldsTruncateNotOverflow) {
  ManualClock clock;
  FlightRecorder rec(8, clock_fn(clock));
  const std::string long_name(100, 'n');
  const std::string long_detail(500, 'd');
  rec.record(long_name, long_detail);
  auto snap = rec.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(std::string(snap[0].name).size(), sizeof(snap[0].name) - 1);
  EXPECT_EQ(std::string(snap[0].detail).size(), sizeof(snap[0].detail) - 1);
}

TEST(FlightRecorder, DumpToStringListsBreadcrumbs) {
  ManualClock clock;
  FlightRecorder rec(8, clock_fn(clock));
  clock.set(12.5);
  rec.record("net.queue_shed", "node 2: 4096 bytes");
  const std::string dump = rec.dump_to_string();
  EXPECT_NE(dump.find("# flight recorder: 1 recorded"), std::string::npos)
      << dump;
  EXPECT_NE(dump.find("net.queue_shed"), std::string::npos);
  EXPECT_NE(dump.find("node 2: 4096 bytes"), std::string::npos);
}

TEST(FlightRecorder, SigUsr1DumpsToArtifactAndContinues) {
  const char* path = "flight_sigusr1_artifact.txt";
  std::remove(path);
  ManualClock clock;
  FlightRecorder rec(8, clock_fn(clock));
  rec.set_artifact_path(path);
  EXPECT_EQ(rec.artifact_path(), path);
  rec.record("payment.start", "coin 7");
  FlightRecorder::install_process_hooks(&rec);
  std::raise(SIGUSR1);  // handler runs synchronously on this thread
  FlightRecorder::install_process_hooks(nullptr);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("reason=sigusr1"), std::string::npos) << ss.str();
  EXPECT_NE(ss.str().find("payment.start"), std::string::npos);
  std::remove(path);
}

TEST(FlightRecorderDeathTest, AbortDumpsArtifactBeforeDying) {
  // The SIGABRT hook must write the artifact, then re-raise with the
  // default disposition so the process still dies abnormally.  The death
  // test forks; the child's artifact file survives for us to inspect.
  const char* path = "flight_abort_artifact.txt";
  std::remove(path);
  EXPECT_DEATH(
      {
        static ManualClock clock;
        static FlightRecorder rec(8, clock_fn(clock));
        rec.set_artifact_path(path);
        rec.record("witness.sign", "pending endorsement");
        FlightRecorder::install_process_hooks(&rec);
        std::abort();
      },
      "flight recorder: dumped");
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("reason=abort"), std::string::npos) << ss.str();
  EXPECT_NE(ss.str().find("witness.sign"), std::string::npos);
  std::remove(path);
}

}  // namespace
}  // namespace p2pcash::obs
