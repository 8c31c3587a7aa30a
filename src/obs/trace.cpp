#include "obs/trace.h"

#include <cstdio>

#include "obs/clock.h"
#include "obs/json_writer.h"
#include "obs/metrics_registry.h"

namespace p2pcash::obs {

namespace {

void append_span_line(std::string& out, const SpanRecord& s) {
  out += "{\"kind\":\"span\",\"trace\":";
  out += std::to_string(s.trace);
  out += ",\"span\":";
  out += std::to_string(s.span);
  out += ",\"parent\":";
  out += std::to_string(s.parent);
  out += ",\"name\":\"";
  append_json_escaped(out, s.name);
  out += "\",\"node\":";
  out += std::to_string(s.node);
  out += ",\"start_ms\":";
  append_json_number(out, s.start_ms);
  out += ",\"end_ms\":";
  append_json_number(out, s.end_ms);
  out += ",\"status\":\"";
  append_json_escaped(out, s.status);
  out += "\"}\n";
}

void append_event_line(std::string& out, const EventRecord& e) {
  out += "{\"kind\":\"event\",\"trace\":";
  out += std::to_string(e.trace);
  out += ",\"span\":";
  out += std::to_string(e.span);
  out += ",\"t_ms\":";
  append_json_number(out, e.at_ms);
  out += ",\"name\":\"";
  append_json_escaped(out, e.name);
  out += "\",\"detail\":\"";
  append_json_escaped(out, e.detail);
  out += "\"}\n";
}

void append_meta_line(std::string& out, const TraceSink::Meta& m) {
  out += "{\"kind\":\"meta\",\"transport\":\"";
  append_json_escaped(out, m.transport);
  out += "\",\"hardware_threads\":";
  out += std::to_string(m.hardware_threads);
  out += "}\n";
}

}  // namespace

// ---------------------------------------------------------------------------
// TraceSink
// ---------------------------------------------------------------------------

void TraceSink::set_meta(Meta meta) {
  sync::MutexLock lock(mu_);
  meta_ = std::move(meta);
}

void TraceSink::push(Record record) {
  if (records_.size() >= capacity_) {
    records_.pop_front();
    ++dropped_;
  }
  records_.push_back(std::move(record));
}

void TraceSink::add_span(SpanRecord span) {
  sync::MutexLock lock(mu_);
  ++span_count_;
  Record r;
  r.is_span = true;
  r.span = std::move(span);
  push(std::move(r));
}

void TraceSink::add_event(EventRecord event) {
  sync::MutexLock lock(mu_);
  ++event_count_;
  Record r;
  r.is_span = false;
  r.event = std::move(event);
  push(std::move(r));
}

void TraceSink::clear() {
  sync::MutexLock lock(mu_);
  records_.clear();
  dropped_ = 0;
  span_count_ = 0;
  event_count_ = 0;
}

std::string TraceSink::to_jsonl() const {
  sync::MutexLock lock(mu_);
  std::string out;
  if (!meta_.transport.empty()) append_meta_line(out, meta_);
  for (const Record& r : records_) {
    if (r.is_span)
      append_span_line(out, r.span);
    else
      append_event_line(out, r.event);
  }
  return out;
}

std::string TraceSink::trace_jsonl(TraceId trace) const {
  sync::MutexLock lock(mu_);
  std::string out;
  if (!meta_.transport.empty()) append_meta_line(out, meta_);
  for (const Record& r : records_) {
    if (r.is_span && r.span.trace == trace)
      append_span_line(out, r.span);
    else if (!r.is_span && r.event.trace == trace)
      append_event_line(out, r.event);
  }
  return out;
}

bool TraceSink::write_jsonl(const std::string& path) const {
  const std::string doc = to_jsonl();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) {
    std::fprintf(stderr, "trace: cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fclose(f);
  std::printf("  wrote %s (%zu bytes)\n", path.c_str(), doc.size());
  return true;
}

std::vector<const SpanRecord*> TraceSink::spans_for(TraceId trace) const {
  std::vector<const SpanRecord*> out;
  for (const Record& r : records_) {
    if (r.is_span && r.span.trace == trace) out.push_back(&r.span);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

Tracer::Tracer(std::function<TimeMs()> clock, TraceSink* sink,
               MetricsRegistry* registry)
    : clock_(std::move(clock)), sink_(sink), registry_(registry) {}

Tracer::Tracer(const Clock& clock, TraceSink* sink, MetricsRegistry* registry)
    : Tracer(clock_fn(clock), sink, registry) {}

TraceContext Tracer::start_root(std::string_view name, std::uint32_t node) {
  const TimeMs now = clock_();
  sync::MutexLock lock(mu_);
  SpanRecord span;
  span.trace = next_trace_++;
  span.span = next_span_++;
  span.parent = 0;
  span.name = std::string(name);
  span.node = node;
  span.start_ms = now;
  const TraceContext ctx{span.trace, span.span};
  open_.emplace(span.span, std::move(span));
  return ctx;
}

TraceContext Tracer::start_child(const TraceContext& parent,
                                 std::string_view name, std::uint32_t node) {
  if (!parent.valid()) return {};
  const TimeMs now = clock_();
  sync::MutexLock lock(mu_);
  SpanRecord span;
  span.trace = parent.trace;
  span.span = next_span_++;
  span.parent = parent.span;
  span.name = std::string(name);
  span.node = node;
  span.start_ms = now;
  const TraceContext ctx{span.trace, span.span};
  open_.emplace(span.span, std::move(span));
  return ctx;
}

void Tracer::end_span(const TraceContext& ctx, std::string_view status) {
  if (!ctx.valid()) return;
  SpanRecord span;
  {
    sync::MutexLock lock(mu_);
    auto it = open_.find(ctx.span);
    if (it == open_.end()) return;  // already closed (or never opened)
    span = std::move(it->second);
    open_.erase(it);
  }
  // Downstream calls (registry histogram, sink append) run without the
  // tracer lock held: both take their own lower-level locks.
  span.end_ms = clock_();
  span.status = std::string(status);
  if (registry_)
    registry_->histogram("span_" + span.name + "_ms")
        .record(span.end_ms - span.start_ms);
  if (sink_) sink_->add_span(std::move(span));
}

void Tracer::event(const TraceContext& ctx, std::string_view name,
                   std::string_view detail) {
  if (!ctx.valid() || !sink_) return;
  EventRecord e;
  e.trace = ctx.trace;
  e.span = ctx.span;
  e.at_ms = clock_();
  e.name = std::string(name);
  e.detail = std::string(detail);
  sink_->add_event(std::move(e));
}

bool Tracer::is_open(const TraceContext& ctx) const {
  if (!ctx.valid()) return false;
  sync::MutexLock lock(mu_);
  return open_.contains(ctx.span);
}

}  // namespace p2pcash::obs
