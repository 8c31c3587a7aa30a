// json_writer.h — minimal ordered-key JSON emitter.
//
// Shared by the bench baselines (BENCH_*.json), the observability exports
// (METRICS_*.json) and, through its two free functions, the trace JSONL
// lines: one serializer so every machine-readable artifact this repo
// writes has the same number and escaping rules.  Keys are emitted in
// insertion order so diffs between runs stay readable, and doubles are
// formatted with a fixed "%.6g" (non-finite values as null — bare inf/nan
// tokens are not JSON) so the same run always produces byte-identical
// output (a property the trace layer's replay-determinism check relies
// on).

#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace p2pcash::obs {

/// Appends `value` as a JSON number in the fixed "%.6g" format.  "%.6g"
/// renders non-finite doubles as bare `inf` / `nan` tokens, which is not
/// JSON (an empty histogram's min is +inf, a 0/0 rate is NaN), so those
/// become `null` and every artifact stays machine-parseable.
inline void append_json_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  out += buf;
}

/// Appends `s` with JSON string escaping (no surrounding quotes).
inline void append_json_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
}

/// Ordered-key JSON emitter.  Supports exactly what the bench baselines
/// and metrics exports need: nested objects, flat arrays, string/number
/// fields.
class JsonWriter {
 public:
  JsonWriter() { open_scope('{'); }

  JsonWriter& field(const std::string& key, const std::string& value) {
    emit_key(key);
    emit_string(value);
    return *this;
  }

  JsonWriter& field(const std::string& key, double value) {
    emit_key(key);
    append_json_number(out_, value);
    return *this;
  }

  JsonWriter& field(const std::string& key, std::uint64_t value) {
    emit_key(key);
    out_ += std::to_string(value);
    return *this;
  }

  JsonWriter& field(const std::string& key, int value) {
    emit_key(key);
    out_ += std::to_string(value);
    return *this;
  }

  JsonWriter& begin_object(const std::string& key) {
    emit_key(key);
    open_scope('{');
    return *this;
  }

  JsonWriter& end_object() {
    indent_.resize(indent_.size() - 2);
    out_ += '\n';
    out_ += indent_;
    out_ += '}';
    comma_.pop_back();
    return *this;
  }

  /// Flat array of numbers, emitted on one line: "key": [1, 2, 3].
  JsonWriter& array_u64(const std::string& key,
                        const std::vector<std::uint64_t>& values) {
    emit_key(key);
    out_ += '[';
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out_ += ", ";
      out_ += std::to_string(values[i]);
    }
    out_ += ']';
    return *this;
  }

  /// Flat array of doubles, emitted on one line.
  JsonWriter& array_double(const std::string& key,
                           const std::vector<double>& values) {
    emit_key(key);
    out_ += '[';
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out_ += ", ";
      append_json_number(out_, values[i]);
    }
    out_ += ']';
    return *this;
  }

  /// Closes the root object and returns the document.  The writer is
  /// spent afterwards.
  std::string finish() {
    while (!comma_.empty()) end_object();
    out_ += '\n';
    return std::move(out_);
  }

  /// Writes `finish()` to `path`; returns false (and prints) on failure.
  bool write_file(const std::string& path) {
    std::string doc = finish();
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (!f) {
      std::fprintf(stderr, "json: cannot write %s\n", path.c_str());
      return false;
    }
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
    std::printf("  wrote %s (%zu bytes)\n", path.c_str(), doc.size());
    return true;
  }

 private:
  void open_scope(char brace) {
    out_ += brace;
    comma_.push_back(false);
    indent_ += "  ";
  }

  void emit_key(const std::string& key) {
    if (comma_.back()) out_ += ',';
    comma_.back() = true;
    out_ += '\n';
    out_ += indent_;
    out_ += '"';
    append_json_escaped(out_, key);
    out_ += "\": ";
  }

  void emit_string(const std::string& value) {
    out_ += '"';
    append_json_escaped(out_, value);
    out_ += '"';
  }

  std::string out_;
  std::string indent_;
  std::vector<bool> comma_;
};

}  // namespace p2pcash::obs
