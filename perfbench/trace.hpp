#pragma once
// In-memory span recorder for the benchmark's traced replay.
//
// A span is one call into a library layer, opened and closed around the
// call by the benchmark itself (the library is not instrumented).  Spans
// nest: a span opened while another is open records it as its parent, so a
// layer's self time is its duration minus the time covered by its children.
// Spans are kept in memory and written out once, after the replay, as JSON
// Lines and as a Chrome trace-event file (chrome://tracing, Perfetto).
//
// A disabled tracer reads no clock and records nothing; running the same
// replay with tracing off and on is what measures the tracer's overhead.

#include <chrono>
#include <cstddef>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  double start = 0.0;  // seconds since the tracer's origin
  double end = 0.0;
  int parent = -1;     // index of the enclosing span, -1 at top level
  int slot = -1;       // arrival slot the span serves, -1 for epoch-level work
};

/// Per-name totals over a span set: calls, inclusive time and self time.
struct LayerTime {
  std::size_t calls = 0;
  double total = 0.0;
  double self = 0.0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const noexcept { return enabled_; }

  int begin(const char* name, int slot) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.start = now();
    s.parent = open_.empty() ? -1 : open_.back();
    s.slot = slot;
    spans_.push_back(s);
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void end(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = now();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Calls, inclusive and self time per span name.
  std::map<std::string, LayerTime> layer_times() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
    std::map<std::string, LayerTime> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      LayerTime& t = out[spans_[i].name];
      const double d = spans_[i].end - spans_[i].start;
      ++t.calls;
      t.total += d;
      t.self += d - child[i];
    }
    return out;
  }

  /// Time covered by top-level spans (everything a layer was busy with).
  double top_level_seconds() const {
    double sum = 0.0;
    for (const Span& s : spans_) {
      if (s.parent < 0) sum += s.end - s.start;
    }
    return sum;
  }

  /// One JSON object per line: id, name, start/end seconds, parent, slot.
  void write_jsonl(const std::string& path) const {
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"start_s\":" << s.start
          << ",\"end_s\":" << s.end << ",\"parent\":" << s.parent << ",\"slot\":" << s.slot
          << "}\n";
    }
  }

  /// Chrome trace-event format: one complete ("X") event per span, in
  /// microseconds, all on one thread (the replay is single-threaded).
  void write_chrome(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
          << ",\"ts\":" << s.start * 1e6 << ",\"dur\":" << (s.end - s.start) * 1e6
          << ",\"args\":{\"slot\":" << s.slot << ",\"parent\":" << s.parent << "}}";
    }
    out << "\n]}\n";
  }

 private:
  using Clock = std::chrono::steady_clock;
  double now() const { return std::chrono::duration<double>(Clock::now() - origin_).count(); }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: opens on construction, closes on scope exit.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const char* name, int slot = -1) : t_(t), id_(t.begin(name, slot)) {}
  ~ScopedSpan() { t_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& t_;
  int id_;
};

}  // namespace perfbench
