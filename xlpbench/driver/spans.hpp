#pragma once

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace xlpbench {

/// In-memory span recorder for the traced run. Each span is one call into
/// a layer's public function, made by the benchmark driver itself; the
/// program under test gets no new instrumentation. Spans nest per thread
/// (a thread-local stack gives each span its parent), stay in memory while
/// the run measures, and are serialized once at the end.
///
/// Disabled, a Span guard reads one bool and does nothing else, so the
/// untraced iterations that produce the end-to-end numbers pay nothing.
class SpanRecorder {
 public:
  struct Record {
    std::string name;
    std::string request_id;  ///< svc round trips only
    long parent = -1;        ///< index into records(), -1 for a root span
    double start_s = 0.0;    ///< seconds since the recorder was created
    double end_s = 0.0;
  };

  /// Per-name totals: inclusive time, and self time (the span minus the
  /// part its direct children cover).
  struct Totals {
    long count = 0;
    double inclusive_s = 0.0;
    double self_s = 0.0;
  };

  static SpanRecorder& global();

  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  [[nodiscard]] long begin(const char* name, std::string request_id);
  void end(long index);

  [[nodiscard]] std::map<std::string, Totals> totals() const;
  /// Drops recorded spans (the per-name totals restart from zero).
  void clear();

  /// {"spans": [...], "layers": {name: {count, inclusive_ms, self_ms}}}.
  [[nodiscard]] xlp::obs::Json to_json() const;

 private:
  [[nodiscard]] double now() const;

  bool enabled_ = false;
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  mutable std::mutex mutex_;
  std::vector<Record> records_;
};

/// RAII span around one public call; a no-op while recording is off.
class Span {
 public:
  explicit Span(const char* name, std::string request_id = {})
      : index_(SpanRecorder::global().enabled()
                   ? SpanRecorder::global().begin(name, std::move(request_id))
                   : -1) {}
  ~Span() {
    if (index_ >= 0) SpanRecorder::global().end(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  long index_;
};

}  // namespace xlpbench
