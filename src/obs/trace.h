#ifndef TCM_OBS_TRACE_H_
#define TCM_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/timer.h"

namespace tcm {

// One completed span. Timestamps are microseconds on the process-local
// steady clock (zero at the first trace touch); tid is a small dense
// per-thread id; depth is the span-stack depth on that thread when the
// span opened (0 = top-level), so tests can assert nesting without
// re-deriving it from interval containment.
struct TraceEvent {
  std::string name;
  uint64_t ts_us = 0;   // span begin
  uint64_t dur_us = 0;  // span duration
  int tid = 0;
  int depth = 0;
};

// Process-wide span recorder behind `tcm_anonymize --trace-out` and the
// Job API trace sink. Disabled by default and designed so instrumented
// hot paths pay one relaxed atomic load per span when tracing is off —
// cheap enough for a span per MergeUntilTClose round. When enabled,
// completed spans are appended under a tcm::Mutex and exported as Chrome
// trace-event JSON ("X" complete events; open chrome://tracing or
// https://ui.perfetto.dev and load the file).
class TraceRecorder {
 public:
  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  static TraceRecorder& Global();

  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void Clear() TCM_EXCLUDES(mutex_);
  void Record(TraceEvent event) TCM_EXCLUDES(mutex_);
  std::vector<TraceEvent> Events() const TCM_EXCLUDES(mutex_);
  size_t event_count() const TCM_EXCLUDES(mutex_);

  // {"traceEvents": [{"name","cat","ph":"X","ts","dur","pid","tid",
  //                   "args":{"depth":d}}, ...]}
  JsonValue ChromeTraceJson() const TCM_EXCLUDES(mutex_);
  Status WriteChromeTrace(const std::string& path) const TCM_EXCLUDES(mutex_);

  // Microseconds on the process-local monotonic trace clock.
  static uint64_t NowMicros();
  // Dense id of the calling thread (assigned on first use).
  static int CurrentThreadId();

 private:
  std::atomic<bool> enabled_{false};
  mutable Mutex mutex_;
  std::vector<TraceEvent> events_ TCM_GUARDED_BY(mutex_);
};

// RAII span: records one TraceEvent on the global recorder covering the
// scope's lifetime. Nesting is tracked per thread; a span constructed
// while tracing is disabled stays inert even if tracing is enabled
// before it closes (and vice versa), so enable/disable races never
// corrupt the per-thread depth.
class TraceSpan {
 public:
  explicit TraceSpan(std::string_view name);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  bool active_;
  uint64_t start_us_ = 0;
  int depth_ = 0;
  std::string name_;
};

// RAII pipeline stage: a TraceSpan that also adds its wall-clock
// seconds to *seconds when it closes (nullptr records the span only).
// Stage timings in the engine and the Job API come from this one
// mechanism, so a report's "*_seconds" and the trace's spans measure
// the same interval.
class ScopedStage {
 public:
  ScopedStage(std::string_view name, double* seconds)
      : span_(name), seconds_(seconds) {}
  ~ScopedStage() {
    if (seconds_ != nullptr) *seconds_ += timer_.ElapsedSeconds();
  }

  ScopedStage(const ScopedStage&) = delete;
  ScopedStage& operator=(const ScopedStage&) = delete;

 private:
  TraceSpan span_;
  WallTimer timer_;
  double* seconds_;
};

// RAII trace collection for one run: Clear()s and Enable()s the global
// recorder on construction; Finish() disables it and, when a path was
// given, writes the Chrome trace file. The destructor calls Finish() if
// the caller did not, dropping any write error (call Finish() to see
// it). This is the `TraceSink` the Job API mounts when a spec asks for
// a trace (output.trace_path / --trace-out).
class TraceSink {
 public:
  explicit TraceSink(std::string path);
  ~TraceSink();

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  Status Finish();

 private:
  std::string path_;
  bool finished_ = false;
};

}  // namespace tcm

#endif  // TCM_OBS_TRACE_H_
