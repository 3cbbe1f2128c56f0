// Hierarchical RAII tracing spans, exportable as Chrome trace-event JSON.
//
// A Span measures one phase of the pipeline ("structure/train_batch",
// "name/sens", ...). Spans nest naturally through scoping: each thread
// keeps its own depth counter, so concurrent threads record independent,
// correctly-nested trees. Timing is always measured (Span doubles as the
// library's phase timer — see StructureChannelResult), but records are
// only retained when the process-wide TraceRecorder is enabled, so the
// cost of an un-traced span is two steady_clock reads.
//
// The exported JSON uses the Chrome trace-event "complete" (ph:"X")
// format and loads directly into chrome://tracing or Perfetto.
#ifndef LARGEEA_OBS_TRACE_H_
#define LARGEEA_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace largeea::obs {

/// One key/value attribute attached to a span (rendered into the trace
/// event's "args" and the run report).
struct SpanAttr {
  std::string key;
  std::string value;
};

/// A closed span as retained by the recorder.
struct SpanRecord {
  std::string name;
  int64_t start_us = 0;     ///< microseconds since the recorder's epoch
  int64_t duration_us = 0;  ///< wall-clock duration
  int32_t thread_id = 0;    ///< dense per-process thread index
  int32_t depth = 0;        ///< nesting depth at open (0 = top level)
  std::vector<SpanAttr> attrs;
};

/// Aggregate of all closed spans sharing a name.
struct SpanTotal {
  std::string name;
  int64_t count = 0;
  double total_seconds = 0.0;
};

/// One sample on a counter track (rendered by Chrome/Perfetto as a
/// stacked area chart under the thread timelines). The profiler emits
/// per-kernel utilization and imbalance samples here.
struct CounterRecord {
  std::string name;
  int64_t ts_us = 0;
  double value = 0.0;
};

/// Process-wide span sink. All methods are thread-safe.
class TraceRecorder {
 public:
  static TraceRecorder& Get();

  /// Starts retaining span records (and clears nothing — call Clear()
  /// first for a fresh trace).
  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Drops all retained records.
  void Clear();

  /// Copies out the retained records (arbitrary completion order).
  std::vector<SpanRecord> Records() const;

  /// Per-name totals over the retained records, sorted by descending
  /// total time. Nested spans are counted under their own name only.
  std::vector<SpanTotal> Totals() const;

  /// Serialises the retained records as Chrome trace-event JSON.
  /// Named threads are emitted as ph:"M" thread_name metadata events.
  std::string ToChromeTraceJson() const;

  /// Associates a display name with a dense thread id (see
  /// SetCurrentThreadName). Last call per tid wins.
  void SetThreadName(int32_t thread_id, std::string name);

  /// Writes ToChromeTraceJson() to `path`; false on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;

  /// Microseconds since the recorder's epoch (process start).
  int64_t NowMicros() const;

  /// Retains a closed span if enabled (called by Span::End).
  void Record(SpanRecord&& record);

  /// Retains a counter sample at the current time if enabled; exported
  /// as a Chrome trace-event ph:"C" counter track named `name`.
  void RecordCounter(std::string name, double value);

  /// Copies out the retained counter samples (record order).
  std::vector<CounterRecord> Counters() const;

 private:
  TraceRecorder();

  std::atomic<bool> enabled_{false};
  int64_t epoch_ns_ = 0;
  mutable std::mutex mu_;
  std::vector<SpanRecord> records_;
  std::vector<CounterRecord> counters_;
  std::vector<std::pair<int32_t, std::string>> thread_names_;
};

/// Dense per-process index of the calling thread (the tid used in span
/// records and the Chrome trace export).
int32_t CurrentThreadId();

/// Names the calling thread in the Chrome trace export ("main",
/// "par/worker-0", ...). Thread names persist across Clear().
void SetCurrentThreadName(std::string name);

/// RAII span. Opens at construction, closes (and records) at destruction
/// or at the first End() call, whichever comes first.
class Span {
 public:
  enum Flags : int {
    kNone = 0,
    /// Additionally opens a MemoryTracker phase: after End(),
    /// peak_bytes() reports the peak tracked working set while the span
    /// was open, and the phase record feeds the run report.
    kTrackMemory = 1,
  };

  explicit Span(const char* name, int flags = kNone);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches an attribute (no-op after End()).
  void AddAttr(std::string key, std::string value);
  void AddAttr(std::string key, int64_t value);
  void AddAttr(std::string key, double value);

  /// Closes the span now: records it, pops the nesting level, ends the
  /// memory phase if kTrackMemory. Returns the span's duration in
  /// seconds. Idempotent — later calls return the first result.
  double End();

  /// Seconds since the span opened (after End(): its final duration).
  double Seconds() const;

  /// Peak tracked bytes while the span was open. Requires kTrackMemory;
  /// valid after End().
  int64_t peak_bytes() const { return peak_bytes_; }

 private:
  const char* name_;
  int64_t start_us_ = 0;
  int64_t end_us_ = -1;  // -1 while open
  int32_t depth_ = 0;
  int32_t memory_phase_ = -1;  // MemoryTracker handle, -1 if untracked
  int64_t peak_bytes_ = 0;
  std::vector<SpanAttr> attrs_;
};

}  // namespace largeea::obs

// Opens a span for the rest of the enclosing scope.
#define LARGEEA_OBS_CONCAT_INNER(a, b) a##b
#define LARGEEA_OBS_CONCAT(a, b) LARGEEA_OBS_CONCAT_INNER(a, b)
#define LARGEEA_TRACE_SPAN(name)                                      \
  ::largeea::obs::Span LARGEEA_OBS_CONCAT(largeea_trace_span_,        \
                                          __LINE__)(name)

// Hot-path variant: compiles to nothing unless LARGEEA_OBS_HOT_TRACING is
// defined, so per-row sites (e.g. the top-k inner loop) cost zero in
// normal builds.
#ifdef LARGEEA_OBS_HOT_TRACING
#define LARGEEA_TRACE_HOT_SPAN(name) LARGEEA_TRACE_SPAN(name)
#else
#define LARGEEA_TRACE_HOT_SPAN(name) \
  do {                               \
  } while (false)
#endif

#endif  // LARGEEA_OBS_TRACE_H_
