#include "src/obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "src/common/memory_tracker.h"
#include "src/obs/json_writer.h"

namespace largeea::obs {
namespace {

// Dense thread ids: the trace viewer groups events by tid, and small
// sequential ids read better than opaque pthread handles.
std::atomic<int32_t> next_thread_id{0};

int32_t ThreadId() {
  thread_local const int32_t id =
      next_thread_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

// Per-thread nesting depth, independent per thread so concurrent span
// trees stay correct.
thread_local int32_t span_depth = 0;

}  // namespace

TraceRecorder::TraceRecorder()
    : epoch_ns_(std::chrono::steady_clock::now().time_since_epoch().count()) {}

TraceRecorder& TraceRecorder::Get() {
  static TraceRecorder* const recorder = new TraceRecorder();
  return *recorder;
}

int64_t TraceRecorder::NowMicros() const {
  const int64_t now_ns =
      std::chrono::steady_clock::now().time_since_epoch().count();
  return (now_ns - epoch_ns_) / 1000;
}

void TraceRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  records_.clear();
  counters_.clear();
}

void TraceRecorder::Record(SpanRecord&& record) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(std::move(record));
}

void TraceRecorder::RecordCounter(std::string name, double value) {
  if (!enabled()) return;
  const int64_t ts = NowMicros();
  std::lock_guard<std::mutex> lock(mu_);
  counters_.push_back(CounterRecord{std::move(name), ts, value});
}

std::vector<CounterRecord> TraceRecorder::Counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

std::vector<SpanRecord> TraceRecorder::Records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

std::vector<SpanTotal> TraceRecorder::Totals() const {
  std::vector<SpanRecord> records = Records();
  std::vector<SpanTotal> totals;
  for (const SpanRecord& r : records) {
    auto it = std::find_if(totals.begin(), totals.end(),
                           [&](const SpanTotal& t) { return t.name == r.name; });
    if (it == totals.end()) {
      totals.push_back(SpanTotal{r.name, 0, 0.0});
      it = totals.end() - 1;
    }
    ++it->count;
    it->total_seconds += static_cast<double>(r.duration_us) * 1e-6;
  }
  std::sort(totals.begin(), totals.end(),
            [](const SpanTotal& a, const SpanTotal& b) {
              return a.total_seconds > b.total_seconds;
            });
  return totals;
}

void TraceRecorder::SetThreadName(int32_t thread_id, std::string name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& entry : thread_names_) {
    if (entry.first == thread_id) {
      entry.second = std::move(name);
      return;
    }
  }
  thread_names_.emplace_back(thread_id, std::move(name));
}

std::string TraceRecorder::ToChromeTraceJson() const {
  std::vector<SpanRecord> records = Records();
  std::vector<CounterRecord> counters = Counters();
  std::vector<std::pair<int32_t, std::string>> thread_names;
  {
    std::lock_guard<std::mutex> lock(mu_);
    thread_names = thread_names_;
  }
  std::sort(thread_names.begin(), thread_names.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  // Chrome renders nicer timelines when events are start-ordered.
  std::sort(records.begin(), records.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_us < b.start_us;
            });
  JsonWriter w;
  w.BeginObject();
  w.Key("displayTimeUnit").String("ms");
  w.Key("traceEvents").BeginArray();
  for (const auto& [tid, name] : thread_names) {
    w.BeginObject();
    w.Key("name").String("thread_name");
    w.Key("ph").String("M");
    w.Key("pid").Int(1);
    w.Key("tid").Int(tid);
    w.Key("args").BeginObject();
    w.Key("name").String(name);
    w.EndObject();
    w.EndObject();
  }
  for (const SpanRecord& r : records) {
    w.BeginObject();
    w.Key("name").String(r.name);
    w.Key("cat").String("largeea");
    w.Key("ph").String("X");
    w.Key("ts").Int(r.start_us);
    w.Key("dur").Int(r.duration_us);
    w.Key("pid").Int(1);
    w.Key("tid").Int(r.thread_id);
    w.Key("args").BeginObject();
    w.Key("depth").Int(r.depth);
    for (const SpanAttr& a : r.attrs) {
      w.Key(a.key).String(a.value);
    }
    w.EndObject();
    w.EndObject();
  }
  // Counter tracks (ph:"C"): one track per counter name, one sample per
  // record. Chrome keys the track by (pid, name) and plots args values.
  for (const CounterRecord& c : counters) {
    w.BeginObject();
    w.Key("name").String(c.name);
    w.Key("cat").String("largeea");
    w.Key("ph").String("C");
    w.Key("ts").Int(c.ts_us);
    w.Key("pid").Int(1);
    w.Key("args").BeginObject();
    w.Key("value").Double(c.value);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

bool TraceRecorder::WriteChromeTrace(const std::string& path) const {
  return WriteStringToFile(path, ToChromeTraceJson());
}

int32_t CurrentThreadId() { return ThreadId(); }

void SetCurrentThreadName(std::string name) {
  TraceRecorder::Get().SetThreadName(ThreadId(), std::move(name));
}

Span::Span(const char* name, int flags) : name_(name) {
  start_us_ = TraceRecorder::Get().NowMicros();
  depth_ = span_depth++;
  if ((flags & kTrackMemory) != 0) {
    memory_phase_ = MemoryTracker::Get().BeginPhase(name);
  }
}

Span::~Span() { End(); }

void Span::AddAttr(std::string key, std::string value) {
  if (end_us_ >= 0) return;
  attrs_.push_back(SpanAttr{std::move(key), std::move(value)});
}

void Span::AddAttr(std::string key, int64_t value) {
  AddAttr(std::move(key), std::to_string(value));
}

void Span::AddAttr(std::string key, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  AddAttr(std::move(key), std::string(buf));
}

double Span::End() {
  if (end_us_ >= 0) return Seconds();
  if (memory_phase_ >= 0) {
    const MemoryPhase phase = MemoryTracker::Get().EndPhase(memory_phase_);
    peak_bytes_ = phase.peak_bytes;
    AddAttr("peak_bytes", phase.peak_bytes);
  }
  end_us_ = TraceRecorder::Get().NowMicros();
  --span_depth;
  TraceRecorder& recorder = TraceRecorder::Get();
  if (recorder.enabled()) {
    SpanRecord record;
    record.name = name_;
    record.start_us = start_us_;
    record.duration_us = end_us_ - start_us_;
    record.thread_id = ThreadId();
    record.depth = depth_;
    record.attrs = std::move(attrs_);
    recorder.Record(std::move(record));
  }
  return Seconds();
}

double Span::Seconds() const {
  const int64_t end =
      end_us_ >= 0 ? end_us_ : TraceRecorder::Get().NowMicros();
  return static_cast<double>(end - start_us_) * 1e-6;
}

}  // namespace largeea::obs
