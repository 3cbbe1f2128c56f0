// Open-loop load generator and answer checker for `largeea_cli serve`.
//
// One process, two threads over the serve pipes: the writer sends each
// request when its seeded Poisson schedule says it is due (it never
// waits for answers, so a stalled server builds a queue and the stall
// shows in every later request's latency); the reader stamps each
// response line as it arrives. Latency is measured from the due time.
// After the open-loop phase, a burst script is written at once, several
// times, to measure saturation (the first burst only warms up). Every
// answer is then checked against the same artifact loaded in this
// process.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "perfbench/tool.h"
#include "src/serve/index_manager.h"
#include "src/serve/query_engine.h"

extern char** environ;

namespace perfbench {
namespace {

namespace serve = largeea::serve;

/// A spawned `largeea_cli serve` with its stdin/stdout pipes.
class ServeProcess {
 public:
  ServeProcess(const std::string& cli, const std::string& index,
               const std::string& report, const std::string& log) {
    int in_pipe[2], out_pipe[2];
    if (pipe(in_pipe) != 0 || pipe(out_pipe) != 0) return;
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, in_pipe[0], STDIN_FILENO);
    posix_spawn_file_actions_adddup2(&actions, out_pipe[1], STDOUT_FILENO);
    posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    for (const int fd : {in_pipe[0], in_pipe[1], out_pipe[0], out_pipe[1]}) {
      posix_spawn_file_actions_addclose(&actions, fd);
    }
    std::vector<std::string> args = {cli, "serve", "--index", index,
                                     "--report-out", report};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, cli.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(in_pipe[0]);
    close(out_pipe[1]);
    to_child_ = in_pipe[1];
    from_child_ = out_pipe[0];
    if (rc != 0) pid_ = -1;
  }

  ~ServeProcess() {
    CloseInput();
    if (from_child_ >= 0) close(from_child_);
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      Wait();
    }
  }

  ServeProcess(const ServeProcess&) = delete;
  ServeProcess& operator=(const ServeProcess&) = delete;

  bool ok() const { return pid_ > 0; }

  bool Write(const std::string& data) {
    size_t done = 0;
    while (done < data.size()) {
      const ssize_t n =
          write(to_child_, data.data() + done, data.size() - done);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      done += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads whatever is available (blocking); false on EOF or error.
  bool Read(std::string& buffer) {
    char chunk[1 << 16];
    while (true) {
      const ssize_t n = read(from_child_, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buffer.append(chunk, static_cast<size_t>(n));
      return true;
    }
  }

  /// SIGKILL; the reader then sees EOF on the child's stdout.
  void Kill() {
    if (pid_ > 0) kill(pid_, SIGKILL);
  }

  void CloseInput() {
    if (to_child_ >= 0) close(to_child_);
    to_child_ = -1;
  }

  /// Reaps the child; returns its wait status and peak RSS (KiB).
  std::pair<int, int64_t> Wait() {
    int status = 0;
    rusage usage{};
    while (wait4(pid_, &status, 0, &usage) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    return {status, static_cast<int64_t>(usage.ru_maxrss)};
  }

 private:
  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
};

/// The reader thread's output: response lines with arrival stamps.
class ResponseLog {
 public:
  void Run(ServeProcess& process) {
    std::string buffer;
    while (process.Read(buffer)) {
      const double now = NowSeconds();
      size_t start = 0;
      std::lock_guard<std::mutex> lock(mutex_);
      for (size_t nl; (nl = buffer.find('\n', start)) != std::string::npos;
           start = nl + 1) {
        lines_.push_back(buffer.substr(start, nl - start));
        times_.push_back(now);
      }
      buffer.erase(0, start);
      arrived_.notify_all();
    }
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    arrived_.notify_all();
  }

  /// Waits until `count` lines arrived; false on EOF or timeout.
  bool WaitFor(size_t count, double timeout_s) {
    std::unique_lock<std::mutex> lock(mutex_);
    return arrived_.wait_for(
               lock, std::chrono::duration<double>(timeout_s),
               [&] { return lines_.size() >= count || closed_; }) &&
           lines_.size() >= count;
  }

  /// Only call after the reader thread has been joined.
  const std::vector<std::string>& lines() const { return lines_; }
  const std::vector<double>& times() const { return times_; }

 private:
  std::mutex mutex_;
  std::condition_variable arrived_;
  std::vector<std::string> lines_;
  std::vector<double> times_;
  bool closed_ = false;
};

constexpr double kResponseTimeoutS = 60.0;

void WriteArray(largeea::obs::JsonWriter& w, const char* key,
                const std::vector<double>& values) {
  w.Key(key).BeginArray();
  for (const double v : values) w.Double(v);
  w.EndArray();
}

}  // namespace

int CmdLoad(const largeea::Flags& flags) {
  signal(SIGPIPE, SIG_IGN);
  const std::string cli = flags.GetString("cli", "");
  const std::string index_path = flags.GetString("index", "");
  const std::string log = flags.GetString("serve-log", "/dev/null");
  const std::string report = flags.GetString("serve-report", "/dev/null");
  const auto seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const double seconds = flags.GetDouble("seconds", 10.0);

  auto dataset = LoadDatasetDir(flags.GetString("dataset", ""), false);
  if (!dataset.ok()) {
    std::fprintf(stderr, "load: %s\n", dataset.status().ToString().c_str());
    return 2;
  }
  serve::IndexManager manager;
  if (const largeea::Status s = manager.LoadAndSwap(index_path); !s.ok()) {
    std::fprintf(stderr, "load: %s\n", s.ToString().c_str());
    return 2;
  }
  const std::vector<Request> open_loop =
      OpenLoopSchedule(*dataset, seed, seconds, index_path);
  const std::vector<Request> burst = BurstScript(*dataset, seed);

  // Start-up: spawn to first answer, several times; the last process
  // stays up for the measured phases.
  const std::string warm =
      "{\"op\":\"query\",\"entity\":0,\"k\":10}\n";
  std::vector<double> startup_s;
  std::unique_ptr<ServeProcess> process;
  std::unique_ptr<ResponseLog> responses;
  std::thread reader;
  for (int rep = 0; rep < kStartupReps; ++rep) {
    if (reader.joinable()) {
      process->Write("{\"op\":\"quit\"}\n");
      process->CloseInput();
      reader.join();
      process->Wait();
    }
    const double spawned_at = NowSeconds();
    process = std::make_unique<ServeProcess>(cli, index_path, report, log);
    if (!process->ok()) {
      std::fprintf(stderr, "load: cannot spawn %s\n", cli.c_str());
      return 2;
    }
    responses = std::make_unique<ResponseLog>();
    reader = std::thread([&p = *process, &r = *responses] { r.Run(p); });
    if (!process->Write(warm) || !responses->WaitFor(1, kResponseTimeoutS)) {
      std::fprintf(stderr, "load: serve never answered (see %s)\n",
                   log.c_str());
      process->Kill();
      reader.join();
      return 1;
    }
    startup_s.push_back(NowSeconds() - spawned_at);
  }

  // Writer thread: open loop on schedule, drain, then each burst at once.
  std::vector<double> sent_at(open_loop.size(), 0.0);
  std::vector<double> burst_start(kBursts, 0.0);
  double phase_start = 0.0, late_max_s = 0.0;
  bool complete = true;
  std::thread writer([&] {
    phase_start = NowSeconds();
    for (size_t i = 0; i < open_loop.size(); ++i) {
      const double due = phase_start + open_loop[i].due_s;
      const double wait = due - NowSeconds();
      if (wait > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      }
      sent_at[i] = NowSeconds();
      late_max_s = std::max(late_max_s, sent_at[i] - due);
      if (!process->Write(open_loop[i].line + "\n")) {
        complete = false;
        return;
      }
    }
    if (!responses->WaitFor(1 + open_loop.size(), kResponseTimeoutS)) {
      complete = false;
      return;
    }
    std::string script;
    for (const Request& r : burst) script += r.line + "\n";
    for (int b = 0; b < kBursts; ++b) {
      burst_start[b] = NowSeconds();
      if (!process->Write(script) ||
          !responses->WaitFor(1 + open_loop.size() + (b + 1) * burst.size(),
                              kResponseTimeoutS)) {
        complete = false;
        return;
      }
    }
    complete = process->Write("{\"op\":\"quit\"}\n");
  });
  writer.join();
  process->CloseInput();
  if (!complete) process->Kill();
  reader.join();
  const auto [wait_status, rss_kib] = process->Wait();

  // Check every answer against the in-process artifact.
  const std::vector<std::string>& lines = responses->lines();
  const std::vector<double>& times = responses->times();
  serve::QueryEngine engine(&manager);
  const auto index = manager.Current();
  std::vector<double> entity_us, name_us, swap_s;
  int64_t attempted = 0, failed = 0, mismatches = 0, version_errors = 0;
  int64_t recall_hits = 0, recall_total = 0, recall_queries = 0;
  int64_t last_version = 0;
  double hits1 = 0.0, rr = 0.0;
  size_t test_index = 0;
  std::string first_mismatch;
  // Bursts repeat their names; each expected answer is computed once.
  std::unordered_map<std::string, std::vector<int32_t>> expected_names;
  const auto check = [&](const Request& r, size_t line_no) {
    ++attempted;
    if (line_no >= lines.size()) {
      ++failed;
      return;
    }
    const ParsedResponse got = ParseResponse(lines[line_no]);
    if (!got.ok) {
      ++failed;
      return;
    }
    if (r.kind == Request::Kind::kSwap) {
      if (got.version != last_version + 1) ++version_errors;
      last_version = got.version;
      return;
    }
    if (got.version != last_version) ++version_errors;
    std::vector<int32_t> want;
    if (r.kind == Request::Kind::kEntity) {
      const auto row = index->fused().Row(r.entity);
      if (!row.empty()) want.push_back(row[0].column);
      const size_t top = std::min<size_t>(1, got.targets.size());
      if (!std::equal(got.targets.begin(), got.targets.begin() + top,
                      want.begin(), want.end())) {
        ++mismatches;
      }
      return;
    }
    serve::QueryRequest request;
    request.kind = serve::QueryRequest::Kind::kName;
    request.name = r.name;
    request.k = 10;
    auto [cached, fresh] = expected_names.try_emplace(r.name);
    if (fresh) {
      for (const auto& c : engine.Execute(request).candidates) {
        cached->second.push_back(c.target);
      }
    }
    want = cached->second;
    if (got.targets != want) {
      if (first_mismatch.empty()) first_mismatch = r.line;
      ++mismatches;
    }
    if (recall_queries < kRecallSample) {
      ++recall_queries;
      request.exact = true;
      for (const auto& c : engine.Execute(request).candidates) {
        ++recall_total;
        recall_hits += std::count(got.targets.begin(), got.targets.end(),
                                  c.target);
      }
    }
  };

  // Line 0 answered the warm-up query.
  last_version = lines.empty() ? 0 : ParseResponse(lines[0]).version;
  for (size_t i = 0; i < open_loop.size(); ++i) {
    const Request& r = open_loop[i];
    const size_t line_no = 1 + i;
    check(r, line_no);
    if (line_no >= times.size()) continue;
    const double due = phase_start + r.due_s;
    switch (r.kind) {
      case Request::Kind::kEntity:
        entity_us.push_back((times[line_no] - due) * 1e6);
        break;
      case Request::Kind::kName:
        name_us.push_back((times[line_no] - due) * 1e6);
        break;
      case Request::Kind::kSwap:
        swap_s.push_back(times[line_no] - sent_at[i]);
        break;
    }
  }
  std::vector<double> burst_s;
  for (int b = 0; b < kBursts; ++b) {
    double burst_end = burst_start[b];
    for (size_t i = 0; i < burst.size(); ++i) {
      const size_t line_no = 1 + open_loop.size() + b * burst.size() + i;
      check(burst[i], line_no);
      if (line_no < times.size()) {
        burst_end = std::max(burst_end, times[line_no]);
      }
    }
    burst_s.push_back(burst_end - burst_start[b]);
  }
  for (size_t i = 0; i < burst.size(); ++i) {
    const size_t line_no = 1 + open_loop.size() + i;
    if (burst[i].kind != Request::Kind::kEntity || line_no >= lines.size()) {
      continue;
    }
    // Burst entity queries are the test pairs, in order: served quality.
    const largeea::EntityId truth = dataset->split.test[test_index++].target;
    const std::vector<int32_t> targets = ParseResponse(lines[line_no]).targets;
    const auto it = std::find(targets.begin(), targets.end(), truth);
    if (it != targets.end()) {
      const auto rank = static_cast<double>(it - targets.begin()) + 1;
      hits1 += rank == 1 ? 1.0 : 0.0;
      rr += 1.0 / rank;
    }
  }
  const double tests = std::max<double>(1.0, dataset->split.test.size());

  largeea::obs::JsonWriter w;
  w.BeginObject()
      .Key("complete").Bool(complete)
      .Key("exit_status").Int(wait_status)
      .Key("attempted").Int(attempted)
      .Key("failed").Int(failed)
      .Key("mismatches").Int(mismatches)
      .Key("first_mismatch").String(first_mismatch)
      .Key("version_errors").Int(version_errors)
      .Key("swaps").Int(static_cast<int64_t>(swap_s.size()))
      .Key("peak_rss_mb").Double(static_cast<double>(rss_kib) / 1024)
      .Key("burst_requests").Int(static_cast<int64_t>(burst.size()))
      .Key("late_max_ms").Double(late_max_s * 1e3)
      .Key("hits_at_1").Double(hits1 / tests)
      .Key("mrr").Double(rr / tests)
      .Key("recall_at_10")
      .Double(recall_total > 0 ? static_cast<double>(recall_hits) /
                                     static_cast<double>(recall_total)
                               : 0.0);
  WriteArray(w, "startup_s", startup_s);
  WriteArray(w, "entity_us", entity_us);
  WriteArray(w, "name_us", name_us);
  WriteArray(w, "swap_s", swap_s);
  WriteArray(w, "burst_s", burst_s);
  w.EndObject();
  if (!WriteFile(flags.GetString("out", ""), w.str())) {
    std::fprintf(stderr, "load: cannot write --out\n");
    return 1;
  }
  return 0;
}

}  // namespace perfbench
