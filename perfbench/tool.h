// Shared pieces of perfbench_tool, the benchmark's helper binary.
//
//   perfbench_tool gen   --out DIR --seed N [--tier dbp1m] [--scale 1.0]
//   perfbench_tool meta
//   perfbench_tool trace --mode run|retrain|serve --dataset DIR ...
//   perfbench_tool load  --index FILE --cli PATH --dataset DIR ...
//
// `gen` writes the seeded dataset the CLI is run on, `meta` prints the
// SIMD backend, pool size and tuning state, `trace` is the
// in-process traced run (spans around each layer's public calls), and
// `load` is the open-loop serve load generator and answer checker. Each
// writes one JSON document that perfbench/run.py turns into metrics.
#ifndef PERFBENCH_TOOL_H_
#define PERFBENCH_TOOL_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/kg/dataset.h"
#include "src/obs/json_writer.h"

namespace perfbench {

int CmdTrace(const largeea::Flags& flags);
int CmdLoad(const largeea::Flags& flags);

/// Seconds since the first call (one steady clock for every timestamp a
/// tool process records).
double NowSeconds();

/// Loads the dataset `gen` wrote into `dir`.
largeea::StatusOr<largeea::EaDataset> LoadDatasetDir(const std::string& dir,
                                                     bool strict_io);

/// One line of the serve protocol the load generator sends.
struct Request {
  enum class Kind { kEntity, kName, kSwap };
  Kind kind = Kind::kEntity;
  double due_s = 0.0;  ///< offset from the start of its phase
  largeea::EntityId entity = largeea::kInvalidEntity;
  std::string name;
  std::string line;  ///< the JSON request, without the newline
};

/// The serve workload's fixed shape; only the seed and the open-loop
/// length change from run to run.
inline constexpr double kServeRate = 500.0;   ///< open-loop requests/s
inline constexpr double kSwapEveryS = 10.0;   ///< swap period
inline constexpr int32_t kBurstNames = 5000;  ///< name queries per burst
inline constexpr int kStartupReps = 3;        ///< spawns timed in set-up
inline constexpr int kBursts = 7;             ///< the first only warms up
inline constexpr int kRecallSample = 500;     ///< name answers vs exact

/// Open-loop phase: Poisson arrivals at kServeRate per second for
/// `seconds`, half entity queries (uniform source ids) and half name
/// queries (names of uniform source entities), k = 10, plus a swap op
/// reloading `index_path` every kSwapEveryS seconds (the first at half a
/// period).
std::vector<Request> OpenLoopSchedule(const largeea::EaDataset& dataset,
                                      uint64_t seed, double seconds,
                                      const std::string& index_path);

/// Burst phase, written at once: an entity query for every test-pair
/// source (in test order), then kBurstNames name queries drawn like the
/// open-loop ones.
std::vector<Request> BurstScript(const largeea::EaDataset& dataset,
                                 uint64_t seed);

/// What a protocol response line says, read without a full JSON parse
/// (the serve loop writes these lines itself, see src/serve/serve_loop.cc).
struct ParsedResponse {
  bool ok = false;
  int64_t version = -1;
  std::vector<int32_t> targets;  ///< candidate target ids, best first
};
ParsedResponse ParseResponse(const std::string& line);

/// Median of `values` (0 when empty); sorts a copy.
double Median(std::vector<double> values);

bool WriteFile(const std::string& path, const std::string& contents);

}  // namespace perfbench

#endif  // PERFBENCH_TOOL_H_
