// Unified pipeline configuration (the single source of truth for every
// user-facing knob).
//
// Historically each binary hand-parsed its own flags into the scattered
// *Options structs, so the CLI, the bench, and the run report each had
// their own idea of what a run's configuration was. `Config` replaces
// that: it aggregates LargeEaOptions plus the runtime/I-O knobs, binds
// every flag exactly once through a FlagRegistry (src/common/flags.h),
// and can snapshot the *effective* configuration into a RunReport — so
// `--help`, parsing, and reporting can never drift apart.
//
// Lifecycle:
//   Flags flags(argc, argv);
//   auto config = ConfigFromFlags(flags);        // bind + overlay + Validate
//   config->ApplyRuntime();                      // threads / simd / log level
//   RunLargeEa(dataset, config->pipeline);
//   config->WriteTo(report);                     // config section of the JSON
#ifndef LARGEEA_CORE_CONFIG_H_
#define LARGEEA_CORE_CONFIG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/core/large_ea.h"
#include "src/rt/status.h"

namespace largeea {

namespace obs {
class RunReport;
}  // namespace obs

/// Everything a LargeEA run is configured by: the pipeline options, the
/// selector strings Validate() parses into enums, the process-level
/// runtime knobs, and the I/O side channels. Plain data; copyable.
struct Config {
  /// The numeric pipeline configuration handed to RunLargeEa().
  LargeEaOptions pipeline;

  /// Selector strings (kept as strings so they bind/report naturally);
  /// Validate() parses them into the pipeline enums.
  std::string model = "rrea";        ///< rrea | gcn | transe
  std::string partition = "metis";   ///< metis | vps | none
  std::string metric = "manhattan";  ///< manhattan | dot

  /// Process-level runtime, applied by ApplyRuntime(). 0 threads means
  /// "LARGEEA_THREADS env or hardware concurrency"; empty simd means
  /// "LARGEEA_SIMD env or best available"; empty log_level keeps the
  /// current level.
  int64_t threads = 0;
  std::string simd;
  std::string log_level;

  /// I/O side channels (consumed by the binaries, not the pipeline).
  bool strict_io = false;
  std::string trace_out;
  std::string report_out;
  std::string out;

  /// Multi-process sharding (DESIGN.md §12). `shards > 0` makes `run`
  /// an orchestrator that re-invokes this binary once per shard with
  /// `--shard-worker i`; `shard_worker >= 0` makes it that worker. None
  /// of these enter the config fingerprint: a sharded run shares its
  /// checkpoints with the equivalent single-process run by design.
  int32_t shards = 0;
  int32_t shard_worker = -1;
  int32_t shard_max_retries = 2;
  int32_t shard_backoff_ms = 200;
  int32_t shard_heartbeat_ms = 250;
  int32_t shard_heartbeat_timeout_ms = 30000;
  int32_t shard_deadline_s = 0;
  bool shard_degrade = true;
  std::string shard_heartbeat_file;

  /// Kernel-level profiling (DESIGN.md §11). Off by default: the
  /// disabled profiler costs one relaxed atomic load per annotated
  /// kernel entry. When on, the run report gains a `profile` section and
  /// Chrome traces gain utilization/imbalance counter tracks.
  bool profile = false;

  /// Kernel autotuning (DESIGN.md §13). Every tunable parameter is
  /// reduction-order-neutral, so none of these enter the config
  /// fingerprint: a tuned run shares checkpoints — byte-identically —
  /// with the equivalent untuned run by design.
  bool autotune = false;          ///< startup sweep; winners installed
  std::string tune_file;          ///< load (and with --autotune, save)
  std::string tune_override;      ///< "name=value,..." explicit overrides
  double autotune_scale = 1.0;    ///< sweep shape scale (CI uses tiny)
  double autotune_min_time = 0.05;  ///< seconds per timed candidate

  /// Binds every flag to its field. Called by ConfigFromFlags and
  /// WriteTo; call it directly to compose Config with binary-local
  /// flags in one registry.
  void Register(FlagRegistry& registry);

  /// Parses the selector strings into pipeline enums and checks
  /// cross-field invariants (--resume requires --checkpoint-dir, the
  /// budget is sane, log level/simd names are known). kInvalidArgument
  /// with a flag-naming message on failure.
  Status Validate();

  /// Applies the runtime knobs to the process: log level, worker pool
  /// size, SIMD backend. Fails when the forced backend is not
  /// supported by this CPU (availability is machine-dependent, so it
  /// is checked here rather than in Validate()).
  Status ApplyRuntime() const;

  /// Writes the full effective configuration (every registered flag
  /// and its current value) into the report's config section.
  void WriteTo(obs::RunReport& report) const;
};

/// Flags -> Config: registers, overlays, validates. The returned Config
/// has NOT had ApplyRuntime() called.
StatusOr<Config> ConfigFromFlags(const Flags& flags);

/// Fails with kInvalidArgument naming the first flag in `flags` that is
/// neither a Config flag nor one of `local_flags` (the inputs a binary
/// reads itself, such as --source).
Status CheckFlagsKnown(const Flags& flags,
                       const std::vector<std::string>& local_flags);

/// `--help` text for every Config-bound flag, with defaults.
std::string ConfigHelp();

}  // namespace largeea

#endif  // LARGEEA_CORE_CONFIG_H_
