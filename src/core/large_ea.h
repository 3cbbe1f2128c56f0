// LargeEA — the full two-channel pipeline (Figure 2).
//
// Algorithm 1 runs as nine operators, in this order, on the calling
// thread (DESIGN.md §14):
//
//   name_semantic → name_string → name_fuse → name_augmentation →
//   seed_augmentation → partition → structure_train → fusion → evaluate
//
// The name channel produces M_n and pseudo seeds; the pseudo seeds join
// ψ'; the structure channel trains per mini-batch and produces M_s; the
// channels fuse as M = M_s + M_n; the fused matrix is evaluated against
// the held-out test pairs. Each operator runs inside a "dag/<name>"
// memory-tracked span, so the run report gets one row per operator.
//
// Fault tolerance: with a checkpoint directory configured, every
// operator persists its artifact (each stamped with a per-node
// fingerprint, src/core/pipeline_fingerprint.h), and a `resume` run
// restores completed artifacts instead of recomputing them —
// bit-identically, because every operator is deterministic given the
// options and the checkpoints round-trip floats exactly. A changed
// option re-executes only the operators downstream of it. See DESIGN.md
// §7 for the failure model.
#ifndef LARGEEA_CORE_LARGE_EA_H_
#define LARGEEA_CORE_LARGE_EA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/evaluator.h"
#include "src/core/name_channel.h"
#include "src/core/structure_channel.h"
#include "src/kg/dataset.h"
#include "src/rt/checkpoint.h"
#include "src/rt/status.h"
#include "src/stream/stream_options.h"

namespace largeea {

namespace stream {
class StreamContext;
}  // namespace stream

/// Checkpoint/resume configuration for a pipeline run.
struct FaultToleranceOptions {
  /// Directory for phase checkpoints; empty disables checkpointing.
  std::string checkpoint_dir;
  /// Restore completed phases from `checkpoint_dir` instead of
  /// recomputing them. Checkpoints written under a different
  /// configuration fingerprint are ignored (with a warning), never
  /// silently reused.
  bool resume = false;
};

struct LargeEaOptions {
  NameChannelOptions name_channel;
  StructureChannelOptions structure_channel;
  /// Ablation switches (Figure 5): disable a whole channel.
  bool use_name_channel = true;
  bool use_structure_channel = true;
  /// "w/o name channel" in the paper's sense: the name channel still runs
  /// (its data augmentation feeds pseudo seeds into Algorithm 1), but M_n
  /// is NOT fused into the final similarity. Only meaningful while
  /// use_name_channel && use_structure_channel.
  bool fuse_name_similarity = true;
  /// Entries per row kept in the fused matrix M.
  int32_t fused_top_k = 50;
  /// Channel fusion weights; the paper uses equal weights (1, 1).
  float structure_weight = 1.0f;
  float name_weight = 1.0f;
  FaultToleranceOptions fault_tolerance;
  /// Memory-budgeted streaming execution (DESIGN.md §10). Resolved
  /// against LARGEEA_MEMORY_BUDGET_MB at run (and fingerprint) time; a
  /// positive budget streams the name-channel embeddings and fusions
  /// through a disk-backed TileStore without changing any result bit.
  /// With release_inputs (the default) the intermediate matrices
  /// (nff.semantic, nff.string, structure_channel.similarity) come back
  /// empty — only `fused` and the metrics are retained.
  stream::StreamOptions stream;
};

/// Execution record of one pipeline operator.
struct PipelineNodeStats {
  std::string name;
  double seconds = 0.0;
  int64_t peak_bytes = 0;  ///< tracked peak while the operator ran
  bool from_checkpoint = false;
};

struct LargeEaResult {
  SparseSimMatrix fused;  ///< M = M_s + M_n
  EvalMetrics metrics;
  NameChannelResult name_channel;
  StructureChannelResult structure_channel;
  /// ψ' actually used by the structure channel (seeds + pseudo seeds).
  EntityPairList effective_seeds;
  double total_seconds = 0.0;
  int64_t peak_bytes = 0;
  /// One record per operator that ran, in pipeline order.
  std::vector<PipelineNodeStats> nodes;
};

/// Fingerprint of everything that shapes the numeric result (dataset
/// shape plus result-affecting options). Checkpoints are stamped with it
/// so stale artifacts from a different run configuration are rejected.
uint64_t LargeEaConfigFingerprint(const EaDataset& dataset,
                                  const LargeEaOptions& options);

/// Runs LargeEA on `dataset` (dataset.split.train as ψ', possibly empty
/// for unsupervised EA) and evaluates on dataset.split.test. Fails with a
/// contextful Status when a channel fails unrecoverably; per-batch
/// structure failures degrade (see StructureChannelOptions) instead.
StatusOr<LargeEaResult> RunLargeEa(const EaDataset& dataset,
                                   const LargeEaOptions& options);

/// The pipeline prefix: name_semantic, name_string, name_fuse,
/// name_augmentation, seed_augmentation and partition, run in that order
/// on the calling thread. Fills `result`'s name channel, effective seeds
/// and node records and returns the partition (empty when the structure
/// channel is ablated). `checkpoint` must come from
/// MakePipelineCheckpointManager; `stream_ctx` may be null (unbudgeted).
/// RunLargeEa runs it before structure_train, fusion and evaluate; the
/// shard orchestrator runs it alone before spawning its workers.
StatusOr<MiniBatchSet> RunLargeEaPrefix(const EaDataset& dataset,
                                        const LargeEaOptions& options,
                                        rt::CheckpointManager& checkpoint,
                                        stream::StreamContext* stream_ctx,
                                        LargeEaResult& result);

}  // namespace largeea

#endif  // LARGEEA_CORE_LARGE_EA_H_
