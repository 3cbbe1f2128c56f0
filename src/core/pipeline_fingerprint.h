// Per-node checkpoint fingerprints for the pipeline operators.
//
// The global LargeEaConfigFingerprint stamps a checkpoint directory with
// *everything* that can shape a result, so any option change invalidated
// every artifact. Resume wants finer grain: each operator's
// artifact should be stamped with a fingerprint of exactly the inputs
// and options that shape *that* artifact, chained through the graph —
// then a `--resume` after an option change re-executes only the dirty
// subgraph (DESIGN.md §14).
//
// The chain mirrors the operator edges:
//
//   base (dataset shape + seed splits)
//     ├─ name_semantic  (SENS options)
//     ├─ name_string    (STNS options)
//     │    └─ name_fused         (both parents + fusion weights)
//     │         └─ name_pseudo_seeds  (+ augmentation options)
//     │              └─ partition     (+ partition strategy/shape)
//     │                   └─ batch_*  (+ model + training options)
//     │                        └─ fused (+ channel toggles, CSLS, weights)
//
// Streaming options are deliberately NOT part of any per-node
// fingerprint: every operator saves its artifact in full when it
// completes (before any release, see RunLargeEaPrefix), so artifact bytes are
// budget-independent and a checkpoint taken under one memory budget
// resumes bit-identically under any other.
//
// All processes that share a checkpoint directory — RunLargeEa, the
// shard orchestrator, and every shard worker — must install the same
// per-kind fingerprints, which is why the installer lives here and is
// computed from the *orchestrator-shaped* options in all three.
#ifndef LARGEEA_CORE_PIPELINE_FINGERPRINT_H_
#define LARGEEA_CORE_PIPELINE_FINGERPRINT_H_

#include <cstdint>

#include "src/core/large_ea.h"
#include "src/rt/checkpoint.h"

namespace largeea {

/// One fingerprint per checkpoint artifact kind, chained along the
/// operator edges (a node's fingerprint hashes its parents').
struct PipelineFingerprints {
  uint64_t base = 0;  ///< dataset shape + train/test splits
  uint64_t name_semantic = 0;
  uint64_t name_string = 0;
  uint64_t name_fused = 0;
  uint64_t name_pseudo_seeds = 0;
  /// ψ' = train seeds (+ pseudo seeds when the name channel feeds them).
  uint64_t effective_seeds = 0;
  uint64_t partition = 0;
  uint64_t batch = 0;  ///< every "batch_NNNN" block (pre-CSLS by design)
  uint64_t fused = 0;
};

PipelineFingerprints ComputePipelineFingerprints(
    const EaDataset& dataset, const LargeEaOptions& options);

/// Installs the per-kind fingerprint overrides on `checkpoint`.
void InstallPipelineFingerprints(rt::CheckpointManager& checkpoint,
                                 const PipelineFingerprints& fingerprints);

/// The checkpoint manager every pipeline process must use: global
/// fingerprint (LargeEaConfigFingerprint) as the default, per-node
/// fingerprints installed for each artifact kind.
rt::CheckpointManager MakePipelineCheckpointManager(
    const EaDataset& dataset, const LargeEaOptions& options,
    const std::string& dir, bool resume);

}  // namespace largeea

#endif  // LARGEEA_CORE_PIPELINE_FINGERPRINT_H_
