// Versioned, checksummed per-phase checkpoints for the LargeEA pipeline.
//
// A checkpoint directory holds one artifact file per completed unit of
// work: the name channel's matrices and pseudo seeds, the mini-batch
// partition, one similarity block per trained mini-batch, and the fused
// result. RunLargeEa consults the directory on --resume and skips every
// unit whose artifact is present and intact, so a crash mid-run costs
// only the unit that was in flight.
//
// Artifact container ("<kind>.ckpt"):
//
//   largeea-ckpt v1 <kind> <fingerprint-hex> <payload-bytes> <hash-hex>\n
//   <payload>
//
// * fingerprint — FNV-1a of the run configuration (dataset shape + the
//   options that affect results). A checkpoint taken under different
//   options is FAILED_PRECONDITION at load, never silently reused.
// * hash — FNV-1a of the payload; truncation or corruption is DATA_LOSS.
// * every write is atomic (temp file + rename, rt/io_util.h), so a crash
//   mid-write leaves the previous artifact (or none), never a torn one.
//
// Checkpointing is best-effort by design: a failed *write* degrades the
// run (logged + counted in obs metrics) but never fails it; a failed
// *load* falls back to recomputing the unit.
#ifndef LARGEEA_RT_CHECKPOINT_H_
#define LARGEEA_RT_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/partition/mini_batch.h"
#include "src/rt/status.h"
#include "src/sim/sparse_sim.h"

namespace largeea::rt {

/// Serialisers for the non-matrix payloads (exposed for tests; matrices
/// use sim_io's SimMatrixToString/FromString).
std::string EntityPairsToString(const EntityPairList& pairs);
StatusOr<EntityPairList> EntityPairsFromString(std::string_view text);
std::string MiniBatchesToString(const MiniBatchSet& batches);
StatusOr<MiniBatchSet> MiniBatchesFromString(std::string_view text);

/// Handle on one checkpoint directory, bound to one run configuration.
class CheckpointManager {
 public:
  /// An empty `dir` produces a disabled manager: saves succeed as no-ops
  /// and loads report NOT_FOUND, so pipeline code needs no special case.
  /// `config_fingerprint` must capture everything that changes results
  /// (dataset shape, channel options, seeds); `resume` records whether
  /// the caller wants existing artifacts honoured.
  CheckpointManager(std::string dir, uint64_t config_fingerprint,
                    bool resume);

  bool enabled() const { return !dir_.empty(); }
  /// True when loads should be attempted before computing a unit.
  bool should_load() const { return enabled() && resume_; }
  const std::string& dir() const { return dir_; }

  /// Stamps every artifact whose kind starts with `kind_prefix` with
  /// `fingerprint` instead of the constructor's global fingerprint.
  /// The longest matching prefix wins ("batch_" covers "batch_0003"),
  /// so each pipeline operator can stamp its artifact with a fingerprint
  /// of exactly the inputs and options that shape *that* artifact — a
  /// changed training option then invalidates the batch blocks without
  /// touching the name-channel artifacts (dirty-subgraph resume).
  /// Not thread-safe: install every override before the manager is
  /// shared across threads.
  void SetKindFingerprint(std::string kind_prefix, uint64_t fingerprint);

  /// The fingerprint artifacts of `kind` are saved and validated under.
  uint64_t FingerprintFor(std::string_view kind) const;

  /// Saves one artifact. Errors are already counted/logged; callers
  /// typically ignore the returned Status (best-effort contract).
  Status SaveMatrix(std::string_view kind, const SparseSimMatrix& m);
  Status SavePairs(std::string_view kind, const EntityPairList& pairs);
  Status SaveBatches(std::string_view kind, const MiniBatchSet& batches);

  /// Loads one artifact: NOT_FOUND when absent, FAILED_PRECONDITION on a
  /// fingerprint/version mismatch, DATA_LOSS on corruption. A DATA_LOSS
  /// artifact is *quarantined* — renamed to "<path>.corrupt" and counted
  /// in `checkpoint.quarantined` — so the caller's recompute-and-save of
  /// the unit writes a fresh artifact instead of fighting the corrupt
  /// one on every future resume, and the evidence survives for forensics.
  StatusOr<SparseSimMatrix> LoadMatrix(std::string_view kind);
  StatusOr<EntityPairList> LoadPairs(std::string_view kind);
  StatusOr<MiniBatchSet> LoadBatches(std::string_view kind);

  /// The artifact path for `kind` (test hook for corruption scenarios).
  std::string PathFor(std::string_view kind) const;

 private:
  Status SavePayload(std::string_view kind, std::string_view payload);
  StatusOr<std::string> LoadPayload(std::string_view kind);
  /// Renames `kind`'s artifact to "<path>.corrupt" when `status` is
  /// DATA_LOSS; passes every status through unchanged otherwise.
  Status MaybeQuarantine(std::string_view kind, Status status);

  std::string dir_;
  uint64_t fingerprint_ = 0;
  bool resume_ = false;
  /// (kind prefix, fingerprint) overrides; longest prefix match wins.
  std::vector<std::pair<std::string, uint64_t>> kind_fingerprints_;
};

}  // namespace largeea::rt

#endif  // LARGEEA_RT_CHECKPOINT_H_
