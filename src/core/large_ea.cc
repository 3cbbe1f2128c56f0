#include "src/core/large_ea.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <span>
#include <utility>

#include "src/core/pipeline_fingerprint.h"
#include "src/name/data_augmentation.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/rt/checkpoint.h"
#include "src/rt/fault_injection.h"
#include "src/rt/io_util.h"
#include "src/simd/simd.h"
#include "src/stream/stream_context.h"

namespace largeea {
namespace {

// Artifact kinds; RunNameChannel (src/core/name_channel.cc) reads and
// writes the same four name-channel kinds.
constexpr const char* kSemanticKind = "name_semantic";
constexpr const char* kStringKind = "name_string";
constexpr const char* kNameFusedKind = "name_fused";
constexpr const char* kPseudoSeedKind = "name_pseudo_seeds";
constexpr const char* kFusedKind = "fused";

/// Runs one operator inside its "dag/<name>" memory-tracked span and
/// appends its record to `result.nodes`. `body` returns whether the
/// operator restored its output from a checkpoint; a failure is returned
/// with the operator's name as context.
template <typename Body>
Status RunNode(const char* name, LargeEaResult& result, Body&& body) {
  const std::string span_name = std::string("dag/") + name;
  PipelineNodeStats stats{name};
  StatusOr<bool> restored = false;
  {
    obs::Span span(span_name.c_str(), obs::Span::kTrackMemory);
    restored = body();
    stats.seconds = span.End();
    stats.peak_bytes = span.peak_bytes();
  }
  if (!restored.ok()) return restored.status().WithContext(name);
  stats.from_checkpoint = *restored;
  result.nodes.push_back(std::move(stats));
  return OkStatus();
}

/// Counts and logs a checkpoint artifact that exists but cannot be used;
/// the operator then recomputes it.
void NoteUnusableArtifact(const char* kind, const Status& status) {
  obs::MetricsRegistry::Get()
      .GetCounter("checkpoint.load_failures")
      .Increment();
  LARGEEA_LOG_WARN("pipeline: ignoring unusable '%s' checkpoint (%s); "
                   "recomputing",
                   kind, status.ToString().c_str());
}

/// Loads `kind` into `out` if resume mode has a usable artifact.
bool TryLoadMatrix(rt::CheckpointManager& checkpoint, const char* kind,
                   SparseSimMatrix& out) {
  if (!checkpoint.should_load()) return false;
  auto loaded = checkpoint.LoadMatrix(kind);
  if (loaded.ok()) {
    out = std::move(loaded).value();
    return true;
  }
  if (loaded.status().code() != StatusCode::kNotFound) {
    NoteUnusableArtifact(kind, loaded.status());
  }
  return false;
}

/// Best-effort save: a failed write degrades resumability, not the run.
void SaveMatrix(rt::CheckpointManager& checkpoint, const char* kind,
                const SparseSimMatrix& matrix) {
  if (checkpoint.enabled()) (void)checkpoint.SaveMatrix(kind, matrix);
}

/// Rebuilds the channel-level name bookkeeping (resumed flag, SENS/STNS
/// seconds, channel seconds and peak) from the records of name_semantic,
/// name_string, name_fuse and name_augmentation. Component timings stay
/// zero for restored operators.
void SummarizeNameChannel(std::span<const PipelineNodeStats, 4> nodes,
                          NameChannelResult& name) {
  name.resumed = std::all_of(
      nodes.begin(), nodes.end(),
      [](const PipelineNodeStats& node) { return node.from_checkpoint; });
  if (name.resumed) return;
  const PipelineNodeStats& sem = nodes[0];
  const PipelineNodeStats& str = nodes[1];
  name.nff.sens_seconds = sem.from_checkpoint ? 0.0 : sem.seconds;
  name.nff.stns_seconds = str.from_checkpoint ? 0.0 : str.seconds;
  for (const PipelineNodeStats& node : nodes) {
    name.total_seconds += node.seconds;
    name.peak_bytes = std::max(name.peak_bytes, node.peak_bytes);
  }
}

/// Under a budget with release_inputs, operators consume (move/stream)
/// their matrix inputs instead of copying them.
bool ConsumesInputs(const stream::StreamContext* stream_ctx) {
  return stream_ctx != nullptr && stream_ctx->options().release_inputs;
}

/// structure_train, fusion and evaluate, in order.
Status RunLargeEaSuffix(const EaDataset& dataset,
                        const LargeEaOptions& options,
                        rt::CheckpointManager& checkpoint,
                        const stream::StreamContext* stream_ctx,
                        MiniBatchSet batches, LargeEaResult& result) {
  const bool consume = ConsumesInputs(stream_ctx);
  // --- Structure channel: per-batch training → M_s. ---
  if (options.use_structure_channel) {
    LARGEEA_RETURN_IF_ERROR(RunNode(
        "structure_train", result, [&]() -> StatusOr<bool> {
          const double partition_seconds =
              result.structure_channel.partition_seconds;
          LARGEEA_ASSIGN_OR_RETURN(
              result.structure_channel,
              TrainStructureChannel(dataset.source, dataset.target,
                                    std::move(batches),
                                    options.structure_channel, &checkpoint));
          result.structure_channel.partition_seconds = partition_seconds;
          // "From checkpoint" when every trainable batch resumed.
          int32_t trainable = 0;
          for (const MiniBatch& b : result.structure_channel.batches) {
            if (StructureBatchTrainable(b)) ++trainable;
          }
          return trainable > 0 &&
                 result.structure_channel.batches_resumed == trainable;
        }));
  }

  // --- Channel fusion: M = M_s + M_n. Under a consuming stream context
  // the inputs are moved (FuseStreamed frees each input row as it
  // merges); the fused bits are identical either way. ---
  LARGEEA_RETURN_IF_ERROR(RunNode("fusion", result, [&]() -> StatusOr<bool> {
    LARGEEA_INJECT_FAULT("pipeline.fusion");
    if (TryLoadMatrix(checkpoint, kFusedKind, result.fused)) return true;
    SparseSimMatrix& structure = result.structure_channel.similarity;
    SparseSimMatrix& name = result.name_channel.nff.fused;
    const bool both =
        options.use_name_channel && options.use_structure_channel;
    if (both && options.fuse_name_similarity) {
      result.fused =
          consume ? SparseSimMatrix::FuseStreamed(
                        std::move(structure), std::move(name),
                        options.structure_weight, options.name_weight,
                        options.fused_top_k)
                  : structure.Fuse(name, options.structure_weight,
                                   options.name_weight, options.fused_top_k);
    } else {
      // "w/o name channel" (DA already fed ψ', only M_s is scored) or a
      // single enabled channel.
      SparseSimMatrix& only =
          options.use_structure_channel ? structure : name;
      result.fused = consume ? std::move(only) : only;
    }
    SaveMatrix(checkpoint, kFusedKind, result.fused);
    return false;
  }));
  if (consume) {
    // Leave the consumed inputs as clean empty matrices, not moved-from
    // husks (or restored copies nobody reads again).
    result.structure_channel.similarity = SparseSimMatrix();
    result.name_channel.nff.fused = SparseSimMatrix();
  }

  return RunNode("evaluate", result, [&]() -> StatusOr<bool> {
    LARGEEA_INJECT_FAULT("pipeline.evaluate");
    result.metrics = Evaluate(result.fused, dataset.split.test);
    return false;
  });
}

}  // namespace

uint64_t LargeEaConfigFingerprint(const EaDataset& dataset,
                                  const LargeEaOptions& options) {
  // Everything that can change the numbers goes in; cosmetic knobs
  // (checkpoint dir, log level) stay out so they never invalidate a
  // resume.
  const StructureChannelOptions& s = options.structure_channel;
  const NameChannelOptions& n = options.name_channel;
  // The budget is part of the fingerprint even though results are
  // bit-identical across budgets: under release_inputs a streamed run
  // checkpoints empty intermediate matrices, so resuming a streamed
  // checkpoint into an unbudgeted run (or across tile layouts) would
  // silently hand back different artifacts. Resolving here keeps the
  // fingerprint in agreement with what RunLargeEa will actually do.
  const stream::StreamOptions stream =
      stream::ResolveStreamOptions(options.stream);
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "largeea-config v1"
      " kg=%d,%zu,%d,%zu train=%zu test=%zu"
      " channels=%d,%d,%d fuse=%d,%.9g,%.9g"
      " name=%d,%.9g,%.9g,%d,%d,%.9g,%d"
      " structure=%d,%d,%d,%d,%d,%d,%" PRIu64
      " train=%d,%d,%.9g,%.9g,%d,%d,%" PRIu64
      " stream=%" PRId64 ",%d,%d",
      dataset.source.num_entities(),
      dataset.source.triples().size(),
      dataset.target.num_entities(),
      dataset.target.triples().size(),
      dataset.split.train.size(), dataset.split.test.size(),
      static_cast<int>(options.use_name_channel),
      static_cast<int>(options.use_structure_channel),
      static_cast<int>(options.fuse_name_similarity),
      options.fused_top_k, options.structure_weight, options.name_weight,
      static_cast<int>(n.enable_augmentation), n.augmentation_margin,
      n.nff.string_weight, n.nff.max_entries_per_row, n.nff.sens.top_k,
      n.nff.stns.jaccard_threshold,
      n.nff.stns.max_entries_per_row,
      static_cast<int>(s.model), static_cast<int>(s.strategy),
      s.num_batches, s.overlap_degree, s.top_k,
      static_cast<int>(s.apply_csls), s.seed,
      s.train.epochs, s.train.dim, s.train.learning_rate,
      s.train.margin, s.train.negatives_per_seed,
      s.train.hard_negative_refresh, s.train.seed,
      stream.memory_budget_mb, stream.tile_rows,
      static_cast<int>(stream.release_inputs));
  return rt::Fnv1a64(buf);
}

StatusOr<MiniBatchSet> RunLargeEaPrefix(const EaDataset& dataset,
                                        const LargeEaOptions& options,
                                        rt::CheckpointManager& checkpoint,
                                        stream::StreamContext* stream_ctx,
                                        LargeEaResult& result) {
  const KnowledgeGraph& source = dataset.source;
  const KnowledgeGraph& target = dataset.target;
  const NameChannelOptions& n = options.name_channel;
  const bool consume = ConsumesInputs(stream_ctx);

  // --- Name channel: M_se, M_st → M_n → pseudo seeds. ---
  if (options.use_name_channel) {
    NffResult& nff = result.name_channel.nff;
    LARGEEA_RETURN_IF_ERROR(
        RunNode("name_semantic", result, [&]() -> StatusOr<bool> {
          if (TryLoadMatrix(checkpoint, kSemanticKind, nff.semantic)) {
            return true;
          }
          LARGEEA_INJECT_FAULT("name.features");
          nff.semantic =
              ComputeSemanticSimilarity(source, target, n.nff.sens, stream_ctx);
          SaveMatrix(checkpoint, kSemanticKind, nff.semantic);
          return false;
        }));
    LARGEEA_RETURN_IF_ERROR(
        RunNode("name_string", result, [&]() -> StatusOr<bool> {
          if (TryLoadMatrix(checkpoint, kStringKind, nff.string)) return true;
          nff.string = ComputeStringSimilarity(source, target, n.nff.stns);
          SaveMatrix(checkpoint, kStringKind, nff.string);
          return false;
        }));
    LARGEEA_RETURN_IF_ERROR(
        RunNode("name_fuse", result, [&]() -> StatusOr<bool> {
          if (TryLoadMatrix(checkpoint, kNameFusedKind, nff.fused)) {
            return true;
          }
          // Row-streamed fusion consumes M_se and M_st.
          nff.fused = consume ? SparseSimMatrix::FuseStreamed(
                                    std::move(nff.semantic),
                                    std::move(nff.string), 1.0f,
                                    n.nff.string_weight,
                                    n.nff.max_entries_per_row)
                              : nff.semantic.Fuse(nff.string, 1.0f,
                                                  n.nff.string_weight,
                                                  n.nff.max_entries_per_row);
          SaveMatrix(checkpoint, kNameFusedKind, nff.fused);
          return false;
        }));
    if (consume) {
      nff.semantic = SparseSimMatrix();
      nff.string = SparseSimMatrix();
    }
    // Augmentation disabled still runs the operator: ψ'_p is then empty,
    // and saving it keeps the name channel's four-artifact resume
    // contract.
    LARGEEA_RETURN_IF_ERROR(
        RunNode("name_augmentation", result, [&]() -> StatusOr<bool> {
          EntityPairList& pseudo = result.name_channel.pseudo_seeds;
          auto& pseudo_gauge =
              obs::MetricsRegistry::Get().GetGauge("name.pseudo_seeds");
          if (checkpoint.should_load()) {
            auto loaded = checkpoint.LoadPairs(kPseudoSeedKind);
            if (loaded.ok()) {
              pseudo = std::move(loaded).value();
              pseudo_gauge.Set(static_cast<double>(pseudo.size()));
              return true;
            }
            if (loaded.status().code() != StatusCode::kNotFound) {
              NoteUnusableArtifact(kPseudoSeedKind, loaded.status());
            }
          }
          if (n.enable_augmentation) {
            LARGEEA_INJECT_FAULT("name.augmentation");
            pseudo = GeneratePseudoSeeds(nff.fused, dataset.split.train,
                                         n.augmentation_margin);
            pseudo_gauge.Set(static_cast<double>(pseudo.size()));
          }
          if (checkpoint.enabled()) {
            (void)checkpoint.SavePairs(kPseudoSeedKind, pseudo);
          }
          return false;
        }));
    SummarizeNameChannel(std::span(result.nodes).last<4>(),
                         result.name_channel);
  }

  // --- ψ' ← ψ ∪ ψ'_p. ---
  LARGEEA_RETURN_IF_ERROR(
      RunNode("seed_augmentation", result, [&]() -> StatusOr<bool> {
        const EntityPairList& pseudo = result.name_channel.pseudo_seeds;
        result.effective_seeds = dataset.split.train;
        result.effective_seeds.insert(result.effective_seeds.end(),
                                      pseudo.begin(), pseudo.end());
        return false;
      }));

  // --- Structure channel, first half: the mini-batch partition. ---
  MiniBatchSet batches;
  if (options.use_structure_channel) {
    LARGEEA_RETURN_IF_ERROR(
        RunNode("partition", result, [&]() -> StatusOr<bool> {
          LARGEEA_ASSIGN_OR_RETURN(
              batches, PrepareStructureBatches(
                           source, target, result.effective_seeds,
                           options.structure_channel, &checkpoint,
                           &result.structure_channel.partition_seconds));
          return false;
        }));
  }
  return batches;
}

StatusOr<LargeEaResult> RunLargeEa(const EaDataset& dataset,
                                   const LargeEaOptions& options) {
  if (!options.use_name_channel && !options.use_structure_channel) {
    return InvalidArgumentError(
        "at least one of use_name_channel / use_structure_channel must be "
        "enabled (both channels are ablated)");
  }
  // The pipeline span is the single source for total_seconds and
  // peak_bytes; nested operator/channel spans feed the same trace and
  // report.
  obs::Span pipeline_span("pipeline", obs::Span::kTrackMemory);
  pipeline_span.AddAttr("simd.backend",
                        simd::BackendName(simd::ActiveBackend()));

  // Memory-budgeted streaming: one context (budget + spill store) per
  // run, handed only to the phases that know how to stream. Null when
  // disabled, which keeps every call site on the historical path.
  const stream::StreamOptions stream_options =
      stream::ResolveStreamOptions(options.stream);
  std::unique_ptr<stream::StreamContext> stream_ctx;
  if (stream::StreamingEnabled(stream_options)) {
    stream_ctx = std::make_unique<stream::StreamContext>(stream_options);
    pipeline_span.AddAttr("stream.budget_mb",
                          stream_options.memory_budget_mb);
    LARGEEA_LOG_INFO("pipeline: streaming under a %" PRId64
                     " MiB budget (spill dir '%s')",
                     stream_options.memory_budget_mb,
                     stream_ctx->store().spill_dir().c_str());
  }

  // The global fingerprint stays the default stamp; per-node
  // fingerprints cover every artifact the pipeline actually writes, so
  // a changed option re-executes only the dirty subgraph on --resume.
  rt::CheckpointManager checkpoint = MakePipelineCheckpointManager(
      dataset, options, options.fault_tolerance.checkpoint_dir,
      options.fault_tolerance.resume);
  if (checkpoint.should_load()) {
    LARGEEA_LOG_INFO("pipeline: resuming from checkpoints in '%s'",
                     checkpoint.dir().c_str());
  }

  LargeEaResult result;
  LARGEEA_ASSIGN_OR_RETURN(
      MiniBatchSet batches,
      RunLargeEaPrefix(dataset, options, checkpoint, stream_ctx.get(),
                       result));
  LARGEEA_RETURN_IF_ERROR(RunLargeEaSuffix(dataset, options, checkpoint,
                                           stream_ctx.get(),
                                           std::move(batches), result));

  result.total_seconds = pipeline_span.End();
  result.peak_bytes = pipeline_span.peak_bytes();
  if (stream_ctx != nullptr) {
    stream_ctx->budget().ReportCompliance(result.peak_bytes);
  }
  auto& registry = obs::MetricsRegistry::Get();
  registry.GetGauge("pipeline.effective_seeds")
      .Set(static_cast<double>(result.effective_seeds.size()));
  registry.GetGauge("pipeline.batches_dropped")
      .Set(static_cast<double>(result.structure_channel.batches_dropped));
  registry.GetGauge("pipeline.batches_resumed")
      .Set(static_cast<double>(result.structure_channel.batches_resumed));
  return result;
}

}  // namespace largeea
