// In-order pipeline tests (src/core/large_ea.cc, DESIGN.md §14).
//
// The nine operators run in order on the calling thread. These tests
// pin what that executor promises:
//   * the fused matrix and every checkpoint artifact are byte-identical
//     across thread counts × memory budgets × SIMD backends;
//   * --resume re-executes only the dirty subgraph;
//   * every operator gets one record and one "dag/<name>" span, and
//     the records never claim more time than the pipeline took;
//   * the pipeline prefix the shard orchestrator runs writes exactly
//     the artifacts RunLargeEa writes.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/large_ea.h"
#include "src/core/pipeline_fingerprint.h"
#include "src/gen/benchmark_gen.h"
#include "src/kg/dataset.h"
#include "src/obs/trace.h"
#include "src/par/thread_pool.h"
#include "src/rt/fault_injection.h"
#include "src/rt/io_util.h"
#include "src/simd/simd.h"
#include "src/stream/stream_context.h"

namespace largeea {
namespace {

namespace fs = std::filesystem;

const std::vector<std::string> kOperators = {
    "name_semantic", "name_string",     "name_fuse",
    "name_augmentation", "seed_augmentation", "partition",
    "structure_train",   "fusion",           "evaluate"};

uint64_t FusedHash(const SparseSimMatrix& m) {
  std::string bytes;
  for (int32_t r = 0; r < m.num_rows(); ++r) {
    const auto row = m.Row(r);
    bytes.append(reinterpret_cast<const char*>(row.data()),
                 row.size_bytes());
  }
  return rt::Fnv1a64(bytes);
}

/// filename -> content hash for every checkpoint artifact in `dir`.
std::map<std::string, uint64_t> DirHashes(const std::string& dir) {
  std::map<std::string, uint64_t> hashes;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const auto bytes = rt::ReadFileToString(entry.path().string());
    if (bytes.ok()) {
      hashes[entry.path().filename().string()] = rt::Fnv1a64(*bytes);
    }
  }
  return hashes;
}

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    BenchmarkSpec spec = Ids15kSpec(LanguagePair::kEnFr);
    spec.world.num_entities = 300;
    dataset_ = new EaDataset(GenerateBenchmark(spec));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }
  static const EaDataset& dataset() { return *dataset_; }

  void SetUp() override {
    rt::FaultInjector::Get().Reset();
    saved_threads_ = par::ThreadPool::Get().num_threads();
  }
  void TearDown() override {
    par::ThreadPool::Get().SetNumThreads(saved_threads_);
    rt::FaultInjector::Get().Reset();
    for (const std::string& dir : dirs_) fs::remove_all(dir);
  }

  static LargeEaOptions BaseOptions() {
    LargeEaOptions options;
    options.structure_channel.train.epochs = 3;
    options.structure_channel.num_batches = 2;
    options.stream.memory_budget_mb = 0;  // explicit: in-memory
    return options;
  }

  /// A fresh, empty directory removed again in TearDown.
  std::string CheckpointDir(const std::string& name) {
    const std::string dir =
        (fs::temp_directory_path() / ("largeea_pipeline_" + name)).string();
    fs::remove_all(dir);
    dirs_.push_back(dir);
    return dir;
  }

  int32_t saved_threads_ = 1;
  std::vector<std::string> dirs_;

 private:
  static const EaDataset* dataset_;
};

const EaDataset* PipelineTest::dataset_ = nullptr;

// --- Byte identity across threads × budgets × SIMD backends. ---------

struct Reference {
  uint64_t fused_hash = 0;
  EvalMetrics metrics;
  std::map<std::string, uint64_t> checkpoints;
};

/// (threads, memory budget MiB, force the scalar SIMD backend)
using GridPoint = std::tuple<int32_t, int64_t, bool>;

class PipelineGridTest : public PipelineTest,
                         public ::testing::WithParamInterface<GridPoint> {
 protected:
  /// One in-memory run at one thread on the dispatched backend; every
  /// grid point must reproduce it byte for byte.
  const Reference& GetReference() {
    static const Reference reference = [this] {
      par::ThreadPool::Get().SetNumThreads(1);
      LargeEaOptions options = BaseOptions();
      options.fault_tolerance.checkpoint_dir = CheckpointDir("reference");
      const auto run = RunLargeEa(dataset(), options);
      EXPECT_TRUE(run.ok()) << run.status().ToString();
      Reference r;
      if (!run.ok()) return r;
      r.fused_hash = FusedHash(run->fused);
      r.metrics = run->metrics;
      r.checkpoints = DirHashes(options.fault_tolerance.checkpoint_dir);
      return r;
    }();
    return reference;
  }
};

TEST_P(PipelineGridTest, FusedAndCheckpointsAreByteIdentical) {
  const Reference& reference = GetReference();
  ASSERT_FALSE(reference.checkpoints.empty());
  const auto [threads, budget_mb, scalar] = GetParam();

  const simd::Backend original = simd::ActiveBackend();
  if (scalar) simd::SetBackend(simd::Backend::kScalar);
  par::ThreadPool::Get().SetNumThreads(threads);
  LargeEaOptions options = BaseOptions();
  options.stream.memory_budget_mb = budget_mb;
  if (budget_mb > 0) options.stream.tile_rows = 64;
  options.fault_tolerance.checkpoint_dir = CheckpointDir("grid");
  const auto run = RunLargeEa(dataset(), options);
  simd::SetBackend(original);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  // Bit-exact on purpose: no execution setting may perturb one ulp.
  EXPECT_EQ(FusedHash(run->fused), reference.fused_hash);
  EXPECT_DOUBLE_EQ(run->metrics.hits_at_1, reference.metrics.hits_at_1);
  EXPECT_DOUBLE_EQ(run->metrics.mrr, reference.metrics.mrr);
  // Every artifact is saved in full when its operator completes, before
  // any release, so the directory is budget-independent too.
  EXPECT_EQ(DirHashes(options.fault_tolerance.checkpoint_dir),
            reference.checkpoints);
}

INSTANTIATE_TEST_SUITE_P(
    PipelineGrid, PipelineGridTest,
    ::testing::Combine(::testing::Values(1, 2, 8),
                       ::testing::Values(int64_t{0}, int64_t{1}),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<GridPoint>& info) {
      return "threads" + std::to_string(std::get<0>(info.param)) +
             "_budget" + std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "_scalar" : "_native");
    });

// --- Resume. ----------------------------------------------------------

TEST_F(PipelineTest, ResumeReExecutesOnlyTheDirtySubgraph) {
  LargeEaOptions options = BaseOptions();
  options.fault_tolerance.checkpoint_dir = CheckpointDir("dirty");
  ASSERT_TRUE(RunLargeEa(dataset(), options).ok());

  // Change a training knob: everything downstream of `partition` is
  // dirty, the name channel is not.
  LargeEaOptions changed = options;
  changed.structure_channel.train.epochs = 5;
  changed.fault_tolerance.resume = true;
#if LARGEEA_FAULT_INJECTION
  rt::FaultInjector::Get().Reset();  // zero the hit counters
#endif
  const auto resumed = RunLargeEa(dataset(), changed);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(resumed->name_channel.resumed);
  EXPECT_EQ(resumed->structure_channel.batches_resumed, 0);
#if LARGEEA_FAULT_INJECTION
  // The name features were restored, not recomputed: the fault point
  // inside the compute path was never reached.
  EXPECT_EQ(rt::FaultInjector::Get().HitCount("name.features"), 0);
#endif

  // And the selective resume is still bit-identical to a fresh run of
  // the changed configuration.
  LargeEaOptions fresh = changed;
  fresh.fault_tolerance = {};
  const auto baseline = RunLargeEa(dataset(), fresh);
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(FusedHash(baseline->fused), FusedHash(resumed->fused));
}

TEST_F(PipelineTest, BothChannelsDisabledIsInvalidArgument) {
  LargeEaOptions options = BaseOptions();
  options.use_name_channel = false;
  options.use_structure_channel = false;
  const auto run = RunLargeEa(dataset(), options);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
}

// --- Per-operator records and spans. -----------------------------------

TEST_F(PipelineTest, EveryOperatorHasOneRecordInPipelineOrder) {
  par::ThreadPool::Get().SetNumThreads(4);
  const auto run = RunLargeEa(dataset(), BaseOptions());
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  std::vector<std::string> names;
  double attributed = 0.0;
  for (const PipelineNodeStats& node : run->nodes) {
    names.push_back(node.name);
    attributed += node.seconds;
    EXPECT_GE(node.seconds, 0.0) << node.name;
    EXPECT_FALSE(node.from_checkpoint) << node.name;
  }
  EXPECT_EQ(names, kOperators);
  // The operators run one after another inside the pipeline span, so
  // the unattributed remainder (total minus the operator rows) is never
  // negative.
  EXPECT_GE(run->total_seconds - attributed, 0.0);
}

TEST_F(PipelineTest, TraceShowsEveryOperatorSpanOnTheCallingThread) {
  par::ThreadPool::Get().SetNumThreads(4);
  auto& recorder = obs::TraceRecorder::Get();
  recorder.Clear();
  recorder.Enable();
  const auto run = RunLargeEa(dataset(), BaseOptions());
  recorder.Disable();
  ASSERT_TRUE(run.ok());

  const int32_t caller = obs::CurrentThreadId();
  std::vector<std::string> seen;
  for (const obs::SpanRecord& span : recorder.Records()) {
    if (!span.name.starts_with("dag/")) continue;
    seen.push_back(span.name.substr(4));
    EXPECT_EQ(span.thread_id, caller) << span.name;
  }
  // Records are appended as spans close, so this is execution order.
  EXPECT_EQ(seen, kOperators);
  recorder.Clear();
}

// --- The shard orchestrator's prefix. ----------------------------------

TEST_F(PipelineTest, PrefixWritesTheSameArtifactsAsRunLargeEa) {
  LargeEaOptions options = BaseOptions();
  options.fault_tolerance.checkpoint_dir = CheckpointDir("prefix_full");
  ASSERT_TRUE(RunLargeEa(dataset(), options).ok());
  const auto full = DirHashes(options.fault_tolerance.checkpoint_dir);

  // What the orchestrator's phase A does: the pipeline manager in
  // resume mode over its own directory, here under a tiny streaming
  // budget at eight threads.
  par::ThreadPool::Get().SetNumThreads(8);
  LargeEaOptions budgeted = options;
  budgeted.stream.memory_budget_mb = 1;
  budgeted.stream.tile_rows = 64;
  const std::string dir = CheckpointDir("prefix_only");
  rt::CheckpointManager checkpoint =
      MakePipelineCheckpointManager(dataset(), budgeted, dir,
                                    /*resume=*/true);
  stream::StreamContext stream_ctx(
      stream::ResolveStreamOptions(budgeted.stream));
  LargeEaResult prefix;
  const auto batches = RunLargeEaPrefix(dataset(), budgeted, checkpoint,
                                        &stream_ctx, prefix);
  ASSERT_TRUE(batches.ok()) << batches.status().ToString();
  EXPECT_FALSE(batches->empty());
  ASSERT_EQ(prefix.nodes.size(), 6u);
  EXPECT_EQ(prefix.nodes.back().name, "partition");

  // name_semantic, name_string, name_fused, name_pseudo_seeds and the
  // partition: each byte-identical to the full run's artifact.
  const auto written = DirHashes(dir);
  EXPECT_EQ(written.size(), 5u);
  for (const auto& [file, hash] : written) {
    const auto it = full.find(file);
    ASSERT_NE(it, full.end()) << file;
    EXPECT_EQ(hash, it->second) << file;
  }
}

}  // namespace
}  // namespace largeea
