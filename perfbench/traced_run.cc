// The traced run: the pipeline recomposed from each layer's public
// functions, in the order RunLargeEa's serial executor calls them, with
// a span around every call. Options come from the `config` section of
// the end-to-end run's report (passed as one `--flag=value` per line),
// so the traced run follows whatever the CLI resolved. run.py compares
// its results with the CLI's; a mismatch means the recomposition (or
// the option hand-over) has drifted and the per-layer numbers do not
// describe the end-to-end run.
#include <sys/resource.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>

#include "perfbench/tool.h"
#include "src/core/config.h"
#include "src/core/evaluator.h"
#include "src/core/large_ea.h"
#include "src/core/name_channel.h"
#include "src/core/pipeline_fingerprint.h"
#include "src/core/structure_channel.h"
#include "src/name/data_augmentation.h"
#include "src/name/semantic_encoder.h"
#include "src/name/string_sim.h"
#include "src/obs/metrics.h"
#include "src/serve/index_artifact.h"
#include "src/serve/index_manager.h"
#include "src/serve/query_engine.h"
#include "src/serve/serve_loop.h"
#include "src/sim/similarity_search.h"
#include "src/stream/stream_options.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using largeea::Config;
using largeea::EaDataset;
using largeea::LargeEaOptions;
using largeea::SparseSimMatrix;
using largeea::Status;
using largeea::StatusOr;

int64_t CounterValue(std::string_view name) {
  return largeea::obs::MetricsRegistry::Get().GetCounter(name).Value();
}

int64_t CandidatesScanned() {
  return CounterValue("topk.lsh.candidates_scanned") +
         CounterValue("topk.exact.candidates_scanned");
}

/// Spans recorded in memory and written once, at the end of the run.
/// Each span also snapshots the pool's busy/capacity counters, so a
/// layer's pool utilization is the ratio of its deltas.
class SpanLog {
 public:
  int Begin(std::string name) {
    Record r;
    r.name = std::move(name);
    r.parent = open_.empty() ? -1 : open_.back();
    r.busy0 = CounterValue("par.busy_micros");
    r.capacity0 = CounterValue("par.capacity_micros");
    r.start = NowSeconds();
    records_.push_back(std::move(r));
    open_.push_back(static_cast<int>(records_.size()) - 1);
    return open_.back();
  }

  void End(int id) {
    Record& r = records_[id];
    r.end = NowSeconds();
    r.busy1 = CounterValue("par.busy_micros");
    r.capacity1 = CounterValue("par.capacity_micros");
    open_.erase(std::find(open_.begin(), open_.end(), id));
  }

  void WriteTo(largeea::obs::JsonWriter& w) const {
    w.BeginArray();
    for (const Record& r : records_) {
      w.BeginObject()
          .Key("name").String(r.name)
          .Key("parent").Int(r.parent)
          .Key("start").Double(r.start)
          .Key("end").Double(r.end)
          .Key("busy_us").Int(r.busy1 - r.busy0)
          .Key("capacity_us").Int(r.capacity1 - r.capacity0)
          .EndObject();
    }
    w.EndArray();
  }

 private:
  struct Record {
    std::string name;
    int parent = -1;
    double start = 0.0;
    double end = 0.0;
    int64_t busy0 = 0, busy1 = 0, capacity0 = 0, capacity1 = 0;
  };
  std::vector<Record> records_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name)
      : log_(log), id_(log.Begin(std::move(name))) {}
  ~ScopedSpan() { log_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

/// Counts summed across the run, keyed by per-layer metric name.
using Values = std::map<std::string, double>;

/// Parses a `--flag=value` per line file into a Config. Keys the
/// Config registry does not bind (report-only notes such as
/// `simd.active`) are dropped.
StatusOr<Config> ConfigFromArgsFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return largeea::NotFoundError("cannot read " + path);
  Config probe;
  largeea::FlagRegistry registry;
  probe.Register(registry);
  std::vector<std::string> args = {"perfbench_tool"};
  std::string line;
  while (std::getline(in, line)) {
    const size_t eq = line.find('=');
    if (!line.starts_with("--") || eq == std::string::npos) continue;
    if (!registry.Knows(line.substr(2, eq - 2))) continue;
    args.push_back(line);
  }
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return largeea::ConfigFromFlags(
      largeea::Flags(static_cast<int>(argv.size()), argv.data()));
}

/// (size, mtime) of every regular file under `dir`.
using DirState = std::map<std::string, std::pair<uintmax_t, int64_t>>;

DirState ReadDirState(const std::string& dir) {
  DirState state;
  std::error_code ec;
  if (dir.empty() || !fs::exists(dir, ec)) return state;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    state[entry.path().string()] = {
        entry.file_size(),
        static_cast<int64_t>(
            entry.last_write_time().time_since_epoch().count())};
  }
  return state;
}

/// Adds bytes written (new or rewritten files) and bytes restored
/// (files that existed before and were left untouched: the artifacts a
/// resume read back) between two snapshots of a checkpoint directory.
void AddCheckpointBytes(const DirState& before, const DirState& after,
                        bool resume, Values& values) {
  for (const auto& [path, state] : after) {
    const auto it = before.find(path);
    if (it == before.end() || it->second != state) {
      values["rt.bytes_written"] += static_cast<double>(state.first);
    } else if (resume) {
      values["rt.bytes_read"] += static_cast<double>(state.first);
    }
  }
}

/// Facts about one pipeline pass that run.py checks against the CLI.
struct PassResult {
  SparseSimMatrix fused;
  largeea::EvalMetrics metrics;
  int64_t pseudo_seeds = 0;
  bool name_resumed = false;
};

/// The name channel computed fresh, one public call per span (SENS as
/// ComputeSemanticSimilarity does it, unstreamed).
largeea::NameChannelResult ComputeNameChannel(
    const EaDataset& dataset, const largeea::NameChannelOptions& options,
    SpanLog& spans, Values& values) {
  const largeea::SensOptions& sens = options.nff.sens;
  largeea::NameChannelResult result;
  std::unique_ptr<largeea::SemanticEncoder> encoder;
  largeea::Matrix source_emb, target_emb;
  {
    ScopedSpan span(spans, "name.encode");
    encoder = std::make_unique<largeea::SemanticEncoder>(sens.encoder);
    if (sens.use_idf) encoder->FitIdf({&dataset.source, &dataset.target});
    source_emb = encoder->EncodeAllNames(dataset.source);
    target_emb = encoder->EncodeAllNames(dataset.target);
  }
  values["name.encoded_names"] +=
      static_cast<double>(source_emb.rows() + target_emb.rows());

  std::vector<largeea::EntityId> col_ids(dataset.target.num_entities());
  std::iota(col_ids.begin(), col_ids.end(), 0);
  largeea::SimilaritySearchOptions search_options;
  search_options.topk.k = sens.top_k;
  search_options.topk.metric = sens.metric;
  search_options.use_lsh = sens.use_lsh;
  search_options.lsh = sens.lsh;
  search_options.num_segments = sens.num_segments;
  std::unique_ptr<largeea::SimilaritySearch> search;
  {
    ScopedSpan span(spans, "sim.build");
    search = largeea::MakeSimilaritySearch(target_emb, col_ids,
                                           search_options);
  }
  SparseSimMatrix semantic(dataset.source.num_entities(),
                           dataset.target.num_entities(), sens.top_k);
  const int64_t scanned_before = CandidatesScanned();
  {
    ScopedSpan span(spans, "sim.search");
    const int64_t step =
        (source_emb.rows() + sens.num_segments - 1) / sens.num_segments;
    for (int64_t b = 0; b < source_emb.rows(); b += step) {
      const int64_t e = std::min(b + step, source_emb.rows());
      std::vector<largeea::EntityId> row_ids(e - b);
      std::iota(row_ids.begin(), row_ids.end(),
                static_cast<largeea::EntityId>(b));
      search->SearchInto(largeea::MatrixRowRange(source_emb, b, e), row_ids,
                         semantic);
    }
    semantic.RefreshMemoryTracking();
  }
  const double scanned =
      static_cast<double>(CandidatesScanned() - scanned_before);
  values["sim.rows"] += static_cast<double>(source_emb.rows());
  values["sim.candidates_scanned"] += scanned;
  values["sim.kept_entries"] += static_cast<double>(semantic.TotalEntries());
  result.nff.semantic = std::move(semantic);

  {
    ScopedSpan span(spans, "name.string");
    result.nff.string = largeea::ComputeStringSimilarity(
        dataset.source, dataset.target, options.nff.stns);
  }
  values["name.string_nnz"] +=
      static_cast<double>(result.nff.string.TotalEntries());
  {
    ScopedSpan span(spans, "name.fuse");
    result.nff.fused = result.nff.semantic.Fuse(
        result.nff.string, 1.0f, options.nff.string_weight,
        options.nff.max_entries_per_row);
  }
  if (options.enable_augmentation) {
    ScopedSpan span(spans, "name.augment");
    result.pseudo_seeds = largeea::GeneratePseudoSeeds(
        result.nff.fused, dataset.split.train, options.augmentation_margin);
  }
  return result;
}

/// One pipeline pass. With a resuming checkpoint manager the name
/// channel and partition are restored (rt.restore spans); with an
/// enabled one every artifact the pipeline writes is saved.
StatusOr<PassResult> RunPass(const EaDataset& dataset,
                             const LargeEaOptions& options,
                             largeea::rt::CheckpointManager& checkpoint,
                             SpanLog& spans, Values& values) {
  if (largeea::stream::StreamingEnabled(
          largeea::stream::ResolveStreamOptions(options.stream))) {
    return largeea::InvalidArgumentError(
        "the traced run does not recompose the memory-budgeted pipeline");
  }
  PassResult pass;
  largeea::NameChannelResult name;
  if (options.use_name_channel) {
    if (checkpoint.should_load()) {
      ScopedSpan span(spans, "rt.restore");
      auto restored = largeea::RunNameChannel(
          dataset.source, dataset.target, dataset.split.train,
          options.name_channel, &checkpoint);
      if (!restored.ok()) return restored.status();
      name = std::move(restored).value();
    } else {
      name = ComputeNameChannel(dataset, options.name_channel, spans, values);
      if (checkpoint.enabled()) {
        ScopedSpan span(spans, "rt.save");
        (void)checkpoint.SaveMatrix("name_semantic", name.nff.semantic);
        (void)checkpoint.SaveMatrix("name_string", name.nff.string);
        (void)checkpoint.SaveMatrix("name_fused", name.nff.fused);
        (void)checkpoint.SavePairs("name_pseudo_seeds", name.pseudo_seeds);
      }
    }
    pass.name_resumed = name.resumed;
    pass.pseudo_seeds = static_cast<int64_t>(name.pseudo_seeds.size());
    values["name.pseudo_seeds"] += static_cast<double>(pass.pseudo_seeds);
  }
  largeea::EntityPairList seeds = dataset.split.train;
  seeds.insert(seeds.end(), name.pseudo_seeds.begin(),
               name.pseudo_seeds.end());

  largeea::StructureChannelResult structure;
  if (options.use_structure_channel) {
    StatusOr<largeea::MiniBatchSet> batches = [&] {
      ScopedSpan span(spans,
                      checkpoint.should_load() ? "rt.restore" : "partition");
      return largeea::PrepareStructureBatches(
          dataset.source, dataset.target, seeds, options.structure_channel,
          &checkpoint);
    }();
    if (!batches.ok()) return batches.status();
    values["partition.batches"] += static_cast<double>(batches->size());
    const int64_t trained_before = CounterValue("structure.batches_trained");
    {
      ScopedSpan span(spans, "structure.train");
      auto trained = largeea::TrainStructureChannel(
          dataset.source, dataset.target, std::move(batches).value(),
          options.structure_channel, &checkpoint);
      if (!trained.ok()) return trained.status();
      structure = std::move(trained).value();
    }
    values["structure.batches_trained"] += static_cast<double>(
        CounterValue("structure.batches_trained") - trained_before);
    values["structure.batches_retried"] += structure.batches_retried;
    values["structure.batches_dropped"] += structure.batches_dropped;
  }

  bool fused_restored = false;
  if (checkpoint.should_load()) {
    ScopedSpan span(spans, "rt.restore");
    auto fused = checkpoint.LoadMatrix("fused");
    if (fused.ok()) {
      pass.fused = std::move(fused).value();
      fused_restored = true;
    }
  }
  if (!fused_restored) {
    {
      ScopedSpan span(spans, "fusion");
      const bool both =
          options.use_name_channel && options.use_structure_channel;
      if (both && options.fuse_name_similarity) {
        pass.fused = structure.similarity.Fuse(
            name.nff.fused, options.structure_weight, options.name_weight,
            options.fused_top_k);
      } else if (options.use_structure_channel) {
        pass.fused = structure.similarity;
      } else {
        pass.fused = name.nff.fused;
      }
    }
    if (checkpoint.enabled()) {
      ScopedSpan span(spans, "rt.save");
      (void)checkpoint.SaveMatrix("fused", pass.fused);
    }
  }
  {
    ScopedSpan span(spans, "eval");
    pass.metrics = largeea::Evaluate(pass.fused, dataset.split.test);
  }
  return pass;
}

void WritePass(const PassResult& pass, largeea::obs::JsonWriter& w) {
  w.BeginObject()
      .Key("hits_at_1").Double(pass.metrics.hits_at_1)
      .Key("mrr").Double(pass.metrics.mrr)
      .Key("pseudo_seeds").Int(pass.pseudo_seeds)
      .Key("name_resumed").Bool(pass.name_resumed)
      .EndObject();
}

/// A pass with its own checkpoint manager, accounting the bytes it
/// moved through `dir` (empty = no checkpoints).
StatusOr<PassResult> RunCheckpointedPass(const EaDataset& dataset,
                                         const Config& config,
                                         const std::string& dir, bool resume,
                                         SpanLog& spans, Values& values) {
  largeea::rt::CheckpointManager checkpoint =
      largeea::MakePipelineCheckpointManager(dataset, config.pipeline, dir,
                                             resume);
  const DirState before = ReadDirState(dir);
  auto pass = RunPass(dataset, config.pipeline, checkpoint, spans, values);
  AddCheckpointBytes(before, ReadDirState(dir), resume, values);
  return pass;
}

double MicrosSince(double start_s) { return (NowSeconds() - start_s) * 1e6; }

/// The serve layers on the CLI's artifact: build/save the same index
/// in-process, load and swap the CLI's, then time each public call of
/// the query path over the burst script run.py's load generator sends.
Status TraceServe(const EaDataset& dataset, const Config& config,
                  const SparseSimMatrix& fused, const largeea::Flags& flags,
                  SpanLog& spans, Values& values) {
  namespace serve = largeea::serve;
  const std::string cli_index = flags.GetString("index", "");
  const std::string own_index = flags.GetString("index-out", "");
  serve::ServeIndexOptions options;
  options.encoder = config.pipeline.name_channel.nff.sens.encoder;
  options.metric = config.pipeline.name_channel.nff.sens.metric;
  std::vector<std::string> source_names, target_names;
  for (int32_t e = 0; e < dataset.source.num_entities(); ++e) {
    source_names.push_back(dataset.source.EntityName(e));
  }
  for (int32_t e = 0; e < dataset.target.num_entities(); ++e) {
    target_names.push_back(dataset.target.EntityName(e));
  }
  const uint64_t fingerprint =
      largeea::ComputePipelineFingerprints(dataset, config.pipeline).fused;
  {
    StatusOr<std::shared_ptr<const serve::ServeIndex>> built =
        largeea::InvalidArgumentError("not built");
    {
      ScopedSpan span(spans, "serve.build");
      built = serve::ServeIndex::Build(fused, std::move(source_names),
                                       std::move(target_names), fingerprint,
                                       options);
    }
    if (!built.ok()) return built.status();
    ScopedSpan span(spans, "serve.save");
    LARGEEA_RETURN_IF_ERROR((*built)->Save(own_index));
  }
  values["serve.artifact_mb"] =
      static_cast<double>(fs::file_size(own_index)) / (1 << 20);

  serve::IndexManager manager;
  {
    StatusOr<std::shared_ptr<const serve::ServeIndex>> loaded =
        largeea::InvalidArgumentError("not loaded");
    {
      ScopedSpan span(spans, "serve.load");
      loaded = serve::ServeIndex::Load(cli_index);
    }
    if (!loaded.ok()) return loaded.status();
    manager.Swap(std::move(loaded).value());
  }
  {
    ScopedSpan span(spans, "serve.swap");
    LARGEEA_RETURN_IF_ERROR(manager.LoadAndSwap(cli_index));
  }

  const auto seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const std::vector<Request> script = BurstScript(dataset, seed);
  serve::QueryEngine engine(&manager);
  const auto index = manager.Current();
  std::vector<double> parse_us, entity_us, name_us, exact_us;
  double shortlist_ids = 0.0;
  {
    ScopedSpan span(spans, "serve.exec");
    for (const Request& r : script) {
      double start = NowSeconds();
      const auto fields = serve::ParseFlatObject(r.line);
      parse_us.push_back(MicrosSince(start));
      if (!fields.ok()) return fields.status();
      serve::QueryRequest request;
      request.k = 10;
      if (r.kind == Request::Kind::kEntity) {
        request.entity = r.entity;
        start = NowSeconds();
        (void)engine.Execute(request);
        entity_us.push_back(MicrosSince(start));
        continue;
      }
      request.kind = serve::QueryRequest::Kind::kName;
      request.name = r.name;
      start = NowSeconds();
      (void)engine.Execute(request);
      name_us.push_back(MicrosSince(start));
      // Same cap the query engine applies (max(4k, 64) at k = 10).
      shortlist_ids += static_cast<double>(
          index->StringShortlist(r.name, 64).size());
      if (exact_us.size() < 200) {
        request.exact = true;
        start = NowSeconds();
        (void)engine.Execute(request);
        exact_us.push_back(MicrosSince(start));
      }
    }
  }
  values["serve.parse_us"] = Median(parse_us);
  values["serve.entity_exec_us"] = Median(entity_us);
  values["serve.name_exec_us"] = Median(name_us);
  values["serve.name_exact_exec_us"] = Median(exact_us);
  values["serve.shortlist_ids"] =
      name_us.empty() ? 0.0 : shortlist_ids / name_us.size();

  std::string input;
  for (const Request& r : script) input += r.line + "\n";
  std::istringstream in(input);
  std::ostringstream out;
  serve::ServeLoopStats stats;
  {
    ScopedSpan span(spans, "serve.loop");
    serve::ServeLoop loop(&manager, serve::ServeLoopOptions{});
    stats = loop.Run(in, out);
  }
  if (stats.failed != 0) {
    return largeea::InternalError("the buffered serve loop failed requests");
  }
  values["serve.batch_size"] =
      stats.batches > 0 ? static_cast<double>(stats.queries) / stats.batches
                        : 0.0;
  return largeea::OkStatus();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

}  // namespace

// --mode run:     --config ARGS                   (one cold pass)
// --mode retrain: --prime-config ARGS --config ARGS --work DIR
//                 (priming pass writing checkpoints, then the resume)
// --mode serve:   --config ARGS --index CLI.lea --index-out OWN.lea
int CmdTrace(const largeea::Flags& flags) {
  const std::string mode = flags.GetString("mode", "run");
  const std::string out_path = flags.GetString("out", "");
  auto config = ConfigFromArgsFile(flags.GetString("config", ""));
  if (!config.ok()) {
    std::fprintf(stderr, "trace: %s\n", config.status().ToString().c_str());
    return 2;
  }
  const Status runtime = config->ApplyRuntime();
  if (!runtime.ok()) {
    std::fprintf(stderr, "trace: %s\n", runtime.ToString().c_str());
    return 2;
  }

  SpanLog spans;
  Values values;
  largeea::obs::JsonWriter w;
  w.BeginObject();
  const double cpu_before = CpuSeconds();
  const int root = spans.Begin("traced");
  StatusOr<EaDataset> dataset = largeea::InvalidArgumentError("not loaded");
  const int64_t skipped_before = CounterValue("io.lines_skipped");
  {
    ScopedSpan span(spans, "kg");
    dataset = LoadDatasetDir(flags.GetString("dataset", ""),
                             config->strict_io);
  }
  values["kg.lines_skipped"] =
      static_cast<double>(CounterValue("io.lines_skipped") - skipped_before);
  Status status = dataset.status();

  if (status.ok() && mode == "retrain") {
    const std::string dir = flags.GetString("work", "") + "/checkpoints";
    auto prime_config = ConfigFromArgsFile(flags.GetString("prime-config", ""));
    status = prime_config.status();
    if (status.ok()) {
      auto prime = RunCheckpointedPass(*dataset, *prime_config, dir,
                                       /*resume=*/false, spans, values);
      status = prime.status();
      if (status.ok()) WritePass(*prime, w.Key("prime"));
    }
    if (status.ok()) {
      auto pass = RunCheckpointedPass(*dataset, *config, dir,
                                      /*resume=*/true, spans, values);
      status = pass.status();
      if (status.ok()) WritePass(*pass, w.Key("main"));
    }
  } else if (status.ok()) {
    auto pass = RunCheckpointedPass(*dataset, *config, "", /*resume=*/false,
                                    spans, values);
    status = pass.status();
    if (status.ok()) {
      WritePass(*pass, w.Key("main"));
      if (mode == "serve") {
        status = TraceServe(*dataset, *config, pass->fused, flags, spans,
                            values);
      }
    }
  }
  spans.End(root);
  values["proc.cpu_s"] = CpuSeconds() - cpu_before;
  if (!status.ok()) {
    std::fprintf(stderr, "trace: %s\n", status.ToString().c_str());
    return 1;
  }

  w.Key("spans");
  spans.WriteTo(w);
  w.Key("values").BeginObject();
  for (const auto& [name, value] : values) w.Key(name).Double(value);
  w.EndObject().EndObject();
  if (!WriteFile(out_path, w.str())) {
    std::fprintf(stderr, "trace: cannot write %s\n", out_path.c_str());
    return 1;
  }
  return 0;
}

}  // namespace perfbench
