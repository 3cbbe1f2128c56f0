#include "src/serve/index_artifact.h"

#include <cinttypes>
#include <cstdio>
#include <utility>

#include "src/common/macros.h"
#include "src/name/tokenizer.h"
#include "src/obs/trace.h"
#include "src/rt/binary_io.h"
#include "src/rt/io_util.h"
#include "src/sim/sim_io.h"
#include "src/sim/topk_util.h"
#include "src/simd/simd.h"

namespace largeea::serve {
namespace {

constexpr std::string_view kMagic = "largeea-index";
constexpr int kFormatVersion = 1;

std::string Hex64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return std::string(buf);
}

void WriteTokenizer(rt::BinaryWriter& w, const TokenizerOptions& t) {
  w.I32(t.ngram_size);
  w.U32(t.include_words ? 1 : 0);
  w.U32(t.include_ngrams ? 1 : 0);
}

Status ReadTokenizer(rt::BinaryReader& r, TokenizerOptions* t) {
  uint32_t words = 0, ngrams = 0;
  LARGEEA_RETURN_IF_ERROR(r.I32(&t->ngram_size));
  LARGEEA_RETURN_IF_ERROR(r.U32(&words));
  LARGEEA_RETURN_IF_ERROR(r.U32(&ngrams));
  t->include_words = words != 0;
  t->include_ngrams = ngrams != 0;
  if (t->ngram_size <= 0 || t->ngram_size > 16) {
    return DataLossError("index: implausible tokenizer ngram size");
  }
  return OkStatus();
}

}  // namespace

StatusOr<std::shared_ptr<const ServeIndex>> ServeIndex::Build(
    const SparseSimMatrix& fused, std::vector<std::string> source_names,
    std::vector<std::string> target_names, uint64_t pipeline_fingerprint,
    const ServeIndexOptions& options) {
  if (fused.num_rows() != static_cast<int32_t>(source_names.size())) {
    return InvalidArgumentError(
        "index build: fused matrix has " + std::to_string(fused.num_rows()) +
        " rows but " + std::to_string(source_names.size()) +
        " source names were given");
  }
  if (fused.num_cols() != static_cast<int32_t>(target_names.size())) {
    return InvalidArgumentError(
        "index build: fused matrix has " + std::to_string(fused.num_cols()) +
        " cols but " + std::to_string(target_names.size()) +
        " target names were given");
  }
  obs::Span span("serve/index_build");
  span.AddAttr("targets", static_cast<int64_t>(target_names.size()));

  // shared_ptr (not make_shared) keeps the private constructor usable
  // and the control block separate from the large payload.
  std::shared_ptr<ServeIndex> index(new ServeIndex());
  index->fingerprint_ = pipeline_fingerprint;
  index->options_ = options;
  index->fused_ = fused;
  index->source_names_ = std::move(source_names);
  index->target_names_ = std::move(target_names);

  // Target-side semantic embeddings: the space incoming query names are
  // encoded into. The encoder is refit in Finish(); encode there too so
  // Build and Load share one code path for everything derived.
  LARGEEA_RETURN_IF_ERROR(index->Finish());
  return std::shared_ptr<const ServeIndex>(std::move(index));
}

Status ServeIndex::Finish() {
  const int64_t num_targets = num_target_entities();

  // Exact-name lookup tables. Duplicate names keep the smallest id —
  // deterministic, and matches KnowledgeGraph::FindEntity semantics.
  source_by_name_.clear();
  source_by_name_.reserve(source_names_.size());
  for (size_t e = 0; e < source_names_.size(); ++e) {
    source_by_name_.emplace(source_names_[e], static_cast<EntityId>(e));
  }
  target_by_name_.clear();
  target_by_name_.reserve(target_names_.size());
  for (size_t e = 0; e < target_names_.size(); ++e) {
    target_by_name_.emplace(target_names_[e], static_cast<EntityId>(e));
  }

  // Query-side encoder: IDF is a multiset statistic over both name
  // tables, so refitting here reproduces the pipeline's fit exactly.
  encoder_ = std::make_unique<SemanticEncoder>(options_.encoder);
  encoder_->FitIdfFromNames({&source_names_, &target_names_});

  // Target embeddings: packed structures are rebuilt only when absent
  // (Build); Load keeps the deserialised bytes.
  if (target_embeddings_.rows() != num_targets) {
    Matrix embeddings(num_targets, encoder_->dim());
    for (int64_t e = 0; e < num_targets; ++e) {
      encoder_->EncodeName(target_names_[e], embeddings.Row(e));
    }
    target_embeddings_ = std::move(embeddings);
  }
  if (target_embeddings_.cols() != encoder_->dim()) {
    return DataLossError("index: embedding dim does not match encoder dim");
  }

  // MinHash signatures + LSH banding (string-channel shortlist).
  const int32_t num_perms = options_.num_bands * options_.rows_per_band;
  hasher_ = std::make_unique<MinHasher>(num_perms, options_.minhash_seed);
  if (target_signatures_.empty() && num_targets > 0) {
    target_signatures_.reserve(num_targets);
    for (int64_t e = 0; e < num_targets; ++e) {
      target_signatures_.push_back(hasher_->Signature(
          TokenizeName(target_names_[e], options_.minhash_tokenizer)));
    }
  }
  if (static_cast<int64_t>(target_signatures_.size()) != num_targets) {
    return DataLossError("index: signature count does not match targets");
  }
  for (const std::vector<uint64_t>& signature : target_signatures_) {
    if (static_cast<int32_t>(signature.size()) != num_perms) {
      return DataLossError("index: signature length does not match banding");
    }
  }
  lsh_ = std::make_unique<MinHashLsh>(
      options_.num_bands, options_.rows_per_band, target_signatures_);

  // Search objects over the (now address-stable) embedding matrix.
  target_ids_.resize(num_targets);
  for (int64_t e = 0; e < num_targets; ++e) {
    target_ids_[e] = static_cast<EntityId>(e);
  }
  SimilaritySearchOptions search_options;
  search_options.topk.metric = options_.metric;
  search_options.hnsw = options_.hnsw;
  if (!graph_.has_value()) {
    graph_.emplace(target_embeddings_, options_.metric, options_.hnsw);
  }
  ann_ = MakeHnswSimilaritySearch(target_embeddings_, target_ids_,
                                  search_options, *graph_);
  exact_ = MakeSimilaritySearch(target_embeddings_, target_ids_,
                                search_options);
  return OkStatus();
}

std::optional<EntityId> ServeIndex::SourceIdByName(
    const std::string& name) const {
  const auto it = source_by_name_.find(name);
  if (it == source_by_name_.end()) return std::nullopt;
  return it->second;
}

std::optional<EntityId> ServeIndex::TargetIdByName(
    const std::string& name) const {
  const auto it = target_by_name_.find(name);
  if (it == target_by_name_.end()) return std::nullopt;
  return it->second;
}

std::vector<int32_t> ServeIndex::StringShortlist(
    const std::string& name) const {
  return lsh_->Query(hasher_->Signature(
      TokenizeName(name, options_.minhash_tokenizer)));
}

std::vector<int32_t> ServeIndex::StringShortlist(const std::string& name,
                                                 int32_t limit) const {
  return lsh_->QueryTop(
      hasher_->Signature(TokenizeName(name, options_.minhash_tokenizer)),
      limit);
}

float ServeIndex::ScoreAgainstTarget(const float* query,
                                     EntityId target) const {
  return ScorePair(simd::Kernels(), query, target_embeddings_.Row(target),
                   target_embeddings_.cols(), options_.metric);
}

int64_t ServeIndex::MemoryBytes() const {
  int64_t bytes = fused_.MemoryBytes();
  bytes += target_embeddings_.rows() * target_embeddings_.cols() *
           static_cast<int64_t>(sizeof(float));
  for (const auto& sig : target_signatures_) {
    bytes += static_cast<int64_t>(sig.size() * sizeof(uint64_t));
  }
  for (const auto& name : source_names_) bytes += name.size();
  for (const auto& name : target_names_) bytes += name.size();
  return bytes;
}

std::string ServeIndex::SerializePayload() const {
  rt::BinaryWriter w;
  // Options (HNSW options travel inside the graph section).
  w.I32(options_.encoder.dim);
  w.I32(options_.encoder.active_slots_per_token);
  w.F32(options_.encoder.word_token_weight);
  WriteTokenizer(w, options_.encoder.tokenizer);
  w.U64(options_.encoder.seed);
  w.F32(options_.encoder.epsilon);
  w.I32(static_cast<int32_t>(options_.metric));
  w.I32(options_.num_bands);
  w.I32(options_.rows_per_band);
  w.U64(options_.minhash_seed);
  WriteTokenizer(w, options_.minhash_tokenizer);
  // Entity tables.
  w.StrArray(source_names_);
  w.StrArray(target_names_);
  // Fused matrix: the %.9g text format round-trips floats exactly and
  // is shared with the checkpoint layer.
  w.Str(SimMatrixToString(fused_));
  // Target embeddings, row-major.
  w.U64(static_cast<uint64_t>(target_embeddings_.rows()));
  w.U64(static_cast<uint64_t>(target_embeddings_.cols()));
  for (int64_t r = 0; r < target_embeddings_.rows(); ++r) {
    w.F32Array(target_embeddings_.Row(r), target_embeddings_.cols());
  }
  // HNSW graph.
  graph_->Serialize(w);
  // MinHash signatures.
  w.U64(target_signatures_.size());
  for (const auto& sig : target_signatures_) {
    w.U64Array(sig);
  }
  return w.TakeBytes();
}

Status ServeIndex::DeserializePayload(std::string_view payload) {
  rt::BinaryReader r(payload);
  LARGEEA_RETURN_IF_ERROR(r.I32(&options_.encoder.dim));
  LARGEEA_RETURN_IF_ERROR(r.I32(&options_.encoder.active_slots_per_token));
  LARGEEA_RETURN_IF_ERROR(r.F32(&options_.encoder.word_token_weight));
  LARGEEA_RETURN_IF_ERROR(ReadTokenizer(r, &options_.encoder.tokenizer));
  LARGEEA_RETURN_IF_ERROR(r.U64(&options_.encoder.seed));
  LARGEEA_RETURN_IF_ERROR(r.F32(&options_.encoder.epsilon));
  int32_t metric = 0;
  LARGEEA_RETURN_IF_ERROR(r.I32(&metric));
  if (metric != static_cast<int32_t>(SimMetric::kManhattan) &&
      metric != static_cast<int32_t>(SimMetric::kDot)) {
    return DataLossError("index: unknown similarity metric");
  }
  options_.metric = static_cast<SimMetric>(metric);
  LARGEEA_RETURN_IF_ERROR(r.I32(&options_.num_bands));
  LARGEEA_RETURN_IF_ERROR(r.I32(&options_.rows_per_band));
  if (options_.num_bands <= 0 || options_.rows_per_band <= 0) {
    return DataLossError("index: implausible banding shape");
  }
  LARGEEA_RETURN_IF_ERROR(r.U64(&options_.minhash_seed));
  LARGEEA_RETURN_IF_ERROR(ReadTokenizer(r, &options_.minhash_tokenizer));

  LARGEEA_RETURN_IF_ERROR(r.StrArray(&source_names_));
  LARGEEA_RETURN_IF_ERROR(r.StrArray(&target_names_));

  std::string fused_text;
  LARGEEA_RETURN_IF_ERROR(r.Str(&fused_text));
  auto fused = SimMatrixFromString(fused_text);
  if (!fused.ok()) {
    // The checksum already passed, so malformed embedded text is
    // corruption of the container, not a user-input problem.
    return DataLossError("index: embedded fused matrix unparsable: " +
                         fused.status().message());
  }
  fused_ = std::move(fused).value();
  if (fused_.num_rows() != static_cast<int32_t>(source_names_.size()) ||
      fused_.num_cols() != static_cast<int32_t>(target_names_.size())) {
    return DataLossError("index: fused matrix shape does not match tables");
  }

  uint64_t rows = 0, cols = 0;
  LARGEEA_RETURN_IF_ERROR(r.U64(&rows));
  LARGEEA_RETURN_IF_ERROR(r.U64(&cols));
  if (rows != target_names_.size() ||
      cols != static_cast<uint64_t>(options_.encoder.dim)) {
    return DataLossError("index: embedding shape does not match tables");
  }
  Matrix embeddings(static_cast<int64_t>(rows), static_cast<int64_t>(cols));
  std::vector<float> row;
  for (uint64_t i = 0; i < rows; ++i) {
    LARGEEA_RETURN_IF_ERROR(r.F32Array(&row));
    if (row.size() != cols) {
      return DataLossError("index: embedding row length mismatch");
    }
    std::copy(row.begin(), row.end(), embeddings.Row(static_cast<int64_t>(i)));
  }
  target_embeddings_ = std::move(embeddings);

  // The graph borrows target_embeddings_, whose address is final: this
  // object already lives at its heap home when Load calls us.
  LARGEEA_ASSIGN_OR_RETURN(HnswIndex graph,
                           HnswIndex::Deserialize(r, target_embeddings_,
                                                  options_.metric));
  graph_.emplace(std::move(graph));

  uint64_t num_signatures = 0;
  LARGEEA_RETURN_IF_ERROR(r.U64(&num_signatures));
  if (num_signatures != target_names_.size()) {
    return DataLossError("index: signature count mismatch");
  }
  target_signatures_.resize(num_signatures);
  for (uint64_t i = 0; i < num_signatures; ++i) {
    LARGEEA_RETURN_IF_ERROR(r.U64Array(&target_signatures_[i]));
  }
  if (!r.exhausted()) {
    return DataLossError("index: " + std::to_string(r.remaining()) +
                         " trailing bytes after payload");
  }
  return OkStatus();
}

Status ServeIndex::Save(const std::string& path) const {
  obs::Span span("serve/index_save");
  const std::string payload = SerializePayload();
  std::string content = std::string(kMagic) + " v" +
                        std::to_string(kFormatVersion) + " " +
                        Hex64(fingerprint_) + " " +
                        std::to_string(payload.size()) + " " +
                        Hex64(rt::Fnv1a64(payload)) + "\n";
  content += payload;
  return rt::AtomicallyWriteFile(path, content)
      .WithContext("serve index save: " + path);
}

StatusOr<std::shared_ptr<const ServeIndex>> ServeIndex::Load(
    const std::string& path, std::optional<uint64_t> expected_fingerprint) {
  obs::Span span("serve/index_load");
  auto content_or = rt::ReadFileToString(path);
  if (!content_or.ok()) {
    return content_or.status().WithContext("serve index load");
  }
  const std::string content = std::move(content_or).value();
  const size_t newline = content.find('\n');
  if (newline == std::string::npos) {
    return DataLossError("serve index " + path + ": missing header line");
  }
  const std::string_view header(content.data(), newline);
  char magic[24] = {0};
  int version = 0;
  uint64_t fingerprint = 0, hash = 0;
  uint64_t payload_bytes = 0;
  // Field widths: magic is 13 chars + NUL; hex fields are 16 digits.
  if (std::sscanf(std::string(header).c_str(),
                  "%23s v%d %16" SCNx64 " %" SCNu64 " %16" SCNx64, magic,
                  &version, &fingerprint, &payload_bytes, &hash) != 5 ||
      kMagic != magic) {
    return DataLossError("serve index " + path + ": malformed header");
  }
  if (version != kFormatVersion) {
    return FailedPreconditionError("serve index " + path +
                                   ": unsupported format version v" +
                                   std::to_string(version));
  }
  const std::string_view payload(content.data() + newline + 1,
                                 content.size() - newline - 1);
  if (payload.size() != payload_bytes) {
    return DataLossError("serve index " + path + ": payload is " +
                         std::to_string(payload.size()) +
                         " bytes, header promises " +
                         std::to_string(payload_bytes));
  }
  if (rt::Fnv1a64(payload) != hash) {
    return DataLossError("serve index " + path + ": payload checksum mismatch");
  }
  if (expected_fingerprint.has_value() &&
      fingerprint != *expected_fingerprint) {
    return FailedPreconditionError(
        "serve index " + path + ": pipeline fingerprint " +
        Hex64(fingerprint) + " does not match expected " +
        Hex64(*expected_fingerprint));
  }

  std::shared_ptr<ServeIndex> index(new ServeIndex());
  index->fingerprint_ = fingerprint;
  LARGEEA_RETURN_IF_ERROR(index->DeserializePayload(payload).WithContext(
      "serve index " + path));
  LARGEEA_RETURN_IF_ERROR(index->Finish().WithContext("serve index " + path));
  return std::shared_ptr<const ServeIndex>(std::move(index));
}

}  // namespace largeea::serve
