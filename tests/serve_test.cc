// Tests for src/serve: index artifact round-trip and damage handling,
// ANN-vs-exact equivalence, atomic version swap under load (the TSan
// target), and the stdin/stdout serve protocol.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/la/matrix.h"
#include "src/serve/index_artifact.h"
#include "src/serve/index_manager.h"
#include "src/serve/query_engine.h"
#include "src/serve/serve_loop.h"
#include "src/sim/hnsw.h"
#include "src/sim/similarity_search.h"
#include "src/sim/topk_util.h"

namespace largeea {
namespace {

namespace fs = std::filesystem;

// Deterministic pseudo names with shared word structure, so the
// tokenizer/MinHash layers see realistic overlap.
std::vector<std::string> MakeNames(int32_t n, uint64_t seed) {
  static const char* const kWords[] = {"alda", "brin",  "ceto", "doral",
                                       "evik", "fenor", "gil",  "hasem",
                                       "irol", "jun"};
  Rng rng(seed);
  std::vector<std::string> names;
  names.reserve(n);
  for (int32_t i = 0; i < n; ++i) {
    std::string name = kWords[rng.Uniform(10)];
    name += ' ';
    name += kWords[rng.Uniform(10)];
    name += ' ';
    name += std::to_string(i);
    names.push_back(std::move(name));
  }
  return names;
}

SparseSimMatrix MakeFused(int32_t num_source, int32_t num_target,
                          uint64_t seed) {
  SparseSimMatrix fused(num_source, num_target, 8);
  Rng rng(seed);
  for (int32_t s = 0; s < num_source; ++s) {
    for (int32_t j = 0; j < 6; ++j) {
      fused.Accumulate(s, static_cast<EntityId>(rng.Uniform(num_target)),
                       static_cast<float>(rng.UniformDouble()));
    }
  }
  return fused;
}

serve::ServeIndexOptions SmallIndexOptions() {
  serve::ServeIndexOptions options;
  options.encoder.dim = 32;
  return options;
}

std::shared_ptr<const serve::ServeIndex> BuildIndexOrDie(
    int32_t num_source, int32_t num_target, uint64_t seed,
    uint64_t fingerprint) {
  auto index = serve::ServeIndex::Build(
      MakeFused(num_source, num_target, seed), MakeNames(num_source, seed + 1),
      MakeNames(num_target, seed + 2), fingerprint, SmallIndexOptions());
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  return std::move(index).value();
}

std::string TempPath(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

TEST(ServeIndexTest, BuildValidatesShape) {
  auto bad = serve::ServeIndex::Build(MakeFused(4, 4, 1), MakeNames(3, 2),
                                      MakeNames(4, 3), 1, SmallIndexOptions());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(ServeIndexTest, SaveLoadRoundTripsQueries) {
  const auto built = BuildIndexOrDie(30, 40, 11, 0xabcdef01);
  const std::string path = TempPath("serve_roundtrip.idx");
  ASSERT_TRUE(built->Save(path).ok());
  auto loaded_or = serve::ServeIndex::Load(path);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  const auto loaded = std::move(loaded_or).value();

  EXPECT_EQ(loaded->fingerprint(), built->fingerprint());
  EXPECT_EQ(loaded->num_source_entities(), 30);
  EXPECT_EQ(loaded->num_target_entities(), 40);

  // Entity-path answers: identical fused rows.
  for (int32_t s = 0; s < 30; ++s) {
    const auto a = built->fused().Row(s);
    const auto b = loaded->fused().Row(s);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].column, b[i].column);
      EXPECT_EQ(a[i].score, b[i].score);
    }
  }

  // Name-path answers: the rebuilt encoder (IDF refit from the stored
  // name tables) and the deserialised graph must reproduce the built
  // index's answers bit-identically.
  for (int32_t q = 0; q < 30; ++q) {
    const std::string& name = built->SourceName(q);
    std::vector<float> va(built->encoder().dim());
    std::vector<float> vb(loaded->encoder().dim());
    built->encoder().EncodeName(name, va.data());
    loaded->encoder().EncodeName(name, vb.data());
    ASSERT_EQ(va, vb);
    std::vector<SimEntry> ra, rb;
    built->ann().QueryTopK(va, 5, ra);
    loaded->ann().QueryTopK(vb, 5, rb);
    ASSERT_EQ(ra.size(), rb.size());
    for (size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].column, rb[i].column);
      EXPECT_EQ(ra[i].score, rb[i].score);
    }
    EXPECT_EQ(built->StringShortlist(name), loaded->StringShortlist(name));
  }
  fs::remove(path);
}

TEST(ServeIndexTest, TamperedPayloadIsDataLoss) {
  const auto built = BuildIndexOrDie(10, 12, 21, 42);
  const std::string path = TempPath("serve_tamper.idx");
  ASSERT_TRUE(built->Save(path).ok());

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    bytes = ss.str();
  }
  // Flip one payload byte (past the header line).
  std::string tampered = bytes;
  tampered[bytes.find('\n') + 10] ^= 0x40;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << tampered;
  }
  EXPECT_EQ(serve::ServeIndex::Load(path).status().code(),
            StatusCode::kDataLoss);

  // Truncation is also data loss, not a parse crash.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes.substr(0, bytes.size() / 2);
  }
  EXPECT_EQ(serve::ServeIndex::Load(path).status().code(),
            StatusCode::kDataLoss);

  // A damaged header too.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "not-an-index v9 zz\n";
  }
  EXPECT_EQ(serve::ServeIndex::Load(path).status().code(),
            StatusCode::kDataLoss);
  fs::remove(path);
}

TEST(ServeIndexTest, FingerprintMismatchIsFailedPrecondition) {
  const auto built = BuildIndexOrDie(10, 12, 31, 0x1111);
  const std::string path = TempPath("serve_fpr.idx");
  ASSERT_TRUE(built->Save(path).ok());
  EXPECT_EQ(serve::ServeIndex::Load(path, 0x2222).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(serve::ServeIndex::Load(path, 0x1111).ok());
  fs::remove(path);
}

TEST(ServeIndexTest, LoadMissingFileIsNotFound) {
  EXPECT_EQ(serve::ServeIndex::Load(TempPath("serve_nope.idx"))
                .status()
                .code(),
            StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// ANN (HNSW) vs exact scan.
// ---------------------------------------------------------------------------

Matrix RandomEmbeddings(int32_t rows, int32_t dim, uint64_t seed) {
  Matrix m(rows, dim);
  Rng rng(seed);
  for (int32_t r = 0; r < rows; ++r) {
    float* row = m.Row(r);
    for (int32_t c = 0; c < dim; ++c) {
      row[c] = static_cast<float>(rng.UniformDouble()) - 0.5f;
    }
  }
  return m;
}

TEST(HnswTest, BuildIsDeterministic) {
  const Matrix data = RandomEmbeddings(200, 16, 5);
  const HnswIndex a(data, SimMetric::kManhattan, HnswOptions{});
  const HnswIndex b(data, SimMetric::kManhattan, HnswOptions{});
  EXPECT_EQ(a.max_level(), b.max_level());
  EXPECT_EQ(a.num_edges(), b.num_edges());
  std::vector<std::pair<float, int32_t>> ra, rb;
  for (int32_t q = 0; q < 200; q += 7) {
    a.QueryTopK(data.Row(q), 10, ra);
    b.QueryTopK(data.Row(q), 10, rb);
    EXPECT_EQ(ra, rb);
  }
}

TEST(HnswTest, RecallAgainstExactScan) {
  const int32_t n = 500, dim = 24, k = 10;
  const Matrix data = RandomEmbeddings(n, dim, 9);
  const HnswIndex ann(data, SimMetric::kManhattan, HnswOptions{});
  const auto& kt = simd::Kernels();

  int64_t hits = 0, total = 0, top1_match = 0;
  std::vector<std::pair<float, int32_t>> approx;
  for (int32_t q = 0; q < n; q += 3) {
    // Exact reference: full scan through the shared scorer, identical
    // tie-breaks.
    TopKHeap heap(k);
    for (int32_t t = 0; t < n; ++t) {
      heap.Offer(t, ScorePair(kt, data.Row(q), data.Row(t), dim,
                              SimMetric::kManhattan));
    }
    std::vector<std::pair<float, int32_t>> exact;
    heap.Drain(exact);

    ann.QueryTopK(data.Row(q), k, approx);
    ASSERT_FALSE(approx.empty());
    // Same scorer on both sides: a recalled id has an identical entry.
    for (const auto& e : exact) {
      for (const auto& a : approx) {
        if (a.second == e.second) {
          EXPECT_EQ(a.first, e.first);
          ++hits;
          break;
        }
      }
    }
    total += static_cast<int64_t>(exact.size());
    if (approx[0] == exact[0]) ++top1_match;
  }
  const double recall = static_cast<double>(hits) / total;
  EXPECT_GE(recall, 0.9) << "recall@" << k << " = " << recall;
  // Re-ranked top-1 matches the exact scan's top-1 on nearly every
  // query (ANN can only miss candidates, never mis-rank them).
  EXPECT_GE(top1_match, (n / 3) * 9 / 10);
}

TEST(SimilaritySearchTest, QueryTopKMatchesSearchInto) {
  const int32_t ns = 40, nt = 60, dim = 16;
  const Matrix source = RandomEmbeddings(ns, dim, 13);
  const Matrix target = RandomEmbeddings(nt, dim, 14);
  std::vector<EntityId> col_ids(nt);
  std::iota(col_ids.begin(), col_ids.end(), 0);
  std::vector<EntityId> row_ids(ns);
  std::iota(row_ids.begin(), row_ids.end(), 0);

  for (const bool use_lsh : {false, true}) {
    SimilaritySearchOptions options;
    options.topk.k = 7;
    options.use_lsh = use_lsh;
    const auto search = MakeSimilaritySearch(target, col_ids, options);
    SparseSimMatrix batch(ns, nt, options.topk.k);
    search->SearchInto(source, row_ids, batch);
    std::vector<SimEntry> single;
    for (int32_t s = 0; s < ns; ++s) {
      search->QueryTopK(std::span<const float>(source.Row(s), dim),
                        options.topk.k, single);
      const auto row = batch.Row(s);
      ASSERT_EQ(single.size(), row.size()) << "lsh=" << use_lsh;
      for (size_t i = 0; i < row.size(); ++i) {
        EXPECT_EQ(single[i].column, row[i].column);
        EXPECT_EQ(single[i].score, row[i].score);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Atomic version swap (run under TSan via run_sanitized_tests.sh).
// ---------------------------------------------------------------------------

TEST(IndexManagerTest, CurrentIsNullBeforeFirstSwap) {
  serve::IndexManager manager;
  EXPECT_EQ(manager.Current(), nullptr);
  EXPECT_EQ(manager.version(), 0);
  serve::QueryEngine engine(&manager);
  serve::QueryRequest request;
  request.kind = serve::QueryRequest::Kind::kEntity;
  request.entity = 0;
  EXPECT_EQ(engine.Execute(request).status.code(), StatusCode::kUnavailable);
}

TEST(IndexManagerTest, SwapUnderLoadNeverTearsAnswers) {
  // Two versions with disjoint fingerprints and different fused
  // contents; hammer queries from readers while a writer swaps. Every
  // response must be internally consistent: the answer for entity 0
  // matches exactly the version whose fingerprint it reports.
  const auto v1 = BuildIndexOrDie(16, 16, 71, 0xA);
  const auto v2 = BuildIndexOrDie(16, 16, 72, 0xB);
  const auto expect_a = v1->fused().Row(0);
  const auto expect_b = v2->fused().Row(0);

  serve::IndexManager manager;
  manager.Swap(v1);
  serve::QueryEngine engine(&manager);

  std::atomic<bool> stop{false};
  std::atomic<int64_t> checked{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      serve::QueryRequest request;
      request.kind = serve::QueryRequest::Kind::kEntity;
      request.entity = 0;
      request.k = 16;
      while (!stop.load(std::memory_order_relaxed)) {
        const serve::QueryResponse response = engine.Execute(request);
        ASSERT_TRUE(response.status.ok());
        const auto& expect =
            response.index_fingerprint == 0xA ? expect_a : expect_b;
        ASSERT_TRUE(response.index_fingerprint == 0xA ||
                    response.index_fingerprint == 0xB);
        ASSERT_EQ(response.candidates.size(), expect.size());
        for (size_t i = 0; i < expect.size(); ++i) {
          ASSERT_EQ(response.candidates[i].target, expect[i].column);
          ASSERT_EQ(response.candidates[i].score, expect[i].score);
        }
        checked.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    manager.Swap(i % 2 == 0 ? v2 : v1);
    std::this_thread::yield();
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(checked.load(), 0);
  EXPECT_EQ(manager.version(), 201);
}

// ---------------------------------------------------------------------------
// Serve loop protocol.
// ---------------------------------------------------------------------------

TEST(ServeLoopTest, ParseFlatObject) {
  auto fields = serve::ParseFlatObject(
      R"({"op":"query","name":"a \"b\"\nc","k":5,"exact":true})");
  ASSERT_TRUE(fields.ok()) << fields.status().ToString();
  EXPECT_EQ(fields->at("op"), "query");
  EXPECT_EQ(fields->at("name"), "a \"b\"\nc");
  EXPECT_EQ(fields->at("k"), "5");
  EXPECT_EQ(fields->at("exact"), "true");

  EXPECT_TRUE(serve::ParseFlatObject("{}").ok());
  EXPECT_TRUE(serve::ParseFlatObject(R"( { "a" : "b" } )").ok());
  EXPECT_EQ(serve::ParseFlatObject(R"({"u":"A"})")->at("u"), "A");
  EXPECT_FALSE(serve::ParseFlatObject("").ok());
  EXPECT_FALSE(serve::ParseFlatObject("[1,2]").ok());
  EXPECT_FALSE(serve::ParseFlatObject(R"({"a":{"b":1}})").ok());
  EXPECT_FALSE(serve::ParseFlatObject(R"({"a":1} trailing)").ok());
  EXPECT_FALSE(serve::ParseFlatObject(R"({"a")").ok());
  EXPECT_FALSE(serve::ParseFlatObject(R"({"a":})").ok());
}

TEST(ServeLoopTest, ProtocolAnswersInOrderAndSwapsMidStream) {
  const auto v1 = BuildIndexOrDie(8, 8, 81, 0xC1);
  const auto v2 = BuildIndexOrDie(8, 8, 82, 0xC2);
  const std::string v2_path = TempPath("serve_loop_v2.idx");
  ASSERT_TRUE(v2->Save(v2_path).ok());

  serve::IndexManager manager;
  manager.Swap(v1);
  serve::ServeLoop loop(&manager, serve::ServeLoopOptions{});

  std::istringstream in(
      "{\"op\":\"query\",\"entity\":0,\"k\":2}\n"
      "{\"op\":\"swap\",\"index\":\"" + v2_path + "\"}\n"
      "{\"op\":\"query\",\"entity\":0,\"k\":2}\n"
      "{\"op\":\"query\",\"entity\":-3}\n"
      // Past EntityId's range: would wrap onto entities 3 and 0.
      "{\"op\":\"query\",\"entity\":4294967299}\n"
      "{\"op\":\"query\",\"entity\":-4294967296}\n"
      "{\"op\":\"stats\"}\n"
      "{\"op\":\"quit\"}\n"
      "{\"op\":\"query\",\"entity\":1}\n");  // after quit: never answered
  std::ostringstream out;
  const serve::ServeLoopStats stats = loop.Run(in, out);

  EXPECT_EQ(stats.queries, 5);
  EXPECT_EQ(stats.failed, 3);  // the three out-of-range entities
  EXPECT_EQ(stats.swaps, 1);
  EXPECT_TRUE(stats.saw_quit);

  std::vector<std::string> lines;
  std::istringstream reread(out.str());
  for (std::string line; std::getline(reread, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 8u);
  // Query before the swap answers from v1, after from v2 — the control
  // op is a barrier, so the ordering is exact, not racy.
  EXPECT_NE(lines[0].find("\"fingerprint\":\"00000000000000c1\""),
            std::string::npos);
  EXPECT_NE(lines[1].find("\"version\":2"), std::string::npos);
  EXPECT_NE(lines[2].find("\"fingerprint\":\"00000000000000c2\""),
            std::string::npos);
  for (size_t i : {3u, 4u, 5u}) {
    EXPECT_NE(lines[i].find("\"ok\":false"), std::string::npos) << lines[i];
    EXPECT_NE(lines[i].find("INVALID_ARGUMENT"), std::string::npos)
        << lines[i];
  }
  EXPECT_NE(lines[6].find("\"version_swaps\":1"), std::string::npos);
  EXPECT_NE(lines[7].find("\"bye\":true"), std::string::npos);
  fs::remove(v2_path);
}

TEST(ServeLoopTest, StopFlagDrainsPendingBatch) {
  const auto v1 = BuildIndexOrDie(8, 8, 91, 0xD1);
  serve::IndexManager manager;
  manager.Swap(v1);
  // A stop flag raised before Run: the loop must not read anything, but
  // still exits cleanly through the drain path.
  serve::ServeLoop loop(&manager, serve::ServeLoopOptions{});
  std::istringstream in("{\"op\":\"query\",\"entity\":0}\n");
  std::ostringstream out;
  std::atomic<int> stop{SIGTERM};
  const serve::ServeLoopStats stats = loop.Run(in, out, &stop);
  EXPECT_TRUE(stats.saw_stop);
  EXPECT_EQ(stats.queries, 0);
}

TEST(ServeLoopTest, NameQueryMatchesEngine) {
  const auto v1 = BuildIndexOrDie(12, 12, 95, 0xE1);
  serve::IndexManager manager;
  manager.Swap(v1);
  serve::QueryEngine engine(&manager);

  serve::QueryRequest request;
  request.kind = serve::QueryRequest::Kind::kName;
  request.name = v1->TargetName(3);
  request.k = 3;
  const serve::QueryResponse direct = engine.Execute(request);
  ASSERT_TRUE(direct.status.ok());
  ASSERT_FALSE(direct.candidates.empty());
  // Querying a target's own name must put that target on top: its
  // embedding similarity to itself is maximal and the string channel
  // shortlists it.
  EXPECT_EQ(direct.candidates[0].target, 3);

  serve::ServeLoop loop(&manager, serve::ServeLoopOptions{});
  std::istringstream in("{\"op\":\"query\",\"name\":\"" + request.name +
                        "\",\"k\":3}\n");
  std::ostringstream out;
  loop.Run(in, out);
  EXPECT_NE(out.str().find("\"target\":3"), std::string::npos);
  const std::string expected_first =
      "\"candidates\":[{\"target\":" + std::to_string(direct.candidates[0].target);
  EXPECT_NE(out.str().find(expected_first), std::string::npos);
}

}  // namespace
}  // namespace largeea
