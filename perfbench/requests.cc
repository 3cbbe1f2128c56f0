#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <random>

#include "perfbench/tool.h"
#include "src/kg/kg_io.h"

namespace perfbench {
namespace {

constexpr int32_t kTopK = 10;

/// Uniform in [0, 1) from the top 53 bits (portable, unlike the
/// standard distributions, whose output is implementation-defined).
double Uniform(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

Request EntityQuery(largeea::EntityId e) {
  Request r;
  r.kind = Request::Kind::kEntity;
  r.entity = e;
  largeea::obs::JsonWriter w;
  w.BeginObject().Key("op").String("query").Key("entity").Int(e)
      .Key("k").Int(kTopK).EndObject();
  r.line = w.str();
  return r;
}

Request NameQuery(const std::string& name) {
  Request r;
  r.kind = Request::Kind::kName;
  r.name = name;
  largeea::obs::JsonWriter w;
  w.BeginObject().Key("op").String("query").Key("name").String(name)
      .Key("k").Int(kTopK).EndObject();
  r.line = w.str();
  return r;
}

Request RandomQuery(const largeea::EaDataset& dataset, std::mt19937_64& rng,
                    bool name) {
  const auto n = static_cast<uint64_t>(dataset.source.num_entities());
  const auto e = static_cast<largeea::EntityId>(rng() % n);
  return name ? NameQuery(dataset.source.EntityName(e)) : EntityQuery(e);
}

}  // namespace

double NowSeconds() {
  static const auto start = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

largeea::StatusOr<largeea::EaDataset> LoadDatasetDir(const std::string& dir,
                                                     bool strict_io) {
  largeea::EaDatasetPaths paths;
  paths.source_triples = dir + "/source.tsv";
  paths.target_triples = dir + "/target.tsv";
  paths.train_pairs = dir + "/train.tsv";
  paths.test_pairs = dir + "/test.tsv";
  largeea::TsvReadOptions io;
  io.strict = strict_io;
  return largeea::LoadEaDataset(paths, io, "perfbench");
}

std::vector<Request> OpenLoopSchedule(const largeea::EaDataset& dataset,
                                      uint64_t seed, double seconds,
                                      const std::string& index_path) {
  std::mt19937_64 rng(seed ^ 0x6f70656e6c6f6f70ULL);
  std::vector<Request> schedule;
  double t = 0.0;
  // Swaps at kSwapEveryS/2, 3*kSwapEveryS/2, ...: a run shorter than the
  // period still exercises one.
  double next_swap = kSwapEveryS / 2;
  while (true) {
    t += -std::log1p(-Uniform(rng)) / kServeRate;
    if (t >= seconds) break;
    while (next_swap <= t) {
      Request swap;
      swap.kind = Request::Kind::kSwap;
      swap.due_s = next_swap;
      largeea::obs::JsonWriter w;
      w.BeginObject().Key("op").String("swap").Key("index").String(index_path)
          .EndObject();
      swap.line = w.str();
      schedule.push_back(std::move(swap));
      next_swap += kSwapEveryS;
    }
    Request query = RandomQuery(dataset, rng, (rng() & 1) != 0);
    query.due_s = t;
    schedule.push_back(std::move(query));
  }
  return schedule;
}

std::vector<Request> BurstScript(const largeea::EaDataset& dataset,
                                 uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0x6275727374ULL);
  std::vector<Request> script;
  script.reserve(dataset.split.test.size() + kBurstNames);
  for (const largeea::EntityPair& pair : dataset.split.test) {
    script.push_back(EntityQuery(pair.source));
  }
  for (int32_t i = 0; i < kBurstNames; ++i) {
    script.push_back(RandomQuery(dataset, rng, /*name=*/true));
  }
  return script;
}

ParsedResponse ParseResponse(const std::string& line) {
  ParsedResponse parsed;
  parsed.ok = line.starts_with("{\"ok\":true");
  if (const size_t v = line.find("\"version\":"); v != std::string::npos) {
    parsed.version = std::strtoll(line.c_str() + v + 10, nullptr, 10);
  }
  // Target names are JSON-escaped strings, so the key text cannot occur
  // inside one unescaped; every match is a candidate's id field.
  static const std::string kKey = "{\"target\":";
  for (size_t p = line.find(kKey); p != std::string::npos;
       p = line.find(kKey, p + kKey.size())) {
    parsed.targets.push_back(static_cast<int32_t>(
        std::strtol(line.c_str() + p + kKey.size(), nullptr, 10)));
  }
  return parsed;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  if (values.size() % 2 == 1) return values[mid];
  const double upper = values[mid];
  const double lower =
      *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2;
}

bool WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
  return static_cast<bool>(out.flush());
}

}  // namespace perfbench
