#include <cstdio>
#include <string>

#include "perfbench/tool.h"
#include "src/gen/benchmark_gen.h"
#include "src/kg/kg_io.h"
#include "src/par/thread_pool.h"
#include "src/simd/simd.h"
#include "src/tune/tune_table.h"

using largeea::Flags;

namespace perfbench {
namespace {

// Writes the seeded dataset in the `largeea_cli generate` layout. The
// CLI's own generator has no seed flag, so the benchmark owns this step.
int CmdGen(const Flags& flags) {
  const std::string dir = flags.GetString("out", "");
  if (dir.empty()) {
    std::fprintf(stderr, "gen: --out is required\n");
    return 2;
  }
  const auto seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const double scale = flags.GetDouble("scale", 1.0);
  const std::string tier = flags.GetString("tier", "dbp1m");
  largeea::BenchmarkSpec spec;
  if (tier == "dbp1m") {
    spec = largeea::Dbp1mSpec(largeea::LanguagePair::kEnFr, scale, seed);
  } else if (tier == "ids15k") {
    spec = largeea::Ids15kSpec(largeea::LanguagePair::kEnFr, scale, seed);
  } else {
    std::fprintf(stderr, "gen: --tier must be dbp1m or ids15k\n");
    return 2;
  }
  const largeea::EaDataset d = largeea::GenerateBenchmark(spec);
  const largeea::Status saved[] = {
      largeea::SaveTriples(d.source, dir + "/source.tsv"),
      largeea::SaveTriples(d.target, dir + "/target.tsv"),
      largeea::SaveAlignment(d.split.train, d.source, d.target,
                             dir + "/train.tsv"),
      largeea::SaveAlignment(d.split.test, d.source, d.target,
                             dir + "/test.tsv"),
  };
  for (const largeea::Status& s : saved) {
    if (!s.ok()) {
      std::fprintf(stderr, "gen: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  std::printf("{\"source_entities\":%d,\"target_entities\":%d,"
              "\"source_triples\":%zu,\"target_triples\":%zu,"
              "\"train_pairs\":%zu,\"test_pairs\":%zu}\n",
              d.source.num_entities(), d.target.num_entities(),
              d.source.triples().size(), d.target.triples().size(),
              d.split.train.size(), d.split.test.size());
  return 0;
}

// Run metadata as the CLI would resolve it in this environment (the
// LARGEEA_THREADS / LARGEEA_SIMD variables and the tuning defaults).
int CmdMeta() {
  largeea::obs::JsonWriter w;
  w.BeginObject()
      .Key("simd_backend")
      .String(largeea::simd::BackendName(largeea::simd::ActiveBackend()))
      .Key("pool_threads")
      .Int(largeea::par::ThreadPool::Get().num_threads())
      .Key("tuning")
      .String(largeea::tune::TuneTable::Get().Describe())
      .EndObject();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench_tool gen|meta|trace|load [--flags]\n");
    return 2;
  }
  const std::string command = argv[1];
  const Flags flags(argc - 1, argv + 1);
  if (command == "gen") return perfbench::CmdGen(flags);
  if (command == "meta") return perfbench::CmdMeta();
  if (command == "trace") return perfbench::CmdTrace(flags);
  if (command == "load") return perfbench::CmdLoad(flags);
  std::fprintf(stderr, "perfbench_tool: unknown command '%s'\n",
               command.c_str());
  return 2;
}
