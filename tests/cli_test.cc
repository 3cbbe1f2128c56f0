// largeea_cli end to end: flag checking per subcommand and the run
// report's phase rows, through the real binary.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "src/rt/io_util.h"
#include "src/shard/subprocess.h"

#ifdef LARGEEA_CLI_BIN

namespace largeea {
namespace {

namespace fs = std::filesystem;

class CliTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new std::string(
        (fs::temp_directory_path() / "largeea_cli_test").string());
    fs::remove_all(*dir_);
    fs::create_directories(*dir_);
  }
  static void TearDownTestSuite() {
    fs::remove_all(*dir_);
    delete dir_;
    dir_ = nullptr;
  }
  static const std::string& dir() { return *dir_; }

  struct Outcome {
    int exit_code = -1;
    std::string output;  ///< stdout + stderr
  };

  /// Runs `largeea_cli <args...>` to completion.
  static Outcome Cli(const std::vector<std::string>& args) {
    std::vector<std::string> argv = {LARGEEA_CLI_BIN};
    argv.insert(argv.end(), args.begin(), args.end());
    const std::string log = dir() + "/cli.log";
    Outcome outcome;
    auto pid = shard::SpawnProcess(argv, {}, log);
    EXPECT_TRUE(pid.ok()) << pid.status().ToString();
    if (!pid.ok()) return outcome;
    const shard::ProcessStatus status = shard::WaitProcess(*pid);
    if (status.state == shard::ProcessStatus::State::kExited) {
      outcome.exit_code = status.exit_code;
    }
    auto text = rt::ReadFileToString(log);
    if (text.ok()) outcome.output = std::move(text).value();
    return outcome;
  }

  /// A tiny generated dataset's --source/--target/--seeds/--test.
  static std::vector<std::string> DataArgs() {
    if (!fs::exists(dir() + "/source.tsv")) {
      const Outcome generated =
          Cli({"generate", "--tier", "ids15k", "--pair", "enfr", "--scale",
               "0.03", "--out_dir", dir()});
      EXPECT_EQ(generated.exit_code, 0) << generated.output;
    }
    return {"--source", dir() + "/source.tsv", "--target",
            dir() + "/target.tsv", "--seeds", dir() + "/train.tsv",
            "--test", dir() + "/test.tsv"};
  }

  static std::string* dir_;
};

std::string* CliTest::dir_ = nullptr;

TEST_F(CliTest, EverySubcommandRejectsAMisspelledFlag) {
  for (const char* command :
       {"generate", "run", "index-build", "serve", "query", "partition"}) {
    const Outcome outcome = Cli({command, "--epochs=1", "--thraeds=2"});
    EXPECT_EQ(outcome.exit_code, 2) << command << ": " << outcome.output;
    EXPECT_NE(outcome.output.find("unknown flag --thraeds"),
              std::string::npos)
        << command << ": " << outcome.output;
  }
}

TEST_F(CliTest, DeletedExecutorFlagsAreRejected) {
  for (const char* flag : {"--no-dag", "--dag=false"}) {
    const Outcome outcome = Cli({"run", flag});
    EXPECT_EQ(outcome.exit_code, 2) << flag << ": " << outcome.output;
    EXPECT_NE(outcome.output.find("unknown flag --"), std::string::npos)
        << outcome.output;
  }
}

TEST_F(CliTest, OnlyTheRunSubcommandSpellingIsAccepted) {
  EXPECT_EQ(Cli({"align", "--epochs=1"}).exit_code, 2);
  EXPECT_EQ(Cli({"--epochs=1"}).exit_code, 2);
}

TEST_F(CliTest, RunReportListsOperatorsThenUnattributed) {
  std::vector<std::string> args = {"run"};
  for (std::string& a : DataArgs()) args.push_back(std::move(a));
  const std::string report = dir() + "/run.json";
  const std::string ckpt = dir() + "/ckpt";
  for (const std::string& a :
       {std::string("--epochs"), std::string("3"), std::string("--batches"),
        std::string("2"), std::string("--report-out"), report,
        std::string("--checkpoint-dir"), ckpt}) {
    args.push_back(a);
  }
  const Outcome fresh = Cli(args);
  ASSERT_EQ(fresh.exit_code, 0) << fresh.output;

  auto json = rt::ReadFileToString(report);
  ASSERT_TRUE(json.ok());
  const size_t phases = json->find("\"phases\":[");
  ASSERT_NE(phases, std::string::npos);
  const std::string rows = json->substr(phases, json->find(']', phases) -
                                                    phases);
  size_t at = 0;
  // Each operator once, in pipeline order, then `unattributed` last.
  for (const std::string name :
       {"dag/name_semantic", "dag/name_string", "dag/name_fuse",
        "dag/name_augmentation", "dag/seed_augmentation", "dag/partition",
        "dag/structure_train", "dag/fusion", "dag/evaluate",
        "unattributed"}) {
    const size_t next = rows.find("{\"name\":\"" + name + "\"", at);
    ASSERT_NE(next, std::string::npos) << name << " in " << rows;
    at = next + 1;
  }
  EXPECT_EQ(rows.find("{\"name\":", at), std::string::npos) << rows;
  const size_t seconds = rows.find("\"seconds\":", at);
  ASSERT_NE(seconds, std::string::npos);
  EXPECT_GE(std::strtod(rows.c_str() + seconds + 10, nullptr), 0.0);

  // The flags the benchmark's retrain workload passes on top.
  args.push_back("--resume");
  args.push_back("--epochs");
  args.push_back("4");
  const Outcome resumed = Cli(args);
  EXPECT_EQ(resumed.exit_code, 0) << resumed.output;
  EXPECT_NE(resumed.output.find("(checkpoint)"), std::string::npos)
      << resumed.output;
}

TEST_F(CliTest, ServingSubcommandsAcceptTheirOwnFlags) {
  std::vector<std::string> args = {"index-build"};
  for (std::string& a : DataArgs()) args.push_back(std::move(a));
  const std::string index = dir() + "/serve.idx";
  for (const std::string& a :
       {std::string("--epochs"), std::string("3"), std::string("--index-out"),
        index}) {
    args.push_back(a);
  }
  const Outcome built = Cli(args);
  ASSERT_EQ(built.exit_code, 0) << built.output;
  const Outcome queried =
      Cli({"query", "--index", index, "--entity", "0", "--k", "2"});
  EXPECT_EQ(queried.exit_code, 0) << queried.output;
  EXPECT_NE(queried.output.find("\"ok\":true"), std::string::npos)
      << queried.output;
  // `serve` reaches its index load (and fails there) rather than
  // stopping at the flag check.
  const Outcome served = Cli({"serve", "--index", dir() + "/missing.idx",
                              "--report-out", dir() + "/serve.json"});
  EXPECT_EQ(served.exit_code, 1) << served.output;
}

}  // namespace
}  // namespace largeea

#endif  // LARGEEA_CLI_BIN
