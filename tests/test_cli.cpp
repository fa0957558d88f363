// CLI contract: the built `mac3d` binary stops malformed input at the
// boundary with one stderr line and exit 2, and still runs well-formed
// command lines. Caps are probed through `mac3d config`, which validates
// without building a System, and only with the first value past each cap,
// so a missed check can never start thousands of threads or nodes. Every
// simulating run stays at --scale 0.01 --threads 4.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "trace/trace.hpp"
#include "trace/trace_io.hpp"

namespace mac3d {
namespace {

namespace fs = std::filesystem;

class Cli : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("mac3d_test_cli_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  struct Outcome {
    int exit_code = -1;
    std::string err;
  };

  /// Runs `mac3d <args>` in the scratch directory with the `env`
  /// assignments ("NAME=value ...") in its environment; stdout is
  /// discarded.
  Outcome mac3d(const std::string& args, const std::string& env = "") const {
    const fs::path err = dir_ / "stderr.txt";
    const std::string command = "cd '" + dir_.string() + "' && " + env +
                                " '" + std::string(MAC3D_CLI) + "' " + args +
                                " > /dev/null 2> '" + err.string() + "'";
    const int status = std::system(command.c_str());
    Outcome outcome;
    if (status != -1 && WIFEXITED(status)) {
      outcome.exit_code = WEXITSTATUS(status);
    }
    std::ifstream in(err);
    std::stringstream text;
    text << in.rdbuf();
    outcome.err = text.str();
    return outcome;
  }

  /// Malformed input: exactly one stderr line and exit 2.
  void expect_rejected(const std::string& args,
                       const std::string& env = "") const {
    const Outcome outcome = mac3d(args, env);
    EXPECT_EQ(outcome.exit_code, 2) << args << "\n" << outcome.err;
    EXPECT_EQ(std::count(outcome.err.begin(), outcome.err.end(), '\n'), 1)
        << args << "\n" << outcome.err;
  }

  fs::path dir_;
};

constexpr const char* kSmall = "--scale 0.01 --threads 4";

TEST_F(Cli, MalformedFlagValuesExit2) {
  const std::string run = std::string("run ") + kSmall + " ";
  expect_rejected(run + "--threads abc");
  expect_rejected(run + "--scale nan");
  expect_rejected(run + "--scale -1");
  expect_rejected(run + "--seed -5");
  expect_rejected(run + "--sample-every x");
  expect_rejected(run + "--paths raw,simd");
  expect_rejected(run + "--threads");
}

TEST_F(Cli, RemovedSpellingsExit2) {
  const std::string run = std::string("run ") + kSmall + " ";
  expect_rejected(run + "--closed-loop");
  expect_rejected(run + "--engine cycle");
  expect_rejected(run + "--engine cycle-parallel");
}

TEST_F(Cli, BadConfigValuesExit2) {
  expect_rejected("config --set cores=4294967297");
  expect_rejected("config --set arq_entries=-1");
  expect_rejected("config --set arq_entries=0");
  expect_rejected("config --set bogus=1");
  expect_rejected("config --set cores=257");
  expect_rejected("config --set cpu_ghz=inf");
  expect_rejected("config --set mac_enabled=true");
  expect_rejected("config --set vault_queue_depth=32");
}

TEST_F(Cli, OutOfRangeBoundsExit2) {
  expect_rejected("config --nodes 0");
  expect_rejected("config --nodes 65537");
  // The flag walk rejects these before `run` simulates anything.
  const std::string run = "run --scale 0.01 --paths raw ";
  expect_rejected(run + "--threads 65537");
  expect_rejected(run + "--engine-threads 257");
  expect_rejected(run + "--jobs 257");
  expect_rejected(run + "--tag-pool 65537");
  expect_rejected("run --workload sg --scale 1e30 --threads 4 --paths raw");
  expect_rejected("config --nodes 512 --set hmc_capacity=1099511627776");
  expect_rejected("config --set vaults=65536 --set banks_per_vault=65536");
}

TEST_F(Cli, MalformedEnvironmentExits2) {
  // suite falls back to MAC3D_JOBS without --jobs; its cap is --jobs's.
  expect_rejected("suite --scale 0.01", "MAC3D_JOBS=257");
  expect_rejected("suite --scale 0.01", "MAC3D_JOBS=abc MAC3D_SCALE=garbage");
  expect_rejected(std::string("run ") + kSmall + " --paths raw,mac",
                  "MAC3D_JOBS=-1");
}

TEST_F(Cli, FlagsACommandIgnoresExit2) {
  expect_rejected("suite --scale 0.01 --checks");
  expect_rejected("config --report r.json --profile");
  expect_rejected("list --checks --engine serial");
  expect_rejected(std::string("run ") + kSmall + " --node-policy 1=raw");
  expect_rejected(std::string("system ") + kSmall + " --inject-livelock 9");
}

TEST_F(Cli, PostRunToolsExit2OnMalformedInput) {
  const std::string run = std::string("run ") + kSmall +
                          " --workload sg --paths raw,mac --report r.json";
  ASSERT_EQ(mac3d(run).exit_code, 0);
  EXPECT_EQ(mac3d("report-diff r.json r.json").exit_code, 0);
  expect_rejected("report-diff r.json r.json --tolerance x");
  expect_rejected("report-diff r.json");
  expect_rejected("analyze r.json");
  expect_rejected("lint --bogus");
}

TEST_F(Cli, TraceBeyondMainMemoryExits2) {
  MemoryTrace trace(1);
  trace.load(0, 0x1000, 8);
  trace.load(0, Address{1} << 62, 8);
  save_trace(trace, (dir_ / "far.trace").string());
  expect_rejected(std::string("run ") + kSmall + " --trace far.trace");
  expect_rejected(std::string("system ") + kSmall +
                  " --nodes 4 --trace far.trace");
}

TEST_F(Cli, WellFormedRunsExit0) {
  EXPECT_EQ(mac3d(std::string("run ") + kSmall +
                  " --workload sg --paths raw,mac,mshr,warp --checks")
                .exit_code,
            0);
  EXPECT_EQ(mac3d(std::string("system ") + kSmall +
                  " --workload sg --nodes 2 --checks --report s.json")
                .exit_code,
            0);
  EXPECT_TRUE(fs::exists(dir_ / "s.json"));
}

}  // namespace
}  // namespace mac3d
