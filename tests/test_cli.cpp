// CLI contract: the built `mac3d` binary stops malformed input at the
// boundary with one stderr line and exit 2, and still runs well-formed
// command lines; so do the examples that read numbers from argv. Caps are
// probed through `mac3d config`, which validates without building a
// System, or through the argv walk, and only with the first value past
// each cap, so a missed check can never start thousands of threads or
// nodes. Every simulating run stays at --scale 0.01 --threads 4.
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

  /// Runs `<binary> <args>` in the scratch directory with the `env`
  /// assignments ("NAME=value ...") in its environment; stdout is
  /// discarded.
  Outcome exec(const std::string& binary, const std::string& args,
               const std::string& env = "") const {
    const fs::path err = dir_ / "stderr.txt";
    const std::string command = "cd '" + dir_.string() + "' && " + env +
                                " '" + binary + "' " + args +
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
  Outcome mac3d(const std::string& args, const std::string& env = "") const {
    return exec(MAC3D_CLI, args, env);
  }

  /// Malformed input: exactly one stderr line and exit 2.
  Outcome expect_rejected_by(const std::string& binary,
                             const std::string& args,
                             const std::string& env = "") const {
    Outcome outcome = exec(binary, args, env);
    EXPECT_EQ(outcome.exit_code, 2) << binary << " " << args << "\n"
                                    << outcome.err;
    EXPECT_EQ(std::count(outcome.err.begin(), outcome.err.end(), '\n'), 1)
        << binary << " " << args << "\n" << outcome.err;
    return outcome;
  }
  Outcome expect_rejected(const std::string& args,
                          const std::string& env = "") const {
    return expect_rejected_by(MAC3D_CLI, args, env);
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
  // The in-cycle parallel engines are retired; --jobs is the parallelism.
  for (const std::string command : {"run ", "suite ", "system "}) {
    const std::string small = command + kSmall + " ";
    expect_rejected(small + "--engine parallel");
    expect_rejected(small + "--engine event-parallel");
    expect_rejected(small + "--engine-threads 2");
  }
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
  // A bad MAC3D_CONFIG entry names the variable, as the others do.
  for (const std::string env :
       {"MAC3D_CONFIG=vaults=3", "MAC3D_CONFIG=nosuch=1"}) {
    EXPECT_NE(expect_rejected("config", env).err.find("MAC3D_CONFIG"),
              std::string::npos)
        << env;
  }
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

#ifdef MAC3D_EXAMPLES_DIR
TEST_F(Cli, ExamplesRejectMalformedArgumentsWithExit2) {
  const std::string dir = MAC3D_EXAMPLES_DIR "/";
  const std::string numa = dir + "numa_multinode";
  const std::string graph = dir + "graph_analytics";
  const std::string spmv = dir + "spmv_hpcg";
  expect_rejected_by(numa, "0");
  expect_rejected_by(numa, "16385");  // 16385 x 4 cores > 65536 threads
  expect_rejected_by(numa, "2 1000001");
  expect_rejected_by(numa, "", "MAC3D_CONFIG=vaults=3");
  expect_rejected_by(graph, "0");
  expect_rejected_by(graph, "1000001");
  expect_rejected_by(graph, "0.01 65537");
  expect_rejected_by(graph, "0.01 4", "MAC3D_CONFIG=vaults=3");
  expect_rejected_by(spmv, "abc");
  expect_rejected_by(spmv, "--csv 1000001");
  EXPECT_EQ(exec(spmv, "--csv 0.01").exit_code, 0);
}

// numa_multinode's table reads each node's path through the stats every
// policy emits, so it runs under any policy, not only the MAC.
TEST_F(Cli, NumaExampleRunsUnderEveryPolicy) {
  const std::string numa = MAC3D_EXAMPLES_DIR "/numa_multinode";
  for (const std::string policy : {"raw", "mshr", "warp", "mac"}) {
    const Outcome outcome =
        exec(numa, "2 200", "MAC3D_CONFIG=policy=" + policy);
    EXPECT_EQ(outcome.exit_code, 0) << policy << "\n" << outcome.err;
  }
}
#endif

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
