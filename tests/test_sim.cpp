// Unit tests: report rendering and the experiment harness.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "sim/experiment.hpp"
#include "sim/metrics.hpp"
#include "sim/report.hpp"
#include "workloads/all.hpp"

namespace mac3d {
namespace {

// ------------------------------------------------------------------ Table
TEST(Table, RendersAlignedAscii) {
  Table table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22222"});
  const std::string text = table.to_string();
  EXPECT_NE(text.find("| alpha |"), std::string::npos);
  EXPECT_NE(text.find("22222"), std::string::npos);
  EXPECT_NE(text.find("+-"), std::string::npos);
}

TEST(Table, RejectsRaggedRows) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, CsvOutput) {
  Table table({"x", "y"});
  table.add_row({"1", "2"});
  EXPECT_EQ(table.to_csv(), "x,y\n1,2\n");
}

TEST(Table, Formatters) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::pct(0.5), "50.00%");
  EXPECT_EQ(Table::pct(0.12345, 1), "12.3%");
  EXPECT_EQ(Table::count(0), "0");
  EXPECT_EQ(Table::count(1234567), "1,234,567");
  EXPECT_EQ(Table::bytes(512), "512 B");
  EXPECT_EQ(Table::bytes(2048), "2.00 KB");
  EXPECT_EQ(Table::bytes(3ull << 30), "3.00 GB");
}

// ------------------------------------------------------------- experiment
TEST(Experiment, SuiteRunsSelectedWorkloads) {
  SuiteOptions options;
  options.scale = 0.05;
  options.threads = 2;
  options.only = {"sg", "sort"};
  const auto runs = run_suite(options);
  ASSERT_EQ(runs.size(), 2u);
  // Registry order is preserved (sg before sort).
  EXPECT_EQ(runs[0].name, "sg");
  EXPECT_EQ(runs[1].name, "sort");
  for (const WorkloadRun& run : runs) {
    EXPECT_GT(run.trace.records, 0u);
    EXPECT_GT(run.trace.instructions, run.trace.records);
    EXPECT_GT(run.raw.packets, 0u);
    EXPECT_GT(run.mac.packets, 0u);
    EXPECT_LE(run.mac.packets, run.raw.packets);
    EXPECT_GT(run.trace.requests_per_instruction, 0.0);
    EXPECT_GT(run.trace.mem_access_rate, 0.0);
    EXPECT_LE(run.trace.mem_access_rate, 1.0);
  }
}

TEST(Experiment, MshrPathOptIn) {
  SuiteOptions options;
  options.scale = 0.05;
  options.threads = 2;
  options.only = {"sg"};
  options.run_mshr = true;
  const auto runs = run_suite(options);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].mshr.path, "mshr");
  EXPECT_GT(runs[0].mshr.packets, 0u);
}

TEST(Experiment, SuiteTakesTheMshrGeometryFromTheConfig) {
  SuiteOptions options;
  options.scale = 0.05;
  options.threads = 8;
  options.only = {"sg"};
  options.run_raw = false;
  options.run_mac = false;
  options.run_mshr = true;
  options.config.mshr_entries = 8;
  options.config.mshr_block_bytes = 128;
  const auto runs = run_suite(options);
  ASSERT_EQ(runs.size(), 1u);

  WorkloadParams params;
  params.threads = options.threads;
  params.scale = options.scale;
  params.seed = options.seed;
  params.config = options.config;
  const MemoryTrace trace = sg_workload()->trace(params);
  const DriverResult direct = run_policy(CoalescerPolicy::kMshr, trace,
                                         options.config, options.threads);
  StatSet suite_stats;
  StatSet direct_stats;
  runs[0].mshr.collect(suite_stats, "mshr");
  direct.collect(direct_stats, "mshr");
  EXPECT_EQ(suite_stats.to_json(), direct_stats.to_json());
  EXPECT_EQ(runs[0].mshr.packets_by_size, direct.packets_by_size);
  ASSERT_EQ(runs[0].mshr.packets_by_size.size(), 1u);
  EXPECT_EQ(runs[0].mshr.packets_by_size.begin()->first, 128u);
}

TEST(Experiment, EnvScaleParsesDefaultsAndRejects) {
  ::unsetenv("MAC3D_SCALE");
  EXPECT_DOUBLE_EQ(env_scale(), 1.0);
  ::setenv("MAC3D_SCALE", "", 1);
  EXPECT_DOUBLE_EQ(env_scale(), 1.0);
  ::setenv("MAC3D_SCALE", "0.25", 1);
  EXPECT_DOUBLE_EQ(env_scale(), 0.25);
  ::setenv("MAC3D_SCALE", "1e6", 1);
  EXPECT_DOUBLE_EQ(env_scale(), 1e6);
  // Malformed or out-of-range text is an error naming the variable, not
  // the default; 1000000.0000000001 is the first double past the cap.
  for (const char* bad : {"garbage", "0", "-1", "nan", "1000000.0000000001"}) {
    ::setenv("MAC3D_SCALE", bad, 1);
    try {
      (void)env_scale();
      ADD_FAILURE() << bad;
    } catch (const ConfigError& error) {
      EXPECT_NE(std::string(error.what()).find("MAC3D_SCALE"),
                std::string::npos);
    }
  }
  ::unsetenv("MAC3D_SCALE");
}

TEST(Experiment, EnvThreadsAndJobsParseDefaultsAndReject) {
  ::unsetenv("MAC3D_THREADS");
  EXPECT_EQ(env_threads(8), 8u);
  ::setenv("MAC3D_THREADS", "4", 1);
  EXPECT_EQ(env_threads(8), 4u);
  ::setenv("MAC3D_THREADS", "65536", 1);
  EXPECT_EQ(env_threads(8), 65536u);
  for (const char* bad : {"-1", "0", "4x", "65537"}) {
    ::setenv("MAC3D_THREADS", bad, 1);
    EXPECT_THROW((void)env_threads(8), ConfigError) << bad;
  }
  ::unsetenv("MAC3D_THREADS");

  ::unsetenv("MAC3D_JOBS");
  EXPECT_EQ(env_jobs(1), 1u);
  ::setenv("MAC3D_JOBS", "0", 1);  // 0 = the default, as with --jobs
  EXPECT_EQ(env_jobs(1), 1u);
  ::setenv("MAC3D_JOBS", "256", 1);
  EXPECT_EQ(env_jobs(1), 256u);
  for (const char* bad : {"abc", "-2", "257"}) {
    ::setenv("MAC3D_JOBS", bad, 1);
    EXPECT_THROW((void)env_jobs(1), ConfigError) << bad;
  }
  ::unsetenv("MAC3D_JOBS");
}

TEST(Experiment, DefaultOptionsAreValid) {
  ::unsetenv("MAC3D_CONFIG");
  const SuiteOptions options = default_suite_options();
  EXPECT_NO_THROW(options.config.validate());
  EXPECT_GT(options.threads, 0u);
  EXPECT_GT(options.scale, 0.0);
}

TEST(Experiment, ConfigEnvOverrideApplies) {
  ::setenv("MAC3D_CONFIG", "arq_entries=64", 1);
  const SuiteOptions options = default_suite_options();
  EXPECT_EQ(options.config.arq_entries, 64u);
  ::unsetenv("MAC3D_CONFIG");
}

TEST(Experiment, ResultCollectExportsAllMetrics) {
  SuiteOptions options;
  options.scale = 0.05;
  options.threads = 2;
  options.only = {"mg"};
  const auto runs = run_suite(options);
  StatSet stats;
  runs[0].mac.collect(stats, "mac");
  EXPECT_TRUE(stats.contains("mac.packets"));
  EXPECT_TRUE(stats.contains("mac.coalescing_efficiency"));
  EXPECT_TRUE(stats.contains("mac.bandwidth_efficiency"));
  EXPECT_TRUE(stats.contains("mac.makespan_cycles"));
  EXPECT_GT(stats.get("mac.packets"), 0.0);
}

}  // namespace
}  // namespace mac3d
