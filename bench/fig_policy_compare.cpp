// Policy comparison: the four coalescer policies (docs/DESIGN.md §policy)
// over the twelve-workload suite — coalescing efficiency (Sec. 5.3.1) and
// bandwidth efficiency (Eq. 1) side by side. The MAC should dominate both
// fixed-granularity baselines; the warp-iterative policy sits between the
// MSHR baseline and the MAC on irregular workloads because its merge
// window only spans one warp of lanes at a time.
#include <array>
#include <cstdio>

#include "bench_common.hpp"

int bench_main(int argc, char** argv) {
  using namespace mac3d;
  bench::Session session(argc, argv, "fig_policy_compare");
  print_banner("Policy comparison: raw vs MSHR vs warp vs MAC");
  SuiteOptions options = default_suite_options();
  options.run_raw = true;
  options.run_mshr = true;
  options.run_warp = true;
  options.run_mac = true;
  const auto runs = run_suite(options);

  constexpr std::array<CoalescerPolicy, 4> kPolicies = {
      CoalescerPolicy::kRaw, CoalescerPolicy::kMshr, CoalescerPolicy::kWarp,
      CoalescerPolicy::kMac};

  Table coal({"workload", "raw", "MSHR", "warp", "MAC"});
  Table bw({"workload", "raw", "MSHR", "warp", "MAC"});
  std::array<double, 4> coal_sum{};
  std::array<double, 4> bw_sum{};
  for (const WorkloadRun& run : runs) {
    std::vector<std::string> coal_row = {bench::label(run.name)};
    std::vector<std::string> bw_row = {bench::label(run.name)};
    for (std::size_t p = 0; p < kPolicies.size(); ++p) {
      const DriverResult& result = run.result(kPolicies[p]);
      const double ce = result.coalescing_efficiency();
      const double be = result.bandwidth_efficiency();
      coal_sum[p] += ce;
      bw_sum[p] += be;
      coal_row.push_back(Table::pct(ce));
      bw_row.push_back(Table::pct(be));
      const std::string policy(to_string(kPolicies[p]));
      session.set_number(
          "coalescing_efficiency." + policy + "." + run.name, ce);
      session.set_number("bandwidth_efficiency." + policy + "." + run.name,
                         be);
    }
    coal.add_row(coal_row);
    bw.add_row(bw_row);
  }
  const double n = static_cast<double>(runs.size());
  for (std::size_t p = 0; p < kPolicies.size(); ++p) {
    const std::string policy(to_string(kPolicies[p]));
    session.set_number("mean_coalescing_efficiency." + policy,
                       coal_sum[p] / n);
    session.set_number("mean_bandwidth_efficiency." + policy, bw_sum[p] / n);
  }

  std::printf("\ncoalescing efficiency (1 - packets / raw requests):\n");
  coal.print();
  std::printf("\nbandwidth efficiency (Eq. 1, data / link bytes):\n");
  bw.print();
  print_reference("MAC mean coalescing efficiency", "~55% (Fig. 10)",
                  Table::pct(coal_sum[3] / n));
  print_reference("MAC mean bandwidth efficiency", "70.35% (Fig. 13)",
                  Table::pct(bw_sum[3] / n));
  return session.finish();
}
