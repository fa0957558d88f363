// Event-driven fast-forward engine speedup on the 4-node sparse system
// (docs/PARALLELISM.md §event-driven engine): run the same sg workload
// under the strict cycle engine (System::run) and the fast-forward
// engine (System::run_event), prove the two summaries bit-identical,
// and measure the wall-clock win.
//
// Baseline gating covers only the deterministic simulated-time fields
// (cycles, requests, completions, visited_cycles, node_ticks,
// skip_ratio); host wall-clock and the measured speedup are printed and
// reported but the committed baseline omits them, and the diff ignores
// fields missing from the baseline. The one host-time gate is a loose
// floor that holds on any host: the event engine must run at least
// kMinSpeedup times faster than the strict one (exit 3 otherwise).
#include <chrono>
#include <cstdio>
#include <string>

#include "arch/system.hpp"
#include "bench_common.hpp"

namespace {

constexpr double kMinSpeedup = 3.0;

struct TimedRun {
  mac3d::SystemRunSummary summary;
  double seconds = 0.0;
};

template <typename RunFn>
TimedRun timed(const mac3d::SimConfig& config, const mac3d::MemoryTrace& trace,
               RunFn&& run) {
  mac3d::System system(config);
  system.attach_trace(trace);
  const auto start = std::chrono::steady_clock::now();
  TimedRun out;
  out.summary = run(system);
  out.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  return out;
}

}  // namespace

int bench_main(int argc, char** argv) {
  using namespace mac3d;
  bench::Session session(argc, argv, "engine_fastforward");
  print_banner(
      "Engine fast-forward: strict run() vs event-driven run_event(), "
      "4-node system");

  const SuiteOptions base = default_suite_options();
  SimConfig config = base.config;
  config.nodes = 4;
  config.validate();
  const Workload* workload = find_workload("sg");
  WorkloadParams params;
  params.threads = base.threads;
  params.scale = base.scale;
  params.config = config;
  const MemoryTrace trace = workload->trace(params);

  const TimedRun strict =
      timed(config, trace, [](System& s) { return s.run(); });
  const TimedRun event =
      timed(config, trace, [](System& s) { return s.run_event(); });

  // The fast-forward engine must be bit-identical to the strict engine
  // on everything observable; visited_cycles is the only field allowed
  // (and required) to differ.
  bool equal = true;
  auto check = [&equal](const char* what, const std::string& a,
                        const std::string& b) {
    if (a == b) return;
    equal = false;
    std::fprintf(stderr, "engine_fastforward: %s diverged\n  strict: %s\n  event:  %s\n",
                 what, a.c_str(), b.c_str());
  };
  check("cycles", std::to_string(strict.summary.cycles),
        std::to_string(event.summary.cycles));
  check("requests", std::to_string(strict.summary.requests),
        std::to_string(event.summary.requests));
  check("completions", std::to_string(strict.summary.completions),
        std::to_string(event.summary.completions));
  check("completed", std::to_string(strict.summary.completed),
        std::to_string(event.summary.completed));
  check("stats", strict.summary.stats.to_json(),
        event.summary.stats.to_json());
  if (!equal) return 3;
  if (event.summary.visited_cycles >= event.summary.cycles) {
    std::fprintf(stderr,
                 "engine_fastforward: run_event visited %llu of %llu cycles "
                 "-- no fast-forwarding happened\n",
                 static_cast<unsigned long long>(event.summary.visited_cycles),
                 static_cast<unsigned long long>(event.summary.cycles));
    return 3;
  }

  const double skip_ratio =
      static_cast<double>(event.summary.cycles) /
      static_cast<double>(event.summary.visited_cycles);
  const double speedup =
      event.seconds > 0.0 ? strict.seconds / event.seconds : 0.0;

  const auto row = [](const char* name, const TimedRun& run) {
    std::printf("%-6s  %12llu %11llu %12llu %11.3f\n", name,
                static_cast<unsigned long long>(run.summary.cycles),
                static_cast<unsigned long long>(run.summary.visited_cycles),
                static_cast<unsigned long long>(run.summary.node_ticks),
                run.seconds);
  };
  std::printf("engine        cycles      visited   node ticks     wall[s]\n");
  row("strict", strict);
  row("event", event);
  std::printf("\nskip ratio %.2fx (engine ticked %.2f%% of simulated cycles)\n",
              skip_ratio,
              100.0 * static_cast<double>(event.summary.visited_cycles) /
                  static_cast<double>(event.summary.cycles));
  std::printf("nodes ticked per visited cycle %.2f of %zu\n",
              static_cast<double>(event.summary.node_ticks) /
                  static_cast<double>(event.summary.visited_cycles),
              static_cast<std::size_t>(config.nodes));
  std::printf("wall-clock speedup %.2fx (floor %.0fx)\n", speedup,
              kMinSpeedup);

  // Deterministic simulated-time fields: gated by the committed baseline.
  session.set_number("cycles", static_cast<double>(strict.summary.cycles));
  session.set_number("requests", static_cast<double>(strict.summary.requests));
  session.set_number("completions",
                     static_cast<double>(strict.summary.completions));
  session.set_number("visited_cycles",
                     static_cast<double>(event.summary.visited_cycles));
  session.set_number("node_ticks",
                     static_cast<double>(event.summary.node_ticks));
  session.set_number("skip_ratio", skip_ratio);
  // Host timing: reported for humans/artifacts, never baselined.
  session.set_number("strict_wall_seconds", strict.seconds);
  session.set_number("event_wall_seconds", event.seconds);
  session.set_number("speedup", speedup);
  const int status = session.finish();
  if (speedup < kMinSpeedup) {
    std::fprintf(stderr,
                 "engine_fastforward: run_event is only %.2fx faster than "
                 "run (floor %.0fx)\n",
                 speedup, kMinSpeedup);
    return 3;
  }
  return status;
}
