// Capacity planning under LRD traffic vs the Poisson assumption.
//
// The paper's §4.2 conclusion: queueing-network performance models that
// assume Poisson request arrivals ([23], [25], [30], [8]) "are based on
// incorrect assumptions and most likely provide misleading results". This
// example quantifies the error. We feed a single-server FIFO queue with
//   (a) a synthetic LRD request trace (our CSEE profile), and
//   (b) a Poisson trace with the *same* mean arrival rate,
// at identical utilizations, and compare waiting-time percentiles. The LRD
// trace's bursts produce dramatically heavier queueing tails — the Poisson
// model badly underestimates the capacity headroom a real server needs.
//
//   ./capacity_planning --utilization 0.7 --seed 11
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <vector>

#include "queueing/fifo_queue.h"
#include "stats/descriptive.h"
#include "support/cli.h"
#include "support/executor.h"
#include "support/strings.h"
#include "support/table.h"
#include "synth/generator.h"

namespace {

using namespace fullweb;

void report(const char* label, const queueing::QueueStats& stats,
            support::Table& table) {
  table.add_row({label,
                 support::format_sig(stats.mean_wait, 4),
                 support::format_sig(stats.p50_wait, 4),
                 support::format_sig(stats.p95_wait, 4),
                 support::format_sig(stats.p99_wait, 4),
                 support::format_sig(stats.max_wait, 4)});
}

}  // namespace

int main(int argc, char** argv) {
  support::CliFlags flags;
  flags.define("utilization", "0.7", "target server utilization (0, 1)");
  flags.define("seed", "11", "random seed");
  flags.define("hours", "24.0", "hours of traffic to simulate");
  flags.define("threads", "0",
               "analysis threads (0 = hardware concurrency, 1 = serial)");
  if (!flags.parse(argc, argv)) return 2;
  const long long threads = flags.get_int("threads");
  if (threads < 0) {
    std::fprintf(stderr, "--threads must be >= 0\n");
    return 2;
  }
  support::Executor::set_global_threads(static_cast<std::size_t>(threads));
  const double rho = flags.get_double("utilization");
  if (!(rho > 0.0 && rho < 1.0)) {
    std::fprintf(stderr, "utilization must be in (0, 1)\n");
    return 2;
  }

  support::Rng rng(static_cast<std::uint64_t>(flags.get_int("seed")));
  synth::GeneratorOptions gen;
  gen.duration = flags.get_double("hours") * 3600.0;
  gen.quantize_to_seconds = false;  // queueing needs sub-second timestamps
  auto workload = synth::generate_workload(synth::ServerProfile::csee(), gen, rng);
  if (!workload) {
    std::fprintf(stderr, "generation failed: %s\n",
                 workload.error().message.c_str());
    return 1;
  }

  std::vector<double> lrd_arrivals;
  lrd_arrivals.reserve(workload.value().requests.size());
  for (const auto& r : workload.value().requests) lrd_arrivals.push_back(r.time);
  const double mean_rate =
      static_cast<double>(lrd_arrivals.size()) / gen.duration;

  // Poisson comparator with identical mean rate over the same horizon.
  std::vector<double> poisson_arrivals;
  double t = workload.value().t0;
  while (true) {
    t += -std::log(rng.uniform_pos()) / mean_rate;
    if (t >= workload.value().t1) break;
    poisson_arrivals.push_back(t);
  }

  const double service_time = rho / mean_rate;
  std::printf("requests: %zu  mean rate: %.3f/s  service time: %.4f s  "
              "target utilization: %.2f\n\n",
              lrd_arrivals.size(), mean_rate, service_time, rho);

  support::Table table({"arrival process", "mean wait (s)", "p50", "p95",
                        "p99", "max"});
  const auto lrd_stats =
      queueing::simulate_fifo_deterministic(lrd_arrivals, service_time);
  const auto poisson_stats =
      queueing::simulate_fifo_deterministic(poisson_arrivals, service_time);
  if (!lrd_stats || !poisson_stats) {
    std::fprintf(stderr, "queue simulation failed\n");
    return 1;
  }
  report("synthetic Web trace (LRD)", lrd_stats.value(), table);
  report("Poisson (same mean rate)", poisson_stats.value(), table);
  table.print(std::cout);

  const double ratio =
      lrd_stats.value().p99_wait / std::max(1e-9, poisson_stats.value().p99_wait);
  std::printf(
      "\np99 waiting time under real(istic) traffic is %.1fx the Poisson\n"
      "prediction at the same utilization — the paper's warning about\n"
      "Poisson-based Web performance models, made concrete.\n",
      ratio);
  return 0;
}
