// bench_fleet: the fleet pipeline's two headline numbers.
//
//  1. Columnar vs CLF re-ingest: the same server-half-day loaded through
//     Dataset::from_columnar (binary store, no parsing/sessionization)
//     versus the streaming CLF text path. The ratio is a work-reduction
//     speedup, so it holds on any host regardless of core count; the
//     perf-smoke gate puts a --min-speedup floor under it.
//  2. Fleet fit throughput: shards fitted per second through
//     analyze_fleet at 1 and --threads workers, over --shards synthetic
//     servers (trimmed fit options, matching the fleet_determinism gate).
//
// Output is bench_compare-compatible JSON (a "benchmarks" array whose
// entries carry "speedup" fields):
//
//   bench_fleet --json-out BENCH_fleet.json
//   bench_compare --min-speedup 3 --name columnar BENCH_fleet.json
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/fleet.h"
#include "store/columnar.h"
#include "support/cli.h"
#include "support/executor.h"
#include "support/json.h"
#include "support/rng.h"
#include "synth/generator.h"
#include "synth/profile.h"
#include "weblog/clf.h"
#include "weblog/dataset.h"

namespace {

using namespace fullweb;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median-of-reps wall time for one call.
template <typename Fn>
double time_reps(std::size_t reps, Fn&& fn) {
  std::vector<double> times;
  times.reserve(reps);
  for (std::size_t i = 0; i < reps; ++i) {
    const double start = now_seconds();
    fn();
    times.push_back(now_seconds() - start);
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

std::vector<weblog::Dataset> synthetic_fleet(std::size_t shards, double hours,
                                             double scale) {
  std::vector<weblog::Dataset> fleet;
  const auto profiles = synth::ServerProfile::all_four();
  for (std::size_t i = 0; i < shards; ++i) {
    support::Rng rng(1000 + i);
    synth::GeneratorOptions opt;
    opt.duration = hours * 3600.0;
    opt.scale = scale;
    opt.start_time = 1073865600.0 + static_cast<double>(i) * opt.duration;
    auto ds = synth::generate_dataset(profiles[i % profiles.size()], opt, rng);
    if (!ds.ok()) {
      std::fprintf(stderr, "bench_fleet: shard %zu: %s\n", i,
                   ds.error().message.c_str());
      std::exit(1);
    }
    fleet.push_back(std::move(ds).value());
  }
  return fleet;
}

core::FleetOptions trimmed_options(support::Executor* ex) {
  core::FleetOptions opt;
  opt.executor = ex;
  opt.fit.run_poisson = false;
  opt.fit.run_error_analysis = false;
  opt.fit.arrivals.run_aggregation_sweep = false;
  opt.fit.arrivals.hurst.run_whittle = false;
  opt.fit.tails.run_curvature = false;
  return opt;
}

struct BenchRow {
  std::string name;
  double seconds = 0.0;
  double items_per_second = 0.0;
  double speedup = 0.0;  ///< 0 = omit the field
};

}  // namespace

int main(int argc, char** argv) {
  support::CliFlags flags;
  flags.define("scale", "0.6", "synthetic volume scale for the ingest fixture");
  flags.define("hours", "12.0", "ingest fixture duration (hours)");
  flags.define("shards", "8", "fleet size for the fit-throughput runs");
  flags.define("shard-hours", "3.0", "per-shard duration (hours)");
  flags.define("shard-scale", "0.5", "per-shard volume scale");
  flags.define("threads", "8", "parallel executor width for the fleet fit");
  flags.define("reps", "5", "repetitions per timing (median reported)");
  flags.define("json-out", "BENCH_fleet.json", "bench_compare-compatible output");
  if (!flags.parse(argc, argv)) return 2;

  const auto reps = static_cast<std::size_t>(flags.get_int("reps"));
  const std::string clf_path = "/tmp/fullweb_bench_fleet.log";
  const std::string fwc_path = "/tmp/fullweb_bench_fleet.fwc";

  // Fixture: one synthetic ClarkNet window rendered once as CLF text, then
  // stored once as columnar binary; both paths re-ingest the same traffic.
  std::size_t fixture_requests = 0;
  std::uint64_t clf_bytes = 0;
  {
    support::Rng rng(1234);
    synth::GeneratorOptions gen;
    gen.duration = flags.get_double("hours") * 3600.0;
    gen.scale = flags.get_double("scale");
    auto workload =
        synth::generate_workload(synth::ServerProfile::clarknet(), gen, rng);
    if (!workload.ok()) {
      std::fprintf(stderr, "bench_fleet: fixture: %s\n",
                   workload.error().message.c_str());
      return 1;
    }
    std::ofstream os(clf_path, std::ios::binary | std::ios::trunc);
    support::Rng rng2(1235);
    for (const auto& e : synth::to_log_entries(workload.value(), rng2)) {
      const std::string line = weblog::to_clf_line(e);
      os << line << '\n';
      clf_bytes += line.size() + 1;
    }
    os.close();
    const std::vector<std::string> paths = {clf_path};
    auto ds = weblog::Dataset::from_clf_stream("bench-fleet", paths);
    if (!ds.ok()) {
      std::fprintf(stderr, "bench_fleet: fixture ingest: %s\n",
                   ds.error().message.c_str());
      return 1;
    }
    fixture_requests = ds.value().requests().size();
    auto written = ds.value().to_columnar(fwc_path);
    if (!written.ok()) {
      std::fprintf(stderr, "bench_fleet: fixture store: %s\n",
                   written.error().message.c_str());
      return 1;
    }
    std::printf("fixture: %zu requests, CLF %llu bytes -> columnar %llu bytes "
                "(%.1fx smaller)\n",
                fixture_requests, static_cast<unsigned long long>(clf_bytes),
                static_cast<unsigned long long>(written.value()),
                static_cast<double>(clf_bytes) /
                    static_cast<double>(written.value()));
  }

  std::vector<BenchRow> rows;

  // 1) CLF text re-ingest (serial executor: isolate parse work, not pool).
  support::Executor serial(1);
  const double clf_seconds = time_reps(reps, [&] {
    weblog::StreamIngestOptions opts;
    opts.reader.executor = &serial;
    const std::vector<std::string> paths = {clf_path};
    auto ds = weblog::Dataset::from_clf_stream("bench-fleet", paths, opts);
    if (!ds.ok()) std::exit(1);
  });
  rows.push_back({"ingest/clf", clf_seconds,
                  static_cast<double>(fixture_requests) / clf_seconds, 0.0});

  // 2) Columnar re-ingest of the identical dataset.
  const double fwc_seconds = time_reps(reps, [&] {
    auto ds = weblog::Dataset::from_columnar(fwc_path);
    if (!ds.ok()) std::exit(1);
  });
  rows.push_back({"ingest/columnar_vs_clf", fwc_seconds,
                  static_cast<double>(fixture_requests) / fwc_seconds,
                  clf_seconds / fwc_seconds});

  // 3) Fleet fit throughput, serial and parallel.
  const auto shards = static_cast<std::size_t>(flags.get_int("shards"));
  const auto threads = static_cast<std::size_t>(flags.get_int("threads"));
  const auto fleet = synthetic_fleet(shards, flags.get_double("shard-hours"),
                                     flags.get_double("shard-scale"));
  double fleet_serial_seconds = 0.0;
  for (const std::size_t t : {std::size_t{1}, threads}) {
    support::Executor ex(t);
    const double seconds = time_reps(reps, [&] {
      support::Rng rng(42);
      auto report = core::analyze_fleet(fleet, rng, trimmed_options(&ex));
      if (!report.ok()) std::exit(1);
    });
    if (t == 1) fleet_serial_seconds = seconds;
    rows.push_back({"fleet_fit/threads:" + std::to_string(t), seconds,
                    static_cast<double>(shards) / seconds,
                    t == 1 ? 0.0 : fleet_serial_seconds / seconds});
  }

  for (const BenchRow& r : rows) {
    std::printf("%-28s %10.4f s  %12.0f items/s", r.name.c_str(), r.seconds,
                r.items_per_second);
    if (r.speedup > 0.0) std::printf("  speedup %.2fx", r.speedup);
    std::printf("\n");
  }

  const std::string json_path = flags.get("json-out");
  if (!json_path.empty()) {
    support::JsonWriter w;
    w.begin_object();
    w.key("context");
    w.begin_object();
    w.field("fixture_requests", fixture_requests);
    w.field("clf_bytes", static_cast<std::size_t>(clf_bytes));
    w.field("shards", shards);
    w.field("threads", threads);
    w.field("reps", reps);
    w.end_object();
    w.key("benchmarks");
    w.begin_array();
    for (const BenchRow& r : rows) {
      w.begin_object();
      w.field("name", r.name);
      w.field("real_time", r.seconds * 1e9);
      w.field("time_unit", "ns");
      w.field("items_per_second", r.items_per_second);
      if (r.speedup > 0.0) {
        w.field("speedup", r.speedup);
        w.field("speedup_source", "measured");
      }
      w.end_object();
    }
    w.end_array();
    w.end_object();
    std::ofstream json(json_path, std::ios::binary | std::ios::trunc);
    json << std::move(w).str() << '\n';
    if (!json) {
      std::fprintf(stderr, "bench_fleet: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
