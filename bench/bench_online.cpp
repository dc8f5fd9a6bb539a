// bench_online: the online layer's headline number.
//
// The point of src/online is that a fresh estimate over an unbounded stream
// costs O(window + sketch), not O(stream). This bench measures that claim
// directly: the same synthetic ClarkNet stream is replayed once through an
// OnlineAnalyzer (per-event sketch/ring updates plus a snapshot at each of
// --checkpoints evenly spaced points), and once through the batch
// alternative — at each checkpoint, rebuild the counts-per-bin series over
// the whole prefix and re-run KPSS, variance-time Hurst, FRS, Hill, and the
// LLCD fit from scratch, the way the offline pipeline would if asked for a
// fresh answer mid-stream.
//
// The gated ratio "stream/online_vs_batch" = batch-refit / online is a
// work-reduction speedup over identical traffic and checkpoints, so it
// holds on any host; it grows with stream length because the batch side is
// O(checkpoints * stream) while the online side is bounded by the window.
//
// Output is bench_compare-compatible JSON:
//
//   bench_online --json-out BENCH_online.json
//   bench_compare --min-speedup 2 --name online_vs_batch BENCH_online.json
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "lrd/variance_time.h"
#include "online/analyzer.h"
#include "online/frs_memory.h"
#include "stats/kpss.h"
#include "support/cli.h"
#include "support/json.h"
#include "support/rng.h"
#include "synth/generator.h"
#include "synth/profile.h"
#include "tail/hill.h"
#include "tail/llcd.h"
#include "timeseries/series.h"

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

struct BenchRow {
  std::string name;
  double seconds = 0.0;
  double items_per_second = 0.0;
  double speedup = 0.0;  ///< 0 = omit the field
};

/// Consume a value so the optimizer cannot drop the estimator calls.
volatile double g_sink = 0.0;

template <typename T>
void sink(const support::Result<T>& r, double v) {
  g_sink = r.ok() ? v : -v;
}

}  // namespace

int main(int argc, char** argv) {
  support::CliFlags flags;
  flags.define("hours", "24.0", "stream duration (hours)");
  flags.define("scale", "0.5", "synthetic volume scale");
  flags.define("checkpoints", "16", "estimate points along the stream");
  flags.define("reps", "3", "repetitions per timing (median reported)");
  flags.define("json-out", "BENCH_online.json",
               "bench_compare-compatible output");
  if (!flags.parse(argc, argv)) return 2;

  const auto reps = static_cast<std::size_t>(flags.get_int("reps"));
  const auto checkpoints =
      std::max<std::size_t>(1, static_cast<std::size_t>(flags.get_int("checkpoints")));

  // Fixture: one synthetic ClarkNet stream, replayed identically by every
  // timed path below. Event order defines sketch item identity, so the
  // online path sees exactly the stream the batch path re-reads.
  std::vector<double> times, bytes;
  {
    support::Rng rng(2026);
    synth::GeneratorOptions gen;
    gen.duration = flags.get_double("hours") * 3600.0;
    gen.scale = flags.get_double("scale");
    auto ds = synth::generate_dataset(synth::ServerProfile::clarknet(), gen, rng);
    if (!ds.ok()) {
      std::fprintf(stderr, "bench_online: fixture: %s\n",
                   ds.error().message.c_str());
      return 1;
    }
    const auto& requests = ds.value().requests();
    times.reserve(requests.size());
    bytes.reserve(requests.size());
    for (const auto& r : requests) {
      times.push_back(r.time);
      bytes.push_back(static_cast<double>(r.bytes));
    }
  }
  const std::size_t n = times.size();
  if (n < checkpoints) {
    std::fprintf(stderr, "bench_online: fixture too small (%zu events)\n", n);
    return 1;
  }
  const online::OnlineOptions opts;  // production defaults
  const std::size_t window_bins = opts.block_bins * opts.window_blocks;
  std::printf("fixture: %zu events over %.1f h, %zu checkpoints, "
              "window %zu bins\n",
              n, flags.get_double("hours"), checkpoints, window_bins);

  // Checkpoint j fires after event index marks[j] (evenly spaced; the last
  // one lands on the final event).
  std::vector<std::size_t> marks;
  for (std::size_t j = 1; j <= checkpoints; ++j)
    marks.push_back(j * n / checkpoints - 1);

  std::vector<BenchRow> rows;

  // 1) Pure ingest: per-event ring + sketch update cost, no snapshots.
  const double update_seconds = time_reps(reps, [&] {
    online::OnlineAnalyzer analyzer(opts, support::Rng(7));
    for (std::size_t i = 0; i < n; ++i) analyzer.add(times[i], bytes[i]);
    g_sink = static_cast<double>(analyzer.records());
  });
  rows.push_back({"stream/online_update", update_seconds,
                  static_cast<double>(n) / update_seconds, 0.0});

  // 2) Online: ingest plus a full snapshot (KPSS + VT Hurst + FRS over the
  // window, Hill + LLCD + quantiles from the sketch) at each checkpoint.
  const double online_seconds = time_reps(reps, [&] {
    online::OnlineAnalyzer analyzer(opts, support::Rng(7));
    std::size_t next = 0;
    for (std::size_t i = 0; i < n; ++i) {
      analyzer.add(times[i], bytes[i]);
      if (next < marks.size() && i == marks[next]) {
        const auto snap = analyzer.snapshot();
        g_sink = snap.p99;
        ++next;
      }
    }
  });
  rows.push_back({"stream/online_snapshots", online_seconds,
                  static_cast<double>(n) / online_seconds, 0.0});

  // 3) Batch: at each checkpoint, refit the whole prefix from scratch —
  // rebuild the 1 s counts series, then KPSS, variance-time Hurst, and FRS
  // over it, and Hill + LLCD over all transfer sizes so far. This is what
  // "just rerun the offline pipeline" costs per fresh answer.
  const double batch_seconds = time_reps(reps, [&] {
    for (const std::size_t mark : marks) {
      const std::span<const double> prefix_times(times.data(), mark + 1);
      const double t0 = std::floor(times.front());
      const double t1 = std::floor(times[mark]) + 1.0;
      const auto counts =
          timeseries::counts_per_bin(prefix_times, t0, t1, opts.bin_seconds);
      sink(stats::kpss_test(counts, opts.kpss_null), 1.0);
      sink(lrd::variance_time_hurst(counts), 2.0);
      sink(online::frs_memory_from_counts(
               counts, online::FrsOptions{opts.frs_scales}),
           3.0);
      std::vector<double> sizes(bytes.begin(),
                                bytes.begin() + static_cast<std::ptrdiff_t>(mark + 1));
      sink(tail::hill_estimate(sizes, opts.hill), 4.0);
      sink(tail::llcd_fit(sizes), 5.0);
    }
  });
  rows.push_back({"stream/batch_refit", batch_seconds,
                  static_cast<double>(n) / batch_seconds, 0.0});

  // 4) The headline ratio: identical checkpoints, identical traffic.
  rows.push_back({"stream/online_vs_batch", online_seconds,
                  static_cast<double>(n) / online_seconds,
                  batch_seconds / online_seconds});

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
    w.field("fixture_events", n);
    w.field("hours", flags.get_double("hours"));
    w.field("scale", flags.get_double("scale"));
    w.field("checkpoints", checkpoints);
    w.field("window_bins", window_bins);
    w.field("reps", reps);
    // bench_compare --check-release reads this stamp; committed baselines
    // must come from an optimized binary (same contract as bench_fullscale).
#ifdef NDEBUG
    w.field("binary_build_type", "release");
#else
    w.field("binary_build_type", "debug");
#endif
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
      std::fprintf(stderr, "bench_online: cannot write %s\n",
                   json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
