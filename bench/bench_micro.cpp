// Microbenchmarks (google-benchmark) — throughput of the computational
// kernels: FFT, ACF, periodogram, Hurst estimators, FGN synthesis, KPSS,
// bootstrap tail CIs, the curvature test, the CLF parser, and the
// sessionizer.
//
// Unless --benchmark_out is given explicitly, results are also written as
// google-benchmark JSON to BENCH_micro.json in the working directory; diff
// two runs with tools/bench_compare (see EXPERIMENTS.md "Perf baseline").
#include <benchmark/benchmark.h>

#include <complex>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "lrd/abry_veitch.h"
#include "lrd/estimator_suite.h"
#include "lrd/rs.h"
#include "lrd/variance_time.h"
#include "lrd/whittle.h"
#include "stats/acf.h"
#include "stats/distributions.h"
#include "stats/fft.h"
#include "stats/kpss.h"
#include "stats/periodogram.h"
#include "support/executor.h"
#include "support/rng.h"
#include "tail/bootstrap.h"
#include "tail/curvature.h"
#include "timeseries/fgn.h"
#include "weblog/clf.h"
#include "weblog/sessionizer.h"

namespace {

using namespace fullweb;

std::vector<double> noise(std::size_t n, std::uint64_t seed = 1) {
  support::Rng rng(seed);
  std::vector<double> xs(n);
  for (auto& x : xs) x = rng.normal();
  return xs;
}

/// Real-input transform, power-of-two length: packed half-length path.
void BM_FftPow2(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto xs = noise(n);
  std::vector<std::complex<double>> spec;
  for (auto _ : state) {
    stats::fft_real(xs, spec);
    benchmark::DoNotOptimize(spec.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_FftPow2)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

/// Full complex transform at the same lengths, for the real-path ratio.
void BM_FftComplexPow2(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto xs = noise(n);
  std::vector<std::complex<double>> src(n);
  for (std::size_t i = 0; i < n; ++i) src[i] = {xs[i], 0.0};
  std::vector<std::complex<double>> buf;
  for (auto _ : state) {
    buf = src;
    stats::fft(buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_FftComplexPow2)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

/// Genuine Bluestein lengths (prime / highly composite non-pow-2), through
/// the complex fft() entry point so no pow-2 fast path can hide the chirp
/// machinery. 86,400 = one day of per-second samples.
void BM_FftBluestein(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto xs = noise(n);
  std::vector<std::complex<double>> src(n);
  for (std::size_t i = 0; i < n; ++i) src[i] = {xs[i], 0.0};
  std::vector<std::complex<double>> buf;
  for (auto _ : state) {
    buf = src;
    stats::fft(buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_FftBluestein)->Arg(10007)->Arg(86400);

void BM_Acf(benchmark::State& state) {
  const auto xs = noise(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto r = stats::acf(xs, 100);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Acf)->Arg(1 << 14)->Arg(1 << 18);

void BM_Periodogram(benchmark::State& state) {
  const auto xs = noise(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto pg = stats::periodogram(xs);
    benchmark::DoNotOptimize(pg);
  }
}
BENCHMARK(BM_Periodogram)->Arg(1 << 16);

void BM_Kpss(benchmark::State& state) {
  const auto xs = noise(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto r = stats::kpss_test(xs);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Kpss)->Arg(1 << 14)->Arg(1 << 18);

void BM_GenerateFgn(benchmark::State& state) {
  support::Rng rng(3);
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto xs = timeseries::generate_fgn(n, 0.8, 1.0, rng);
    benchmark::DoNotOptimize(xs);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_GenerateFgn)->Arg(1 << 14)->Arg(1 << 18);

/// Monte-Carlo shape: 100 draws at one (n, H) configuration per iteration,
/// the access pattern of bench_validation_estimators and the curvature
/// tests. Exercises the circulant-spectrum cache across replicates.
void BM_GenerateFgnSweep100(benchmark::State& state) {
  support::Rng rng(3);
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    for (int rep = 0; rep < 100; ++rep) {
      auto xs = timeseries::generate_fgn(n, 0.8, 1.0, rng);
      benchmark::DoNotOptimize(xs);
    }
  }
  state.SetItemsProcessed(state.iterations() * 100 * static_cast<int64_t>(n));
}
BENCHMARK(BM_GenerateFgnSweep100)->Arg(1 << 14);

void BM_BootstrapHillCi(benchmark::State& state) {
  support::Rng sample_rng(8);
  const stats::Pareto dist(1.4, 1.0);
  std::vector<double> xs(static_cast<std::size_t>(state.range(0)));
  for (auto& x : xs) x = dist.sample(sample_rng);
  tail::BootstrapOptions opts;
  opts.replicates = 60;
  for (auto _ : state) {
    support::Rng rng(9);
    auto ci = tail::bootstrap_hill_ci(xs, rng, opts);
    benchmark::DoNotOptimize(ci);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(opts.replicates));
}
BENCHMARK(BM_BootstrapHillCi)->Arg(5000);

void BM_BootstrapLlcdCi(benchmark::State& state) {
  support::Rng sample_rng(10);
  const stats::Pareto dist(1.4, 1.0);
  std::vector<double> xs(static_cast<std::size_t>(state.range(0)));
  for (auto& x : xs) x = dist.sample(sample_rng);
  tail::BootstrapOptions opts;
  opts.replicates = 60;
  for (auto _ : state) {
    support::Rng rng(11);
    auto ci = tail::bootstrap_llcd_ci(xs, rng, opts);
    benchmark::DoNotOptimize(ci);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(opts.replicates));
}
BENCHMARK(BM_BootstrapLlcdCi)->Arg(5000);

/// Downey curvature test with the default 199 replicates on a serial
/// executor, at the NASA and WVU bench-scale session counts. Items are
/// sample points x replicates, so 1e9 / items_per_second is ns per point.
void curvature_test_bench(benchmark::State& state, tail::TailModel model) {
  support::Rng sample_rng(12);
  const stats::Lognormal dist(3.0, 1.5);  // session-length-like seconds
  std::vector<double> xs(static_cast<std::size_t>(state.range(0)));
  for (auto& x : xs) x = dist.sample(sample_rng);
  support::Executor serial(1);
  tail::CurvatureOptions opts;
  opts.model = model;
  opts.executor = &serial;
  for (auto _ : state) {
    support::Rng rng(13);
    auto r = tail::curvature_test(xs, rng, opts);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(xs.size() * opts.replicates));
}
void BM_CurvatureTestPareto(benchmark::State& state) {
  curvature_test_bench(state, tail::TailModel::kPareto);
}
void BM_CurvatureTestLognormal(benchmark::State& state) {
  curvature_test_bench(state, tail::TailModel::kLognormal);
}
BENCHMARK(BM_CurvatureTestPareto)
    ->Arg(3800)
    ->Arg(19000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CurvatureTestLognormal)
    ->Arg(3800)
    ->Arg(19000)
    ->Unit(benchmark::kMillisecond);

void BM_WhittleHurst(benchmark::State& state) {
  support::Rng rng(4);
  auto fgn = timeseries::generate_fgn(
      static_cast<std::size_t>(state.range(0)), 0.8, 1.0, rng);
  for (auto _ : state) {
    auto r = lrd::whittle_hurst(fgn.value());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_WhittleHurst)->Arg(1 << 14)->Arg(1 << 18);

void BM_AbryVeitchHurst(benchmark::State& state) {
  support::Rng rng(5);
  auto fgn = timeseries::generate_fgn(
      static_cast<std::size_t>(state.range(0)), 0.8, 1.0, rng);
  for (auto _ : state) {
    auto r = lrd::abry_veitch_hurst(fgn.value());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_AbryVeitchHurst)->Arg(1 << 14)->Arg(1 << 18);

void BM_RsHurst(benchmark::State& state) {
  support::Rng rng(13);
  auto fgn = timeseries::generate_fgn(
      static_cast<std::size_t>(state.range(0)), 0.8, 1.0, rng);
  for (auto _ : state) {
    auto r = lrd::rs_hurst(fgn.value());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_RsHurst)->Arg(1 << 18);

/// WVU-scale reference series: one week of per-second samples, H = 0.8.
/// Shared by the suite/sweep benches below (the acceptance series for the
/// compute-sharing layer; see EXPERIMENTS.md "Perf baseline").
const std::vector<double>& wvu_series() {
  static const std::vector<double> xs = [] {
    support::Rng rng(12);
    auto r = timeseries::generate_fgn(604800, 0.8, 1.0, rng);
    return r.ok() ? r.value() : std::vector<double>{};
  }();
  return xs;
}

/// Serial executor so the suite/sweep benches measure single-thread cost
/// regardless of the host's core count.
support::Executor& serial_executor() {
  static support::Executor ex(1);
  return ex;
}

/// Full five-estimator battery on the WVU-scale series at 1 thread.
void BM_EstimatorSuite(benchmark::State& state) {
  const auto& xs = wvu_series();
  lrd::HurstSuiteOptions opts;
  opts.executor = &serial_executor();
  for (auto _ : state) {
    auto r = lrd::hurst_suite(xs, opts);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_EstimatorSuite);

/// Figure 7/8 m-aggregation validation sweep at 1 thread. Arg 0 = Whittle
/// (Fig. 7), Arg 1 = Abry-Veitch (Fig. 8); the paper's level grid.
void BM_AggregatedHurstSweep(benchmark::State& state) {
  const auto& xs = wvu_series();
  static constexpr std::size_t kLevels[] = {1, 2, 5, 10, 20, 50, 100, 200, 500};
  const auto method = state.range(0) == 0 ? lrd::HurstMethod::kWhittle
                                          : lrd::HurstMethod::kAbryVeitch;
  lrd::HurstSuiteOptions opts;
  opts.executor = &serial_executor();
  for (auto _ : state) {
    auto r = lrd::aggregated_hurst_sweep(xs, method, kLevels, opts);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_AggregatedHurstSweep)->Arg(0)->Arg(1);

void BM_VarianceTimeHurst(benchmark::State& state) {
  support::Rng rng(6);
  auto fgn = timeseries::generate_fgn(
      static_cast<std::size_t>(state.range(0)), 0.8, 1.0, rng);
  for (auto _ : state) {
    auto r = lrd::variance_time_hurst(fgn.value());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_VarianceTimeHurst)->Arg(1 << 18);

void BM_ParseClfLine(benchmark::State& state) {
  const std::string line =
      "10.12.34.56 - - [12/Jan/2004:13:55:36 +0000] "
      "\"GET /pages/p123.html HTTP/1.0\" 200 23261";
  for (auto _ : state) {
    auto e = weblog::parse_clf_line(line);
    benchmark::DoNotOptimize(e);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(line.size()));
}
BENCHMARK(BM_ParseClfLine);

void BM_Sessionize(benchmark::State& state) {
  support::Rng rng(7);
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<weblog::Request> requests(n);
  for (auto& r : requests) {
    r.time = rng.uniform(0.0, 7 * 86400.0);
    r.client = static_cast<std::uint32_t>(rng.below(n / 20 + 1));
    r.bytes = rng.below(100000);
  }
  for (auto _ : state) {
    auto sessions = weblog::sessionize(requests);
    benchmark::DoNotOptimize(sessions);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_Sessionize)->Arg(1 << 16)->Arg(1 << 20);

}  // namespace

// BENCHMARK_MAIN(), plus a default JSON sink: unless the caller passes its
// own --benchmark_out, results are mirrored to BENCH_micro.json in the
// working directory so the machine-readable perf baseline is regenerated by
// simply running the binary (tools/bench_compare diffs two such files).
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_micro.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int argc_eff = static_cast<int>(args.size());
  benchmark::Initialize(&argc_eff, args.data());
  if (benchmark::ReportUnrecognizedArguments(argc_eff, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
