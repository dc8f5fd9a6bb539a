// Ingest microbenchmarks (google-benchmark) — throughput of the streaming
// ingestion layer: the full CLF ingest (chunked parallel read + parse +
// intern + sessionize) at 1/4/8 threads, and the incremental sessionizer
// on its own.
//
// Unless --benchmark_out is given explicitly, results are also written as
// google-benchmark JSON to BENCH_ingest.json in the working directory; diff
// two runs with tools/bench_compare (see EXPERIMENTS.md "Perf baseline").
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "support/executor.h"
#include "support/rng.h"
#include "synth/generator.h"
#include "weblog/clf.h"
#include "weblog/dataset.h"
#include "weblog/streaming_sessionizer.h"

namespace {

using namespace fullweb;

/// One synthetic half-day of ClarkNet traffic written once as a CLF file;
/// every benchmark ingests the same bytes.
class LogFixture {
 public:
  static LogFixture& get() {
    static LogFixture fixture;
    return fixture;
  }

  const std::string& path() const { return path_; }
  std::int64_t bytes() const { return bytes_; }
  std::size_t lines() const { return lines_; }

 private:
  LogFixture() {
    path_ = "/tmp/fullweb_bench_ingest.log";
    support::Rng rng(1234);
    synth::GeneratorOptions gen;
    gen.duration = 12 * 3600.0;
    gen.scale = 0.6;
    auto workload =
        synth::generate_workload(synth::ServerProfile::clarknet(), gen, rng);
    if (!workload.ok()) {
      std::fprintf(stderr, "bench_ingest: fixture generation failed: %s\n",
                   workload.error().message.c_str());
      std::exit(1);
    }
    std::ofstream os(path_, std::ios::binary);
    support::Rng rng2(1235);
    for (const auto& e : synth::to_log_entries(workload.value(), rng2)) {
      const std::string line = weblog::to_clf_line(e);
      os << line << '\n';
      bytes_ += static_cast<std::int64_t>(line.size()) + 1;
      ++lines_;
    }
  }

  std::string path_;
  std::int64_t bytes_ = 0;
  std::size_t lines_ = 0;
};

/// Full streaming ingest (read + parse + intern + sessionize) at a given
/// thread count.
void BM_IngestStream(benchmark::State& state) {
  auto& fx = LogFixture::get();
  support::Executor ex(static_cast<std::size_t>(state.range(0)));
  const std::vector<std::string> paths = {fx.path()};
  for (auto _ : state) {
    weblog::StreamIngestOptions opts;
    opts.reader.executor = &ex;
    auto ds = weblog::Dataset::from_clf_stream("bench", paths, opts);
    if (!ds.ok()) state.SkipWithError("ingest failed");
    benchmark::DoNotOptimize(ds);
  }
  state.SetBytesProcessed(state.iterations() * fx.bytes());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.lines()));
}
BENCHMARK(BM_IngestStream)->Arg(1)->Arg(4)->Arg(8)->UseRealTime();

std::vector<weblog::Request> sorted_requests(std::size_t n) {
  support::Rng rng(7);
  std::vector<weblog::Request> requests(n);
  for (auto& r : requests) {
    r.time = rng.uniform(0.0, 7 * 86400.0);
    r.client = static_cast<std::uint32_t>(rng.below(n / 20 + 1));
    r.bytes = rng.below(100000);
  }
  std::sort(requests.begin(), requests.end(),
            [](const weblog::Request& a, const weblog::Request& b) {
              return a.time < b.time;
            });
  return requests;
}

/// Incremental sessionization of a time-sorted stream (O(open) memory).
void BM_SessionizeStreaming(benchmark::State& state) {
  const auto requests = sorted_requests(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    weblog::StreamingSessionizer ss;
    for (const auto& r : requests) ss.add(r);
    auto sessions = ss.finish();
    benchmark::DoNotOptimize(sessions);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SessionizeStreaming)->Arg(1 << 16)->Arg(1 << 20);

}  // namespace

// BENCHMARK_MAIN() plus a default JSON sink (same contract as bench_micro):
// running the binary regenerates the machine-readable baseline
// BENCH_ingest.json unless --benchmark_out overrides it.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_ingest.json";
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
  // library_build_type in the JSON describes the system libbenchmark (which
  // reports "debug" regardless of our flags); stamp how *this binary* was
  // compiled so bench_compare --check-release can audit the baseline.
#ifdef NDEBUG
  benchmark::AddCustomContext("binary_build_type", "release");
#else
  benchmark::AddCustomContext("binary_build_type", "debug");
#endif
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
