#include "bench_common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "support/executor.h"
#include "support/strings.h"

namespace fullweb::bench {

bool parse_bench_flags(int argc, const char* const* argv, BenchContext* ctx,
                       support::CliFlags* extra) {
  support::CliFlags local;
  support::CliFlags& flags = extra != nullptr ? *extra : local;
  flags.define("scale", "1.0", "multiplier on each server's bench scale");
  flags.define("days", "7.0", "days of synthetic traffic");
  flags.define("seed", std::to_string(kDefaultSeed), "random seed");
  flags.define("threads", "0",
               "analysis threads (0 = hardware concurrency, 1 = serial)");
  flags.define("csv-dir", "", "existing directory for figure-data CSV dumps");
  if (!flags.parse(argc, argv)) return false;
  ctx->scale_multiplier = flags.get_double("scale");
  ctx->days = flags.get_double("days");
  ctx->seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const long long threads = flags.get_int("threads");
  if (threads < 0) {
    std::fprintf(stderr, "--threads must be >= 0\n");
    return false;
  }
  ctx->threads = static_cast<std::size_t>(threads);
  ctx->csv_dir = flags.get("csv-dir");
  support::Executor::set_global_threads(ctx->threads);
  return true;
}

weblog::Dataset generate_server(const synth::ServerProfile& profile,
                                const BenchContext& ctx) {
  // Per-server stream derived from the seed and a stable name hash so a
  // driver that generates only one server sees the same data as one that
  // generates all four.
  std::uint64_t name_hash = 1469598103934665603ULL;
  for (char c : profile.name) {
    name_hash ^= static_cast<unsigned char>(c);
    name_hash *= 1099511628211ULL;
  }
  support::Rng rng(ctx.seed ^ name_hash);

  synth::GeneratorOptions opts;
  opts.scale = profile.bench_scale * ctx.scale_multiplier;
  opts.duration = ctx.days * 86400.0;
  auto ds = synth::generate_dataset(profile, opts, rng);
  if (!ds.ok()) {
    std::fprintf(stderr, "fatal: generating %s failed: %s\n",
                 profile.name.c_str(), ds.error().message.c_str());
    std::exit(1);
  }
  return std::move(ds).value();
}

std::vector<weblog::Dataset> generate_all_servers(const BenchContext& ctx) {
  std::vector<weblog::Dataset> out;
  for (const auto& profile : synth::ServerProfile::all_four())
    out.push_back(generate_server(profile, ctx));
  return out;
}

void print_header(const std::string& title, const std::string& paper_ref,
                  const BenchContext& ctx) {
  std::printf("================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("workload: synthetic (see DESIGN.md substitutions); days=%.1f "
              "scale-mult=%.3g seed=%llu threads=%zu\n",
              ctx.days, ctx.scale_multiplier,
              static_cast<unsigned long long>(ctx.seed),
              support::Executor::global().threads());
  std::printf("================================================================\n\n");
}

std::string fmt(double v, int digits) { return support::format_sig(v, digits); }

std::string fmt_h(double h) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%.3f", h);
  return buf;
}

void maybe_write_csv(const BenchContext& ctx, const std::string& name,
                     const std::vector<std::string>& header,
                     const std::vector<std::vector<double>>& columns) {
  if (ctx.csv_dir.empty() || columns.empty()) return;
  const std::string path = ctx.csv_dir + "/" + name + ".csv";
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  for (std::size_t c = 0; c < header.size(); ++c) {
    os << header[c];
    if (c + 1 < header.size()) os << ',';
  }
  os << '\n';
  std::size_t rows = columns.front().size();
  for (const auto& col : columns) rows = std::min(rows, col.size());
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < columns.size(); ++c) {
      os << support::format_sig(columns[c][r], 10);
      if (c + 1 < columns.size()) os << ',';
    }
    os << '\n';
  }
  std::printf("  [csv] wrote %s (%zu rows)\n", path.c_str(), rows);
}

}  // namespace fullweb::bench
