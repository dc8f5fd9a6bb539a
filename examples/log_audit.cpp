// Log audit: run the FULL-Web characterization on a Common Log Format file.
//
// This is the tool a downstream operator would actually point at their
// server logs. Given a CLF/Combined access log it parses, sessionizes
// (30-minute threshold), and reports:
//   - volume summary (Table 1 style),
//   - stationarity + Hurst battery for request and session arrivals,
//   - Poisson verdicts for the busiest 4-hour window,
//   - heavy-tail analysis of the three intra-session characteristics.
// With no argument it writes a demo log (synthetic ClarkNet day) first and
// audits that, so the example is runnable out of the box.
//
// Every file goes through the streaming ingest (chunked parallel parse,
// bounded-memory sessionization) with per-file IngestStats printed.
// Several files are the Figure 1 treatment of redundant-server
// architectures (WVU, CSEE ran replicated servers whose logs must be merged
// or sessions split): interleaved replica logs are detected as out of
// order, and the merged request table is time-sorted and sessionized as one
// stream.
//
//   ./log_audit [access1.log access2.log ...]
#include <cstdio>
#include <fstream>
#include <iostream>

#include "core/error_analysis.h"
#include "core/fullweb_model.h"
#include "core/interarrival.h"
#include "core/report_markdown.h"
#include "support/cli.h"
#include "support/executor.h"
#include "synth/generator.h"
#include "weblog/clf.h"
#include "weblog/dataset.h"

namespace {

using namespace fullweb;

int write_demo_log(const std::string& path) {
  support::Rng rng(99);
  synth::GeneratorOptions gen;
  gen.duration = 86400.0;
  gen.scale = 0.25;
  auto workload =
      synth::generate_workload(synth::ServerProfile::clarknet(), gen, rng);
  if (!workload) {
    std::fprintf(stderr, "demo generation failed: %s\n",
                 workload.error().message.c_str());
    return 1;
  }
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  support::Rng rng2(100);
  for (const auto& e : synth::to_log_entries(workload.value(), rng2))
    out << weblog::to_clf_line(e) << '\n';
  std::printf("wrote demo log to %s (%zu requests)\n", path.c_str(),
              workload.value().requests.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  support::CliFlags flags;
  flags.define("threshold-minutes", "30.0", "session inactivity threshold");
  flags.define("curvature-replicates", "99", "Monte-Carlo replicates (0 = skip)");
  flags.define("markdown", "", "also write a Markdown report to this path");
  flags.define("threads", "0",
               "analysis threads (0 = hardware concurrency, 1 = serial)");
  if (!flags.parse(argc, argv)) return 2;
  const long long threads = flags.get_int("threads");
  if (threads < 0) {
    std::fprintf(stderr, "--threads must be >= 0\n");
    return 2;
  }
  support::Executor::set_global_threads(static_cast<std::size_t>(threads));

  std::vector<std::string> paths = flags.positional();
  if (paths.empty()) {
    const std::string demo = "demo_access.log";
    std::ifstream probe(demo);
    if (!probe && write_demo_log(demo) != 0) return 1;
    paths.push_back(demo);
  }

  weblog::SessionizerOptions sopts;
  sopts.threshold_seconds = flags.get_double("threshold-minutes") * 60.0;

  // Chunked parallel parse, O(open sessions) memory.
  weblog::StreamIngestOptions iopts;
  iopts.sessionizer = sopts;
  weblog::StreamIngestReport report;
  auto ingested =
      weblog::Dataset::from_clf_stream(paths.front(), paths, iopts, &report);
  if (!ingested.ok()) {
    std::fprintf(stderr, "streaming ingest failed: %s\n",
                 ingested.error().message.c_str());
    return 1;
  }
  for (const auto& f : report.files) std::printf("%s\n", f.summary().c_str());
  std::printf("peak open sessions: %zu (%s sessionization)\n",
              report.peak_open_sessions,
              report.sessionized_incrementally ? "incremental"
                                               : "sort-then-stream");
  const weblog::Dataset& dataset = ingested.value();

  core::FullWebOptions opts;
  const auto reps = static_cast<std::size_t>(flags.get_int("curvature-replicates"));
  opts.tails.run_curvature = reps > 0;
  opts.tails.curvature_replicates = reps;
  support::Rng rng(7);
  auto model = core::fit_fullweb_model(dataset, rng, opts);
  if (!model.ok()) {
    std::fprintf(stderr, "analysis failed: %s\n", model.error().message.c_str());
    return 1;
  }
  std::cout << core::render_report(model.value());

  // Which classical model do the request inter-arrival times actually
  // follow? (Under LRD traffic the exponential loses badly — §4.2.)
  if (auto ia = core::analyze_interarrivals(dataset.request_times()); ia.ok()) {
    std::printf("\nRequest inter-arrival model ranking (n=%zu, cv=%.2f):\n",
                ia.value().n, ia.value().cv);
    for (const auto& f : ia.value().fits) {
      std::printf("  %-12s AIC %+12.1f (delta %8.1f)  params: %.4g %.4g\n",
                  core::to_string(f.model).c_str(), f.aic, f.delta_aic,
                  f.param1, f.param2);
    }
    std::printf("  exponential adequate (AIC winner + A^2 pass): %s\n",
                ia.value().exponential_adequate() ? "yes" : "NO");
  }

  // Error / reliability view (Figure 1's error-analysis branch).
  if (auto err = core::analyze_errors(dataset); err.ok()) {
    const auto& e = err.value();
    std::printf("\nError & reliability analysis:\n");
    std::printf("  status mix: 1xx=%zu 2xx=%zu 3xx=%zu 4xx=%zu 5xx=%zu\n",
                e.statuses.by_class[1], e.statuses.by_class[2],
                e.statuses.by_class[3], e.statuses.by_class[4],
                e.statuses.by_class[5]);
    std::printf("  request error rate: %.2f%% (server errors %.2f%%)\n",
                100.0 * e.request_error_rate, 100.0 * e.server_error_rate);
    std::printf("  session reliability: %.2f%% (%zu of %zu sessions hit an "
                "error; %.1f errors per affected session)\n",
                100.0 * e.session_reliability, e.sessions_with_error,
                e.sessions, e.errors_per_bad_session);
  }

  // Optional Markdown artifact with everything above in shareable form.
  const std::string md_path = flags.get("markdown");
  if (!md_path.empty()) {
    std::ofstream md(md_path);
    if (!md) {
      std::fprintf(stderr, "cannot write %s\n", md_path.c_str());
      return 1;
    }
    md << core::render_markdown(model.value());
    if (auto err = core::analyze_errors(dataset); err.ok())
      md << core::render_markdown_errors(err.value());
    if (auto ia = core::analyze_interarrivals(dataset.request_times()); ia.ok())
      md << core::render_markdown_interarrivals(ia.value());
    std::printf("\nwrote Markdown report to %s\n", md_path.c_str());
  }
  return 0;
}
