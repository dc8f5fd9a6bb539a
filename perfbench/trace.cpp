// The traced phase: per-layer metrics, taken by calling each layer's public
// functions from here, serially, on the inputs and options the fit uses.
//
// Every call is a leaf seen from outside, so a layer's self time is the sum
// of its spans. The batch pass mirrors fit_fullweb_model's Figure-1 task
// graph one call at a time (same substreams, so the Monte-Carlo work is the
// same draws) and checks that the deterministic outputs are bit-equal to
// the fitted model's fields. The mirror copies the fit's RNG layout from
// core/fullweb_model.cpp: a level-2 splitter, stream 9 for the week's tails,
// and streams 3i, 3i+1, 3i+2 for load i's request battery, session battery
// and tails. A change to that layout must be made here too, or the traced
// run fails its bit-equality check. trace.coverage is the covered share of an
// untraced serial fit; stats.periodogram_s and stats.kpss_s are probes of
// work inside core.stationary_s and are not added to the coverage.
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <span>

#include "core/arrival_analysis.h"
#include "core/error_analysis.h"
#include "core/stationary.h"
#include "core/tail_analysis.h"
#include "lrd/estimator_suite.h"
#include "lrd/variance_time.h"
#include "online/analyzer.h"
#include "online/frs_memory.h"
#include "phases.h"
#include "poisson/poisson_test.h"
#include "stats/kpss.h"
#include "stats/periodogram.h"
#include "support/rng.h"
#include "tail/curvature.h"
#include "tail/hill.h"
#include "tail/llcd.h"
#include "timeseries/detrend.h"
#include "timeseries/pyramid.h"

namespace perfbench {

using fullweb::support::Executor;
using fullweb::support::JsonWriter;
using fullweb::support::Rng;
using fullweb::support::RngSplitter;
namespace core = fullweb::core;
namespace weblog = fullweb::weblog;

namespace {

using Metrics = std::map<std::string, double>;

/// Layer busy time, accumulated over spans.
class Spans {
 public:
  template <typename Fn>
  decltype(auto) time(const char* layer, Fn&& fn) {
    const double start = now_s();
    struct Stop {
      Spans* self;
      const char* layer;
      double start;
      ~Stop() { self->busy_[layer] += now_s() - start; }
    } stop{this, layer, start};
    return fn();
  }
  [[nodiscard]] double busy(const std::string& layer) const {
    auto it = busy_.find(layer);
    return it == busy_.end() ? 0.0 : it->second;
  }

 private:
  std::map<std::string, double> busy_;
};

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Bit-equality bookkeeping of the traced outputs against the model.
struct Agreement {
  std::string first_mismatch;
  void expect(bool ok, const std::string& what) {
    if (!ok && first_mismatch.empty()) first_mismatch = what;
  }
};

/// Work counts of the traced batch pass.
struct Counters {
  double curvature_points = 0.0;  ///< sum of sample size x replicates
  double curvature_replicates = 0.0;
  double poisson_tests = 0.0;
};

void trace_tail(std::span<const double> samples, Rng& rng,
                const core::TailAnalysisOptions& opts, Executor& serial,
                Spans& spans, Counters& counters,
                const core::TailAnalysis& expected, Agreement& agree,
                const std::string& label) {
  if (samples.size() < opts.min_samples) {
    agree.expect(!expected.available, label + ": availability");
    return;
  }
  RngSplitter streams(rng, 0);
  Rng pareto_rng = streams.stream(0);
  Rng lognormal_rng = streams.stream(1);
  auto llcd = spans.time("tail.estimators_s",
                         [&] { return fullweb::tail::llcd_fit(samples, opts.llcd); });
  auto hill = spans.time("tail.estimators_s", [&] {
    return fullweb::tail::hill_estimate(samples, opts.hill);
  });
  agree.expect(llcd.ok() == expected.llcd.has_value() &&
                   (!llcd.ok() || same_bits(llcd.value().alpha, expected.llcd->alpha)),
               label + ": LLCD alpha");
  agree.expect(hill.ok() == expected.hill.has_value() &&
                   (!hill.ok() || same_bits(hill.value().alpha, expected.hill->alpha)),
               label + ": Hill alpha");
  if (!(llcd.ok() || hill.ok()) || !opts.run_curvature) return;

  fullweb::tail::CurvatureOptions copts;
  copts.replicates = opts.curvature_replicates;
  copts.executor = &serial;
  auto curvature = [&](fullweb::tail::TailModel model, Rng& r,
                       const std::optional<fullweb::tail::CurvatureResult>& want,
                       const char* name) {
    copts.model = model;
    auto c = spans.time("tail.curvature_s", [&] {
      return fullweb::tail::curvature_test(samples, r, copts);
    });
    agree.expect(c.ok() == want.has_value() &&
                     (!c.ok() || (same_bits(c.value().param1, want->param1) &&
                                  same_bits(c.value().param2, want->param2))),
                 label + ": curvature " + name + " parameters");
    if (!c.ok()) return;
    counters.curvature_replicates += static_cast<double>(c.value().replicates);
    counters.curvature_points +=
        static_cast<double>(samples.size()) * static_cast<double>(c.value().replicates);
  };
  curvature(fullweb::tail::TailModel::kPareto, pareto_rng,
            expected.curvature_pareto, "pareto");
  curvature(fullweb::tail::TailModel::kLognormal, lognormal_rng,
            expected.curvature_lognormal, "lognormal");
}

void trace_tails(const weblog::Dataset& ds, const weblog::Interval& iv,
                 const core::FullWebOptions& opts, Rng rng, Executor& serial,
                 Spans& spans, Counters& counters,
                 const core::IntervalTails& expected, Agreement& agree,
                 const std::string& label) {
  RngSplitter streams(rng, 1);
  Rng metric_rngs[3] = {streams.stream(0), streams.stream(1), streams.stream(2)};
  const auto lengths = spans.time("weblog.series_s",
                                  [&] { return ds.session_lengths(iv.t0, iv.t1); });
  trace_tail(lengths, metric_rngs[0], opts.tails, serial, spans, counters,
             expected.length, agree, label + " length");
  const auto requests = spans.time(
      "weblog.series_s", [&] { return ds.session_request_counts(iv.t0, iv.t1); });
  trace_tail(requests, metric_rngs[1], opts.tails, serial, spans, counters,
             expected.requests, agree, label + " requests");
  const auto bytes = spans.time("weblog.series_s",
                                [&] { return ds.session_byte_counts(iv.t0, iv.t1); });
  trace_tail(bytes, metric_rngs[2], opts.tails, serial, spans, counters,
             expected.bytes, agree, label + " bytes");
}

void expect_suite(const fullweb::lrd::HurstSuiteResult& got,
                  const fullweb::lrd::HurstSuiteResult& want, Agreement& agree,
                  const std::string& label) {
  bool same = got.estimates.size() == want.estimates.size();
  for (std::size_t i = 0; same && i < got.estimates.size(); ++i)
    same = got.estimates[i].method == want.estimates[i].method &&
           same_bits(got.estimates[i].h, want.estimates[i].h);
  agree.expect(same, label);
}

void expect_sweep(const std::vector<fullweb::lrd::AggregatedHurstPoint>& got,
                  const std::vector<fullweb::lrd::AggregatedHurstPoint>& want,
                  Agreement& agree, const std::string& label) {
  bool same = got.size() == want.size();
  for (std::size_t i = 0; same && i < got.size(); ++i)
    same = got[i].m == want[i].m && same_bits(got[i].estimate.h, want[i].estimate.h);
  agree.expect(same, label);
}

void trace_arrivals(std::span<const double> counts,
                    const core::ArrivalAnalysisOptions& aopts, Executor& serial,
                    Spans& spans, const core::ArrivalAnalysis& expected,
                    Agreement& agree, const std::string& label) {
  const auto raw = spans.time("lrd.hurst_suite_s", [&] {
    return fullweb::lrd::hurst_suite(counts, aopts.hurst);
  });
  expect_suite(raw, expected.hurst_raw, agree, label + ": raw Hurst estimates");
  core::StationaryOptions sopts = aopts.stationary;
  sopts.executor = &serial;
  auto st = spans.time("core.stationary_s",
                       [&] { return core::make_stationary(counts, sopts); });
  if (!st.ok()) {
    agree.expect(false, label + ": make_stationary failed");
    return;
  }
  agree.expect(st.value().period == expected.stationarity.period,
               label + ": stationary period");
  std::optional<fullweb::timeseries::AggregationPyramid> pyramid;
  if (aopts.run_aggregation_sweep) {
    spans.time("lrd.sweep_s", [&] {
      pyramid.emplace(std::span<const double>(st.value().series),
                      aopts.aggregation_levels);
    });
  }
  const auto stat = spans.time("lrd.hurst_suite_s", [&] {
    return fullweb::lrd::hurst_suite(st.value().series, aopts.hurst);
  });
  expect_suite(stat, expected.hurst_stationary, agree,
               label + ": stationary Hurst estimates");
  if (!pyramid.has_value()) return;
  const auto whittle = spans.time("lrd.sweep_s", [&] {
    return fullweb::lrd::aggregated_hurst_sweep(
        *pyramid, fullweb::lrd::HurstMethod::kWhittle, aopts.hurst);
  });
  expect_sweep(whittle, expected.whittle_sweep, agree, label + ": Whittle sweep");
  const auto av = spans.time("lrd.sweep_s", [&] {
    return fullweb::lrd::aggregated_hurst_sweep(
        *pyramid, fullweb::lrd::HurstMethod::kAbryVeitch, aopts.hurst);
  });
  expect_sweep(av, expected.abry_veitch_sweep, agree, label + ": Abry-Veitch sweep");
}

void trace_battery(const std::vector<double>& times, const weblog::Interval& iv,
                   const core::FullWebOptions& opts, Rng rng, Spans& spans,
                   Counters& counters) {
  spans.time("poisson.battery_s", [&] {
    std::vector<double> in_window;
    for (double t : times)
      if (t >= iv.t0 && t < iv.t1) in_window.push_back(t);
    if (in_window.size() < opts.poisson_min_events) return;
    RngSplitter streams(rng, 0);
    const struct {
      double seconds;
      fullweb::poisson::SpreadMode spread;
    } configs[4] = {{3600.0, fullweb::poisson::SpreadMode::kUniform},
                    {3600.0, fullweb::poisson::SpreadMode::kDeterministic},
                    {600.0, fullweb::poisson::SpreadMode::kUniform},
                    {600.0, fullweb::poisson::SpreadMode::kDeterministic}};
    for (std::size_t i = 0; i < 4; ++i) {
      Rng r = streams.stream(i);
      auto popts = opts.poisson;
      popts.interval_seconds = configs[i].seconds;
      popts.spread = configs[i].spread;
      auto result = fullweb::poisson::test_poisson_arrivals(in_window, iv.t0, iv.t1,
                                                            popts, r);
      counters.poisson_tests += 1.0;
      (void)result;
    }
  });
}

/// One serial pass over the fit's layers; returns the pass's wall time.
double traced_fit(const weblog::Dataset& ds, std::uint64_t seed, Executor& serial,
                  Spans& spans, Counters& counters,
                  const core::FullWebModel& model, Agreement& agree) {
  const double start = now_s();
  core::FullWebOptions opts;
  opts.executor = &serial;
  opts.arrivals.hurst.executor = &serial;
  opts.tails.executor = &serial;
  Rng rng(derived_seed(seed, SeedUse::kFit));
  RngSplitter streams(rng, 2);

  struct LoadWork {
    weblog::Load load;
    weblog::Interval interval;
    std::size_t stream_base;
  };
  std::vector<LoadWork> load_work;
  spans.time("weblog.series_s", [&] {
    std::size_t index = 0;
    for (weblog::Load load :
         {weblog::Load::kLow, weblog::Load::kMed, weblog::Load::kHigh}) {
      auto interval = ds.pick(load, opts.interval_seconds);
      if (interval) load_work.push_back({load, interval.value(), 3 * index});
      ++index;
    }
  });

  weblog::Interval week;
  week.t0 = ds.t0();
  week.t1 = ds.t1();
  trace_tails(ds, week, opts, streams.stream(9), serial, spans, counters,
              model.week_tails, agree, "week");

  const auto rps = spans.time("weblog.series_s", [&] { return ds.requests_per_second(); });
  const auto sps = spans.time("weblog.series_s", [&] { return ds.sessions_per_second(); });
  const auto request_times =
      spans.time("weblog.series_s", [&] { return ds.request_times(); });
  const auto session_times =
      spans.time("weblog.series_s", [&] { return ds.session_start_times(); });

  trace_arrivals(rps, opts.arrivals, serial, spans, model.request_arrivals, agree,
                 "request arrivals");
  auto session_opts = opts.arrivals;
  session_opts.stationary.only_if_nonstationary = true;
  trace_arrivals(sps, session_opts, serial, spans, model.session_arrivals, agree,
                 "session arrivals");

  for (const auto& work : load_work) {
    const auto label = weblog::to_string(work.load);
    auto expected = model.interval_tails.find(work.load);
    if (expected == model.interval_tails.end()) {
      agree.expect(false, label + ": interval missing from the model");
      continue;
    }
    trace_tails(ds, work.interval, opts, streams.stream(work.stream_base + 2), serial,
                spans, counters, expected->second, agree, label);
    trace_battery(request_times, work.interval, opts,
                  streams.stream(work.stream_base), spans, counters);
    trace_battery(session_times, work.interval, opts,
                  streams.stream(work.stream_base + 1), spans, counters);
  }

  spans.time("core.errors_s", [&] { (void)core::analyze_errors(ds, opts.errors); });
  return now_s() - start;
}

bool trace_batch(const RunOptions& o, const WorkloadSpec& spec, const Fixture& f,
                 Metrics& m, Checks& checks, std::string& report_digest) {
  Executor ex(spec.executor_width);
  Executor serial(1);

  reset_peak_rss();
  weblog::StreamIngestReport report;
  double t0 = now_s();
  auto ds = ingest(spec, f, ex, &report);
  const double ingest_s = now_s() - t0;
  if (!ds.ok()) {
    checks.op(false, "ingest: " + ds.error().message);
    return false;
  }
  const double rows =
      static_cast<double>(ds.value().requests().size() + ds.value().sessions().size());
  if (spec.clf && report.files.size() == 1) {
    m["weblog.ingest_s"] = ingest_s;
    m["weblog.lines_per_s"] = static_cast<double>(report.files[0].lines) / ingest_s;
    m["weblog.malformed"] = static_cast<double>(report.files[0].malformed);
    m["weblog.peak_open_sessions"] = static_cast<double>(report.peak_open_sessions);
    m["weblog.ingest_peak_rss_mib"] = peak_rss_mib();
  } else {
    m["store.read_s"] = ingest_s;
    m["store.rows_per_s"] = rows / ingest_s;
    m["store.bytes_per_row"] = static_cast<double>(f.input_bytes) / rows;
  }

  reset_peak_rss();
  core::FullWebOptions fit;
  fit.executor = &ex;
  Rng rng(derived_seed(o.seed, SeedUse::kFit));
  const double cpu0 = process_cpu_s();
  t0 = now_s();
  auto model = core::fit_fullweb_model(ds.value(), rng, fit);
  const double fit_s = now_s() - t0;
  const double fit_cpu_s = process_cpu_s() - cpu0;
  if (!model.ok()) {
    checks.op(false, "fit: " + model.error().message);
    return false;
  }
  m["core.fit_s"] = fit_s;
  m["core.fit_cpu_s"] = fit_cpu_s;
  m["core.fit_parallelism"] = fit_cpu_s / fit_s;
  m["core.fit_peak_rss_mib"] = peak_rss_mib();
  check_ingest_and_model(spec, f, ds.value(), report, model.value(), checks);
  report_digest = digest(core::render_report(model.value()));

  fit.executor = &serial;
  Rng serial_rng(derived_seed(o.seed, SeedUse::kFit));
  t0 = now_s();
  auto serial_model = core::fit_fullweb_model(ds.value(), serial_rng, fit);
  const double fit_serial_s = now_s() - t0;
  m["core.fit_serial_s"] = fit_serial_s;
  checks.op(serial_model.ok() &&
                digest(core::render_report(serial_model.value())) == report_digest,
            "serial fit report differs from the parallel fit report");

  Spans spans;
  Counters counters;
  Agreement agree;
  const double traced_s =
      traced_fit(ds.value(), o.seed, serial, spans, counters, model.value(), agree);
  checks.op(agree.first_mismatch.empty(),
            "traced output differs from the model: " + agree.first_mismatch);

  // Probes inside core.stationary_s, on the request series it stationarizes.
  const auto rps = ds.value().requests_per_second();
  const auto detrended = fullweb::timeseries::detrend_linear(rps, true).residual;
  spans.time("stats.periodogram_s",
             [&] { (void)fullweb::stats::periodogram(detrended, &serial); });
  spans.time("stats.kpss_s", [&] {
    (void)fullweb::stats::kpss_test(rps, fullweb::stats::KpssNull::kLevel,
                                    fit.arrivals.stationary.kpss_lag);
  });

  double covered = 0.0;
  for (const char* layer :
       {"weblog.series_s", "core.stationary_s", "lrd.hurst_suite_s", "lrd.sweep_s",
        "poisson.battery_s", "tail.curvature_s", "tail.estimators_s", "core.errors_s"}) {
    m[layer] = spans.busy(layer);
    covered += m[layer];
  }
  for (const char* probe : {"stats.periodogram_s", "stats.kpss_s"})
    m[probe] = spans.busy(probe);
  m["poisson.tests"] = counters.poisson_tests;
  m["tail.curvature_replicates"] = counters.curvature_replicates;
  m["tail.curvature_ns_per_point"] =
      counters.curvature_points > 0.0
          ? spans.busy("tail.curvature_s") * 1e9 / counters.curvature_points
          : 0.0;
  m["trace.coverage"] = covered / fit_serial_s;
  m["trace.overhead_s"] = traced_s - fit_serial_s;
  return true;
}

bool trace_online(const RunOptions& o, const Fixture& f, Metrics& m, Checks& checks,
                  std::string& snapshot_digest, std::vector<double>& replay_snapshot_ms) {
  Executor serial(1);
  weblog::ClfReaderOptions reader;
  reader.executor = &serial;
  const fullweb::online::OnlineOptions opts;
  auto make_analyzer = [&] {
    return fullweb::online::OnlineAnalyzer(
        opts, Rng(derived_seed(o.seed, SeedUse::kOnline)));
  };

  // Untraced replay, as the measured phase runs it; its snapshot latencies
  // give the online.snapshot_p*_ms percentiles.
  double t0 = now_s();
  const Replay replay = replay_online(f.input_path, o.seed, replay_snapshot_ms);
  const double replay_s = now_s() - t0;
  if (!replay.error.empty()) {
    checks.op(false, "read_clf_records: " + replay.error);
    return false;
  }
  snapshot_digest = digest(replay.final_snapshot.to_json());

  // weblog: parsing alone.
  std::vector<double> times, bytes;
  times.reserve(replay.fed);
  bytes.reserve(replay.fed);
  t0 = now_s();
  auto stats = weblog::read_clf_records(
      f.input_path, reader, [&](const weblog::ClfRecord& r) {
        times.push_back(r.timestamp);
        bytes.push_back(static_cast<double>(r.bytes));
      });
  const double parse_s = now_s() - t0;
  if (!stats.ok()) {
    checks.op(false, "read_clf_records: " + stats.error().message);
    return false;
  }
  m["weblog.parse_s"] = parse_s;
  m["weblog.lines_per_s"] = static_cast<double>(stats.value().lines) / parse_s;
  m["weblog.malformed"] = static_cast<double>(stats.value().malformed);

  // online: add() alone.
  double add_s = 0.0;
  {
    auto analyzer = make_analyzer();
    t0 = now_s();
    for (std::size_t i = 0; i < times.size(); ++i) analyzer.add(times[i], bytes[i]);
    add_s = now_s() - t0;
  }
  m["online.add_ns_per_event"] = add_s * 1e9 / static_cast<double>(times.size());

  // online: snapshot() at the same points, with probes of the layers a
  // snapshot calls (outside the timed snapshot).
  Spans spans;
  std::vector<double> snapshot_ms;
  auto analyzer = make_analyzer();
  auto snapshot_and_probe = [&] {
    const double s0 = now_s();
    const auto snap = analyzer.snapshot();
    snapshot_ms.push_back((now_s() - s0) * 1e3);
    const auto win = analyzer.window_counts();
    spans.time("stats.kpss_s",
               [&] { (void)fullweb::stats::kpss_test(win, opts.kpss_null); });
    spans.time("lrd.window_s", [&] {
      auto vt = fullweb::lrd::variance_time_hurst(win);
      auto frs = fullweb::online::frs_memory_from_counts(
          win, fullweb::online::FrsOptions{opts.frs_scales, 4});
      return vt.ok() && frs.ok();
    });
    spans.time("tail.estimators_s", [&] {
      const auto& sketch = analyzer.sketch();
      const auto top = sketch.top_values();
      auto plot = fullweb::tail::hill_plot_from_top(top, sketch.count(), opts.hill);
      if (plot.ok()) (void)fullweb::tail::hill_estimate_from_plot(plot.value(), opts.hill);
      Rng r(derived_seed(o.seed, SeedUse::kOnline));
      const auto sample = sketch.sample_values(opts.tail_subsample, r);
      return fullweb::tail::llcd_fit(sample).ok();
    });
    return snap;
  };
  for (std::size_t i = 0; i < times.size(); ++i) {
    analyzer.add(times[i], bytes[i]);
    if ((i + 1) % kSnapshotEvery == 0) (void)snapshot_and_probe();
  }
  const auto final_snap = snapshot_and_probe();
  checks.op(digest(final_snap.to_json()) == snapshot_digest,
            "traced final snapshot differs from the replayed one");
  double snapshot_busy = 0.0;
  for (double ms : snapshot_ms) snapshot_busy += ms / 1e3;
  m["online.late_dropped"] = static_cast<double>(final_snap.late_dropped);
  m["online.invalid_time"] = static_cast<double>(final_snap.invalid_time);
  m["stats.kpss_s"] = spans.busy("stats.kpss_s");
  m["lrd.window_s"] = spans.busy("lrd.window_s");
  m["tail.estimators_s"] = spans.busy("tail.estimators_s");
  const double traced = parse_s + add_s + snapshot_busy;
  m["trace.coverage"] = traced / replay_s;
  m["trace.overhead_s"] = traced - replay_s;
  return true;
}

}  // namespace

int run_trace(const RunOptions& o) {
  const WorkloadSpec spec = workload_spec(o.workload, o.scale);
  Fixture f;
  std::string error;
  if (!read_fixture(o.dir + "/fixture.json", f, error)) {
    std::fprintf(stderr, "perfbench trace: %s\n", error.c_str());
    return 1;
  }
  Checks checks;
  std::vector<Metrics> passes;
  std::vector<double> snapshot_ms;
  std::string first_digest;
  // Passes repeat while the next one, as long as the last, still ends
  // within the measured time.
  const double start = now_s();
  double last_pass_s = 0.0;
  while (passes.empty() || now_s() - start + last_pass_s <= o.seconds) {
    const double pass_start = now_s();
    Metrics m;
    std::string d;
    const bool ok = o.workload == Workload::kClarknetOnline
                        ? trace_online(o, f, m, checks, d, snapshot_ms)
                        : trace_batch(o, spec, f, m, checks, d);
    if (!ok) break;
    if (first_digest.empty()) first_digest = d;
    if (d != first_digest) checks.fail("digest differs between traced passes");
    passes.push_back(std::move(m));
    last_pass_s = now_s() - pass_start;
  }

  JsonWriter w;
  w.begin_object();
  write_header(w, "trace", o, spec);
  w.field("digest", first_digest);
  w.key("passes");
  w.begin_array();
  for (const Metrics& m : passes) {
    w.begin_object();
    for (const auto& [name, value] : m) w.field(name, value);
    w.end_object();
  }
  w.end_array();
  w.key("snapshot_ms");
  w.begin_array();
  for (double ms : snapshot_ms) w.value(ms);
  w.end_array();
  checks.write(w);
  w.end_object();
  return write_file(o.out, std::move(w).str() + "\n") ? 0 : 1;
}

}  // namespace perfbench
