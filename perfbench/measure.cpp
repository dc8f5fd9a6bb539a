// The untraced end-to-end phase: the public entry points a user calls, in a
// loop that runs for the requested seconds.
//
// Batch workloads: open the input -> FullWebModel (ingest + fit) per rep.
// Online workload: stream the CLF file through read_clf_records into
// OnlineAnalyzer::add, with snapshot() every kSnapshotEvery records, one
// caller in a closed loop.
#include <cstdio>

#include "phases.h"
#include "support/rng.h"

namespace perfbench {

using fullweb::support::JsonWriter;

namespace {

constexpr std::size_t kMinReps = 3;

volatile double g_sink = 0.0;

void write_array(JsonWriter& w, const char* key, const std::vector<double>& xs) {
  w.key(key);
  w.begin_array();
  for (double x : xs) w.value(x);
  w.end_array();
}

struct Samples {
  std::vector<double> time_to_model_s;
  double peak_rss_mib = 0.0;  ///< high-water mark of the whole loop
  std::vector<double> snapshot_ms;  ///< online only
  std::size_t events_per_rep = 0;
  std::string digest;  ///< render_report / final snapshot_json digest
  bool hwm_reset = true;
};

void measure_batch(const RunOptions& o, const WorkloadSpec& spec,
                   const Fixture& f, Samples& s, Checks& checks) {
  fullweb::support::Executor ex(spec.executor_width);
  const double start = now_s();
  while (s.time_to_model_s.size() < kMinReps || now_s() - start < o.seconds) {
    fullweb::weblog::StreamIngestReport report;
    const double t0 = now_s();
    auto ds = ingest(spec, f, ex, &report);
    if (!ds.ok()) {
      checks.op(false, "ingest: " + ds.error().message);
      return;
    }
    fullweb::support::Rng rng(derived_seed(o.seed, SeedUse::kFit));
    fullweb::core::FullWebOptions fit;
    fit.executor = &ex;
    auto model = fullweb::core::fit_fullweb_model(ds.value(), rng, fit);
    const double t1 = now_s();
    if (!model.ok()) {
      checks.op(false, "fit: " + model.error().message);
      return;
    }
    s.time_to_model_s.push_back(t1 - t0);
    s.events_per_rep = ds.value().requests().size();
    check_ingest_and_model(spec, f, ds.value(), report, model.value(), checks);
    const std::string d = digest(fullweb::core::render_report(model.value()));
    if (s.digest.empty()) s.digest = d;
    if (d != s.digest) checks.fail("report digest differs between reps");
  }
}

void measure_online(const RunOptions& o, const Fixture& f, Samples& s,
                    Checks& checks) {
  const double start = now_s();
  while (s.time_to_model_s.empty() || now_s() - start < o.seconds) {
    const double t0 = now_s();
    const Replay r = replay_online(f.input_path, o.seed, s.snapshot_ms);
    const double t1 = now_s();
    if (!r.error.empty()) {
      checks.op(false, "read_clf_records: " + r.error);
      return;
    }
    s.time_to_model_s.push_back(t1 - t0);
    s.events_per_rep = r.fed;
    for (std::size_t i = 0; i < r.snapshots; ++i)
      checks.op(i >= r.miscounted_snapshots, "snapshot record count != records fed");

    std::string error;
    auto expect = [&](bool ok, const char* what) {
      if (!ok && error.empty()) error = what;
    };
    const auto& st = r.stats;
    const auto& snap = r.final_snapshot;
    expect(st.parsed + st.malformed == st.lines, "parsed + malformed != lines");
    expect(st.lines == f.lines, "lines read != lines written");
    expect(st.malformed == f.injected_malformed,
           "malformed lines != injected malformed lines");
    expect(r.fed == f.records, "records fed != records written");
    expect(snap.records == f.records, "snapshot records != records written");
    expect(snap.bytes_total == f.total_bytes, "snapshot bytes != bytes written");
    expect(snap.late_dropped == 0 && snap.invalid_time == 0,
           "in-order records were dropped");
    expect(snap.hill.value.has_value() && snap.llcd.value.has_value() &&
               snap.hurst_vt.value.has_value(),
           "final snapshot lacks an estimate");
    checks.op(error.empty(), error);
    const std::string d = digest(snap.to_json());
    if (s.digest.empty()) s.digest = d;
    if (d != s.digest) checks.fail("snapshot digest differs between replays");
  }
}

}  // namespace

Replay replay_online(const std::string& path, std::uint64_t seed,
                     std::vector<double>& snapshot_ms) {
  fullweb::support::Executor serial(1);
  fullweb::weblog::ClfReaderOptions reader;
  reader.executor = &serial;
  fullweb::online::OnlineAnalyzer analyzer(
      fullweb::online::OnlineOptions{},
      fullweb::support::Rng(derived_seed(seed, SeedUse::kOnline)));
  Replay r;
  auto timed_snapshot = [&] {
    const double s0 = now_s();
    auto snap = analyzer.snapshot();
    snapshot_ms.push_back((now_s() - s0) * 1e3);
    ++r.snapshots;
    if (snap.records != r.fed) ++r.miscounted_snapshots;
    return snap;
  };
  auto stats = fullweb::weblog::read_clf_records(
      path, reader, [&](const fullweb::weblog::ClfRecord& rec) {
        analyzer.add(rec);
        if (++r.fed % kSnapshotEvery == 0) g_sink = timed_snapshot().p99;
      });
  r.final_snapshot = timed_snapshot();
  if (stats.ok())
    r.stats = stats.value();
  else
    r.error = stats.error().message;
  return r;
}

int run_measure(const RunOptions& o) {
  const WorkloadSpec spec = workload_spec(o.workload, o.scale);
  Fixture f;
  std::string error;
  if (!read_fixture(o.dir + "/fixture.json", f, error)) {
    std::fprintf(stderr, "perfbench measure: %s\n", error.c_str());
    return 1;
  }
  Samples s;
  Checks checks;
  // The peak covers the measured loop only: the mark is reset after
  // start-up, and set-up ran in another process.
  s.hwm_reset = reset_peak_rss();
  if (o.workload == Workload::kClarknetOnline)
    measure_online(o, f, s, checks);
  else
    measure_batch(o, spec, f, s, checks);
  s.peak_rss_mib = peak_rss_mib();

  JsonWriter w;
  w.begin_object();
  write_header(w, "measure", o, spec);
  w.field("hwm_reset", s.hwm_reset);
  w.field("events_per_rep", s.events_per_rep);
  write_array(w, "time_to_model_s", s.time_to_model_s);
  w.field("peak_rss_mib", s.peak_rss_mib);
  write_array(w, "snapshot_ms", s.snapshot_ms);
  w.field("digest", s.digest);
  checks.write(w);
  w.end_object();
  return write_file(o.out, std::move(w).str() + "\n") ? 0 : 1;
}

}  // namespace perfbench
