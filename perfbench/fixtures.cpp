// Set-up: each workload's input file, made from the seed, and the checks
// that tie what a phase ingested back to what set-up wrote.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <vector>

#include "phases.h"
#include "support/rng.h"
#include "synth/generator.h"
#include "weblog/clf.h"

namespace perfbench {

using fullweb::support::JsonWriter;
using fullweb::weblog::Dataset;

std::uint64_t derived_seed(std::uint64_t seed, SeedUse use) {
  return seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(use);
}

namespace {

/// Set-ups timed per run; setup_s is their median.
constexpr std::size_t kSetupReps = 3;
/// Weeks tried per seed for a KPSS-stationary session series.
constexpr std::uint64_t kMaxDraws = 32;

/// Generator seed of the seed's `draw`-th candidate week (draw 0 is the
/// plain kGenerate seed).
std::uint64_t draw_seed(std::uint64_t seed, std::uint64_t draw) {
  return derived_seed(seed, SeedUse::kGenerate) ^ (draw * 0xbf58476d1ce4e5b9ULL);
}

/// Level-stationarity KPSS at 5% on the per-second session-start counts,
/// with the standard bandwidth floor(12 (n/100)^(1/4)). The benchmark
/// carries its own copy of the test so that which week a seed selects does
/// not depend on the library's stats::kpss_test, which is code under test.
bool sessions_stationary(const Dataset& ds) {
  const auto n = static_cast<std::size_t>(std::ceil(ds.t1() - ds.t0()));
  if (n < 10) return false;
  std::vector<double> e(n, 0.0);
  for (const auto& s : ds.sessions()) {
    if (s.start < ds.t0() || s.start >= ds.t1()) continue;
    e[std::min(n - 1, static_cast<std::size_t>(s.start - ds.t0()))] += 1.0;
  }
  double mean = 0.0;
  for (double x : e) mean += x;
  mean /= static_cast<double>(n);
  double partial = 0.0, sum_s2 = 0.0, var = 0.0;
  for (double& x : e) {
    x -= mean;
    partial += x;
    sum_s2 += partial * partial;
    var += x * x;
  }
  const double nn = static_cast<double>(n);
  const auto lag = std::min(
      n - 1, static_cast<std::size_t>(std::floor(12.0 * std::pow(nn / 100.0, 0.25))));
  double s2 = var / nn;
  for (std::size_t l = 1; l <= lag; ++l) {
    double dot = 0.0;
    for (std::size_t t = l; t < n; ++t) dot += e[t] * e[t - l];
    s2 += 2.0 * (1.0 - static_cast<double>(l) / static_cast<double>(lag + 1)) * dot / nn;
  }
  return s2 > 0.0 && sum_s2 / (nn * nn) / s2 < 0.463;
}

template <typename T>
void append_raw(std::string& out, const T& v) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &v, sizeof(T));
  out.append(bytes, sizeof(T));
}

/// A line the CLF parser must reject. The four kinds rotate so each
/// rejection reason the weblog layer counts is exercised: an out-of-range
/// timestamp, a line cut before its request field, a non-numeric status,
/// and a single junk token.
std::string malformed_line(const std::string& line, std::size_t kind) {
  switch (kind % 4) {
    case 0: {
      const auto open = line.find('[');
      const auto close = line.find(']');
      return line.substr(0, open) + "[12/Jan/2004:25:61:61 +0000]" +
             line.substr(close + 1);
    }
    case 1:
      return line.substr(0, line.find('"'));
    case 2: {
      const auto last = line.rfind(' ');
      const auto prev = line.rfind(' ', last - 1);
      return line.substr(0, prev + 1) + "2x0" + line.substr(last);
    }
    default:
      return "<<corrupted-record>>";
  }
}

bool make_clf_fixture(const WorkloadSpec& spec, const RunOptions& o,
                      Fixture& f, std::string& error) {
  fullweb::support::Rng gen_rng(draw_seed(o.seed, 0));
  fullweb::synth::GeneratorOptions gen;
  gen.scale = spec.scale;
  auto workload = fullweb::synth::generate_workload(spec.profile, gen, gen_rng);
  if (!workload.ok()) {
    error = workload.error().message;
    return false;
  }
  fullweb::support::Rng render_rng(derived_seed(o.seed, SeedUse::kRender));
  const auto entries = fullweb::synth::to_log_entries(workload.value(), render_rng);

  f = Fixture{};
  f.input_path = o.dir + "/input.log";
  std::ofstream os(f.input_path, std::ios::binary | std::ios::trunc);
  fullweb::support::Rng inject_rng(derived_seed(o.seed, SeedUse::kInject));
  const std::size_t every = spec.malformed_every;
  // One malformed line follows a seed-chosen line of every block of
  // `every` lines.
  std::size_t next_bad = every > 0 ? inject_rng() % every
                                   : std::numeric_limits<std::size_t>::max();
  std::string buf;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const std::string line = fullweb::weblog::to_clf_line(entries[i]);
    buf += line;
    buf += '\n';
    ++f.lines;
    ++f.records;
    f.total_bytes += entries[i].bytes;
    if (i == next_bad) {
      buf += malformed_line(line, f.injected_malformed);
      buf += '\n';
      ++f.lines;
      ++f.injected_malformed;
      next_bad = f.injected_malformed * every + inject_rng() % every;
    }
    if (buf.size() >= (1u << 22)) {
      os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
      f.input_bytes += buf.size();
      buf.clear();
    }
  }
  os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  f.input_bytes += buf.size();
  os.flush();
  if (!os) {
    error = "cannot write " + f.input_path;
    return false;
  }
  return true;
}

/// The seed's first candidate week whose session series passes KPSS. This
/// search is not timed: it picks the input, and each timed set-up then
/// makes exactly one week.
bool find_stationary_draw(const WorkloadSpec& spec, const RunOptions& o,
                          std::uint64_t& draw, std::string& error) {
  fullweb::synth::GeneratorOptions gen;
  gen.scale = spec.scale;
  for (draw = 0; draw < kMaxDraws; ++draw) {
    fullweb::support::Rng gen_rng(draw_seed(o.seed, draw));
    auto ds = fullweb::synth::generate_dataset(spec.profile, gen, gen_rng);
    if (!ds.ok()) {
      error = ds.error().message;
      return false;
    }
    if (sessions_stationary(ds.value())) return true;
  }
  error = "no week with a KPSS-stationary session series";
  return false;
}

bool make_fwc_fixture(const WorkloadSpec& spec, const RunOptions& o,
                      std::uint64_t draw, Fixture& f, std::string& error) {
  fullweb::support::Rng gen_rng(draw_seed(o.seed, draw));
  fullweb::synth::GeneratorOptions gen;
  gen.scale = spec.scale;
  auto ds = fullweb::synth::generate_dataset(spec.profile, gen, gen_rng);
  if (!ds.ok()) {
    error = ds.error().message;
    return false;
  }
  f = Fixture{};
  f.redraws = draw;
  f.input_path = o.dir + "/input.fwc";
  auto written = ds.value().to_columnar(f.input_path);
  if (!written.ok()) {
    error = written.error().message;
    return false;
  }
  f.input_bytes = written.value();
  f.records = ds.value().requests().size();
  f.sessions = ds.value().sessions().size();
  f.total_bytes = ds.value().total_bytes();
  f.tables_digest = tables_digest(ds.value());
  return true;
}

}  // namespace

std::string tables_digest(const Dataset& ds) {
  std::string raw;
  raw.reserve(ds.requests().size() * 22 + ds.sessions().size() * 36);
  for (const auto& r : ds.requests()) {
    append_raw(raw, r.time);
    append_raw(raw, r.client);
    append_raw(raw, r.status);
    append_raw(raw, r.bytes);
  }
  for (const auto& s : ds.sessions()) {
    append_raw(raw, s.client);
    append_raw(raw, s.start);
    append_raw(raw, s.end);
    append_raw(raw, s.requests);
    append_raw(raw, s.bytes);
  }
  return digest(raw);
}

fullweb::support::Result<Dataset> ingest(
    const WorkloadSpec& spec, const Fixture& f, fullweb::support::Executor& ex,
    fullweb::weblog::StreamIngestReport* report) {
  if (!spec.clf) return Dataset::from_columnar(f.input_path);
  fullweb::weblog::StreamIngestOptions opts;
  opts.reader.executor = &ex;
  const std::vector<std::string> paths = {f.input_path};
  return Dataset::from_clf_stream(spec.profile.name, paths, opts, report);
}

void check_ingest_and_model(const WorkloadSpec& spec, const Fixture& f,
                            const Dataset& ds,
                            const fullweb::weblog::StreamIngestReport& report,
                            const fullweb::core::FullWebModel& model,
                            Checks& checks) {
  std::string error;
  auto expect = [&](bool ok, const char* what) {
    if (!ok && error.empty()) error = what;
  };
  if (spec.clf) {
    expect(report.files.size() == 1, "ingest report does not cover one file");
    if (report.files.size() == 1) {
      const auto& st = report.files[0];
      expect(st.parsed + st.malformed == st.lines, "parsed + malformed != lines");
      expect(st.lines == f.lines, "lines read != lines written");
      expect(st.malformed == f.injected_malformed,
             "malformed lines != injected malformed lines");
      expect(st.parsed == f.records, "parsed lines != records written");
    }
    expect(report.invalid_time == 0, "records dropped for invalid time");
    expect(ds.total_bytes() == f.total_bytes, "ingested bytes != bytes written");
  } else {
    expect(tables_digest(ds) == f.tables_digest,
           "FWC1 read differs from the dataset written in set-up");
    expect(ds.sessions().size() == f.sessions, "sessions read != sessions written");
  }
  expect(ds.requests().size() == f.records, "requests ingested != records written");
  expect(model.total_requests == ds.requests().size(),
         "model requests != ingested requests");
  expect(model.total_sessions == ds.sessions().size(),
         "model sessions != ingested sessions");
  expect(model.mb_transferred ==
             static_cast<double>(ds.total_bytes()) / (1024.0 * 1024.0),
         "model MB transferred != ingested bytes");
  checks.op(error.empty(), error);
}

void write_header(JsonWriter& w, const char* phase, const RunOptions& o,
                  const WorkloadSpec& spec) {
  w.field("phase", phase);
  w.field("workload", workload_name(o.workload));
  w.field("seed", static_cast<std::size_t>(o.seed));
  w.field("profile", spec.profile.name);
  w.field("scale", spec.scale);
  w.field("executor_width", spec.executor_width);
  w.key("build");
  write_build_stamp(w);
}

int run_setup(const RunOptions& o) {
  const WorkloadSpec spec = workload_spec(o.workload, o.scale);
  Fixture f;
  std::string error;
  std::uint64_t draw = 0;
  if (spec.stationary_sessions && !find_stationary_draw(spec, o, draw, error)) {
    std::fprintf(stderr, "perfbench setup: %s\n", error.c_str());
    return 1;
  }
  std::vector<double> times;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    const double start = now_s();
    const bool ok = spec.clf ? make_clf_fixture(spec, o, f, error)
                             : make_fwc_fixture(spec, o, draw, f, error);
    if (!ok) {
      std::fprintf(stderr, "perfbench setup: %s\n", error.c_str());
      return 1;
    }
    times.push_back(now_s() - start);
  }
  write_fixture(o.dir + "/fixture.json", f);

  JsonWriter w;
  w.begin_object();
  write_header(w, "setup", o, spec);
  w.key("setup_s");
  w.begin_array();
  for (double t : times) w.value(t);
  w.end_array();
  w.key("fixture");
  w.begin_object();
  w.field("input_bytes", static_cast<std::size_t>(f.input_bytes));
  w.field("lines", static_cast<std::size_t>(f.lines));
  w.field("injected_malformed", static_cast<std::size_t>(f.injected_malformed));
  w.field("records", static_cast<std::size_t>(f.records));
  w.field("sessions", static_cast<std::size_t>(f.sessions));
  w.field("redraws", static_cast<std::size_t>(f.redraws));
  w.end_object();
  w.end_object();
  return write_file(o.out, std::move(w).str() + "\n") ? 0 : 1;
}

}  // namespace perfbench
