// The three phases of one benchmark run, each its own process so that the
// measured phases' memory high-water marks exclude set-up:
//
//   setup   — synthesize the workload's week from the seed and store it as
//             the workload's input file (CLF text or FWC1), several times;
//   measure — the untraced end-to-end loop through the public entry points;
//   trace   — one pass per layer through the layers' public functions,
//             called serially from here, for the per-layer metrics.
//
// Each phase writes one JSON document to RunOptions::out.
#pragma once

#include <cstdint>
#include <string>

#include "common.h"
#include "core/fullweb_model.h"
#include "online/analyzer.h"
#include "support/executor.h"
#include "support/result.h"
#include "weblog/dataset.h"

namespace perfbench {

struct RunOptions {
  Workload workload = Workload::kWvuWeekClf;
  std::uint64_t seed = 1;
  std::string dir;        ///< where set-up writes the input files
  std::string out;        ///< the phase's JSON document
  double seconds = 10.0;  ///< measured time (measure/trace)
  double scale = 0.0;     ///< > 0 overrides the workload's scale (tests)
};

int run_setup(const RunOptions& o);
int run_measure(const RunOptions& o);
int run_trace(const RunOptions& o);

/// Independent generator seeds derived from the workload seed, one per use.
enum class SeedUse : std::uint64_t {
  kGenerate = 1,
  kRender = 2,
  kInject = 3,
  kFit = 4,
  kOnline = 5,
};
std::uint64_t derived_seed(std::uint64_t seed, SeedUse use);

/// Digest over every field of the request and session tables.
std::string tables_digest(const fullweb::weblog::Dataset& ds);

/// Ingest the fixture the way a user opens that input: from_clf_stream for
/// CLF text (parsed on `ex`), from_columnar for FWC1.
fullweb::support::Result<fullweb::weblog::Dataset> ingest(
    const WorkloadSpec& spec, const Fixture& f, fullweb::support::Executor& ex,
    fullweb::weblog::StreamIngestReport* report);

/// Consistency of one ingest + fit against the fixture: line accounting,
/// injected-malformed count, stored tables, and model volumes. Adds one
/// operation to `checks`.
void check_ingest_and_model(const WorkloadSpec& spec, const Fixture& f,
                            const fullweb::weblog::Dataset& ds,
                            const fullweb::weblog::StreamIngestReport& report,
                            const fullweb::core::FullWebModel& model,
                            Checks& checks);

/// One closed-loop replay of the online workload: the CLF file streamed
/// through read_clf_records into a fresh OnlineAnalyzer, with snapshot()
/// every kSnapshotEvery records and once at the end. Each snapshot's
/// latency is appended to `snapshot_ms`.
struct Replay {
  std::string error;  ///< set when the file could not be read
  fullweb::weblog::IngestStats stats;
  fullweb::online::OnlineSnapshot final_snapshot;
  std::size_t fed = 0;        ///< records passed to add()
  std::size_t snapshots = 0;  ///< snapshots taken, the final one included
  std::size_t miscounted_snapshots = 0;  ///< record count != records fed
};
Replay replay_online(const std::string& path, std::uint64_t seed,
                     std::vector<double>& snapshot_ms);

/// Writes the fields every phase document starts with.
void write_header(fullweb::support::JsonWriter& w, const char* phase,
                  const RunOptions& o, const WorkloadSpec& spec);

}  // namespace perfbench
