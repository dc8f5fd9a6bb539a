// Shared pieces of the perfbench binary: workload definitions, the fixture
// description handed from set-up to the measured phases, clocks, memory
// high-water marks, digests, and the build stamp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/json.h"
#include "synth/profile.h"

namespace perfbench {

enum class Workload { kWvuWeekClf, kNasaWeekFwc, kClarknetOnline };

/// Parses a workload name; false on an unknown one.
bool parse_workload(const std::string& name, Workload& out);
std::string workload_name(Workload w);

/// The fixed shape of each workload. Only the seed varies between runs.
struct WorkloadSpec {
  fullweb::synth::ServerProfile profile;
  double scale = 1.0;            ///< share of the profile's paper-scale week
  bool clf = true;               ///< input stored as CLF text (else FWC1)
  std::size_t malformed_every = 0;  ///< one malformed line per this many
                                    ///< (0 = none)
  std::size_t executor_width = 1;   ///< fit/ingest executor threads
  /// Keep only weeks whose session-arrival series passes KPSS, as the
  /// paper found for NASA-Pub2 (§5.1.1); set-up redraws other weeks.
  bool stationary_sessions = false;
};
WorkloadSpec workload_spec(Workload w, double scale_override);

/// Records between two OnlineAnalyzer::snapshot() calls in clarknet_online.
inline constexpr std::size_t kSnapshotEvery = 1000;

/// What set-up wrote, read back by the measured and traced phases.
struct Fixture {
  std::string input_path;        ///< CLF or FWC1 file
  std::uint64_t input_bytes = 0;
  std::uint64_t lines = 0;       ///< CLF lines written (0 for FWC1)
  std::uint64_t injected_malformed = 0;
  std::uint64_t records = 0;     ///< well-formed requests written
  std::uint64_t sessions = 0;    ///< FWC1 only: sessions stored
  std::uint64_t total_bytes = 0; ///< sum of transfer sizes written
  std::string tables_digest;     ///< FWC1 only: digest of the stored tables
  std::uint64_t redraws = 0;     ///< weeks set-up discarded
};
void write_fixture(const std::string& path, const Fixture& f);
/// Reads a fixture description; false (with a message) on a bad file.
bool read_fixture(const std::string& path, Fixture& f, std::string& error);

/// Seconds on the monotonic clock.
double now_s();
/// CPU seconds consumed by the whole process (all threads).
double process_cpu_s();

/// Returns freed heap to the OS and resets the kernel's resident-memory
/// high-water mark to the current RSS, so a following peak_rss_mib() covers
/// only what runs after it. False when the reset is not permitted (the
/// peak then covers the process lifetime).
bool reset_peak_rss();
/// VmHWM of this process in MiB.
double peak_rss_mib();

/// 64-bit FNV-1a, as 16 hex digits.
std::string digest(const std::string& bytes);

/// Appends the build/host stamp object (build type, compiler, SIMD tier,
/// nproc) under the writer's current key.
void write_build_stamp(fullweb::support::JsonWriter& w);
/// False for builds without NDEBUG (debug builds are never recorded).
bool optimized_build();

/// Failure bookkeeping shared by the phases: every mismatch is one failed
/// operation with a message.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  /// Counts one operation; records a failure when !ok.
  void op(bool ok, const std::string& what);
  /// Records a failure of an operation already counted.
  void fail(const std::string& what);
  void write(fullweb::support::JsonWriter& w) const;
};

/// Writes `doc` to `path`; false on an I/O error.
bool write_file(const std::string& path, const std::string& doc);

}  // namespace perfbench
