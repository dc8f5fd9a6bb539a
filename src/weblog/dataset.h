// Dataset: the in-memory analogue of the paper's per-server database tables.
//
// Holds the time-sorted request records and the session table derived from
// them, provides the per-second counting series, the 42 x 4-hour interval
// partition of the observation week with Low/Med/High selection (§2), and
// the intra-session sample vectors consumed by the tail analyses (§5.2).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "support/result.h"
#include "weblog/clf_reader.h"
#include "weblog/sessionizer.h"

namespace fullweb::weblog {

/// Options for the streaming ingest path (Dataset::from_clf_stream).
struct StreamIngestOptions {
  SessionizerOptions sessionizer;
  ClfReaderOptions reader;
};

/// What the streaming ingest observed, beyond the Dataset itself.
struct StreamIngestReport {
  std::vector<IngestStats> files;     ///< one per input path, in order
                                      ///< (each carries its per-file peak)
  std::size_t peak_open_sessions = 0; ///< stream-wide sessionizer high-water
                                      ///< mark (max over per-file peaks)
  /// Records dropped for a non-finite timestamp (NaN/inf would corrupt the
  /// time sort and the [t0, t1) range); 0 on parser-produced streams.
  std::size_t invalid_time = 0;
  /// True when the concatenated entry stream was non-decreasing in time and
  /// the bounded-memory incremental sessionizer was used; false means the
  /// input was out of order (e.g. interleaved replica logs) and the sorted
  /// request table was sessionized again with sessionize() (results are
  /// identical either way).
  bool sessionized_incrementally = false;
};

/// One 4-hour (by default) analysis interval.
struct Interval {
  std::size_t index = 0;       ///< position within the observation window
  double t0 = 0.0;             ///< inclusive start (epoch seconds)
  double t1 = 0.0;             ///< exclusive end
  std::size_t request_count = 0;
  std::size_t session_count = 0;  ///< sessions *starting* in [t0, t1)
};

/// The paper's workload-intensity classes.
enum class Load { kLow, kMed, kHigh };
[[nodiscard]] std::string to_string(Load load);

class Dataset {
 public:
  /// Build directly from pre-interned requests (the synthetic path).
  static support::Result<Dataset> from_requests(
      std::string name, std::vector<Request> requests,
      const SessionizerOptions& sessionizer = {});

  /// The library's only CLF ingest: read CLF files chunk-by-chunk (parsed
  /// in parallel on the executor in options.reader), interning clients in
  /// delivery order and sessionizing incrementally, so peak transient
  /// memory is O(chunk budget + open sessions + the compact request table)
  /// — the raw text and per-line strings are never all resident. The
  /// request and session tables are bit-identical at any thread count.
  ///
  /// Paths are processed sequentially (concatenation order). Logs from
  /// redundant replicas that interleave in time (the paper's Figure 1
  /// "merge" step) need no separate merge: the concatenated stream is out
  /// of order, so the sorted request table is sessionized again with
  /// sessionize() and a client's requests on every replica fall into one
  /// session. Client ids follow concatenation order.
  /// Unreadable files are recorded in the report (open_failed) rather than
  /// failing the ingest; errors only when no file yields any entry.
  static support::Result<Dataset> from_clf_stream(
      std::string name, std::span<const std::string> paths,
      const StreamIngestOptions& options = {},
      StreamIngestReport* report = nullptr);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const std::vector<Request>& requests() const noexcept {
    return requests_;
  }
  [[nodiscard]] const std::vector<Session>& sessions() const noexcept {
    return sessions_;
  }
  [[nodiscard]] double t0() const noexcept { return t0_; }
  [[nodiscard]] double t1() const noexcept { return t1_; }
  [[nodiscard]] std::uint64_t total_bytes() const noexcept { return total_bytes_; }
  [[nodiscard]] std::size_t distinct_clients() const noexcept {
    return distinct_clients_;
  }

  /// Request / session-start timestamps (ascending).
  [[nodiscard]] std::vector<double> request_times() const;
  [[nodiscard]] std::vector<double> session_start_times() const;

  /// Per-second (or per-`bin_seconds`) counting series over [t0, t1) or a
  /// sub-window.
  [[nodiscard]] std::vector<double> requests_per_second(double bin_seconds = 1.0) const;
  [[nodiscard]] std::vector<double> sessions_per_second(double bin_seconds = 1.0) const;
  [[nodiscard]] std::vector<double> requests_per_second(double t0, double t1,
                                                        double bin_seconds) const;
  [[nodiscard]] std::vector<double> sessions_per_second(double t0, double t1,
                                                        double bin_seconds) const;

  /// Intra-session sample vectors (§5.2), over the whole window or only
  /// sessions starting within [t0, t1).
  [[nodiscard]] std::vector<double> session_lengths() const;
  [[nodiscard]] std::vector<double> session_request_counts() const;
  [[nodiscard]] std::vector<double> session_byte_counts() const;
  [[nodiscard]] std::vector<double> session_lengths(double t0, double t1) const;
  [[nodiscard]] std::vector<double> session_request_counts(double t0, double t1) const;
  [[nodiscard]] std::vector<double> session_byte_counts(double t0, double t1) const;

  /// Partition the window into consecutive intervals (default 4 h → 42 per
  /// week) with per-interval request/session counts.
  [[nodiscard]] std::vector<Interval> partition(double interval_seconds = 4.0 * 3600.0) const;

  /// Partition an explicitly-provided sub-window [t0, t1). Interval
  /// boundaries stay on the dataset's native grid (this->t0() + k *
  /// interval_seconds) and are clipped to the window, so a window that does
  /// not start or end on a boundary yields a partial first and/or last
  /// interval; `index` is the global grid index k, not the position within
  /// the window. Only requests/sessions inside [t0, t1) are counted.
  [[nodiscard]] std::vector<Interval> partition(double t0, double t1,
                                                double interval_seconds) const;

  /// The paper's typical Low (fewest requests), Med (median), High (most)
  /// interval selection over the partition. Partial first/last intervals
  /// (boundary effects) are dropped when enough intervals remain.
  [[nodiscard]] support::Result<Interval> pick(Load load,
                                               double interval_seconds = 4.0 * 3600.0) const;

  /// pick() over an explicitly-provided (possibly non-aligned) sub-window;
  /// both a partial leading and a partial trailing interval are dropped
  /// before the Low/Med/High selection, when enough intervals remain.
  [[nodiscard]] support::Result<Interval> pick(Load load, double t0, double t1,
                                               double interval_seconds) const;

  /// Binary columnar store round-trip (src/store/columnar.h has the format;
  /// these members are *defined* in fullweb_store — link it to use them).
  /// to_columnar serializes the request and session tables to `path` and
  /// returns the file size; from_columnar reloads them bit-identically,
  /// skipping CLF parsing, interning and sessionization entirely.
  [[nodiscard]] support::Result<std::uint64_t> to_columnar(
      const std::string& path) const;
  [[nodiscard]] static support::Result<Dataset> from_columnar(
      const std::string& path);

 private:
  Dataset() = default;
  void finalize(const SessionizerOptions& sessionizer);
  /// Sort requests_ by time and recompute totals/t0/t1 (no sessionization).
  void sort_requests_and_total();

  std::string name_;
  std::vector<Request> requests_;   ///< sorted by time
  std::vector<Session> sessions_;   ///< sorted by start
  double t0_ = 0.0;
  double t1_ = 0.0;
  std::uint64_t total_bytes_ = 0;
  std::size_t distinct_clients_ = 0;
};

}  // namespace fullweb::weblog
