#include "weblog/dataset.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <string_view>
#include <unordered_map>

#include "timeseries/series.h"
#include "weblog/streaming_sessionizer.h"

namespace fullweb::weblog {

using support::Error;
using support::Result;

std::string to_string(Load load) {
  switch (load) {
    case Load::kLow: return "Low";
    case Load::kMed: return "Med";
    case Load::kHigh: return "High";
  }
  return "?";
}

Result<Dataset> Dataset::from_requests(std::string name,
                                       std::vector<Request> requests,
                                       const SessionizerOptions& sessionizer) {
  if (requests.empty()) return Error::insufficient_data("Dataset: no requests");
  Dataset ds;
  ds.name_ = std::move(name);
  ds.requests_ = std::move(requests);

  std::uint32_t max_client = 0;
  for (const auto& r : ds.requests_) max_client = std::max(max_client, r.client);
  // Distinct count via a presence bitmap (client ids are dense by contract).
  std::vector<bool> seen(static_cast<std::size_t>(max_client) + 1, false);
  std::size_t distinct = 0;
  for (const auto& r : ds.requests_) {
    if (!seen[r.client]) {
      seen[r.client] = true;
      ++distinct;
    }
  }
  ds.distinct_clients_ = distinct;
  ds.finalize(sessionizer);
  return ds;
}

void Dataset::sort_requests_and_total() {
  std::sort(requests_.begin(), requests_.end(),
            [](const Request& a, const Request& b) { return a.time < b.time; });
  total_bytes_ = 0;
  for (const auto& r : requests_) total_bytes_ += r.bytes;
  t0_ = std::floor(requests_.front().time);
  t1_ = std::floor(requests_.back().time) + 1.0;
}

void Dataset::finalize(const SessionizerOptions& sessionizer) {
  sort_requests_and_total();
  sessions_ = sessionize(requests_, sessionizer);
}

namespace {

/// Heterogeneous string hashing so client interning can probe by
/// string_view without constructing a std::string per line (C++20
/// transparent lookup; the std::string key is built only on first sight of
/// a client).
struct TransparentStringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
  std::size_t operator()(const std::string& s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

}  // namespace

Result<Dataset> Dataset::from_clf_stream(std::string name,
                                         std::span<const std::string> paths,
                                         const StreamIngestOptions& options,
                                         StreamIngestReport* report) {
  Dataset ds;
  ds.name_ = std::move(name);

  std::unordered_map<std::string, std::uint32_t, TransparentStringHash,
                     std::equal_to<>>
      intern;
  StreamingSessionizer sessionizer(options.sessionizer);
  StreamIngestReport local_report;
  StreamIngestReport& rep = report != nullptr ? *report : local_report;
  rep = StreamIngestReport{};

  // Interning follows delivery order and the compact Request is all we
  // keep; the zero-copy ClfRecord (whose views die with its parse chunk) is
  // never materialized into a LogEntry on this path.
  bool sorted = true;
  double prev_time = 0.0;
  auto on_record = [&](const ClfRecord& rec) {
    // A non-finite timestamp would poison everything downstream — the
    // time sort's strict weak ordering, t0/t1, the binned series — so the
    // record is dropped and counted rather than carried as a flag. The CLF
    // parser never emits one (timestamps are range-checked), but records
    // can also arrive through this path from non-parser producers.
    if (!std::isfinite(rec.timestamp)) {
      ++rep.invalid_time;
      return;
    }
    auto it = intern.find(rec.client);
    if (it == intern.end())
      it = intern
               .emplace(std::string(rec.client),
                        static_cast<std::uint32_t>(intern.size()))
               .first;
    const Request r{rec.timestamp, it->second,
                    static_cast<std::uint16_t>(std::clamp(rec.status, 0, 65535)),
                    rec.bytes};
    // Negated comparison: mirror of the StreamingSessionizer NaN guard —
    // kept even though NaN is filtered above, so the two unsorted
    // detectors can never disagree.
    if (!ds.requests_.empty() && !(r.time >= prev_time)) sorted = false;
    prev_time = r.time;
    ds.requests_.push_back(r);
    // Keep feeding even after a sort violation: peak accounting stays
    // meaningful and the flag decides whether the result is used.
    sessionizer.add(r);
  };

  std::size_t overall_peak = 0;
  for (const auto& path : paths) {
    // Per-file peak: restart the sessionizer's high-water mark so each
    // file reports the maximum open-session count reached *while it was
    // being ingested* (sessions still open from earlier files count — they
    // are open during this file too). The stream-wide peak is the max over
    // the per-file peaks, since every instant falls inside some file.
    sessionizer.reset_peak();
    auto stats = read_clf_records(path, options.reader, on_record);
    if (stats.ok()) {
      IngestStats s = std::move(stats).value();
      s.peak_open_sessions = sessionizer.peak_open_sessions();
      overall_peak = std::max(overall_peak, s.peak_open_sessions);
      rep.files.push_back(std::move(s));
    } else {
      IngestStats failed;
      failed.path = path;
      failed.open_failed = true;
      rep.files.push_back(std::move(failed));
    }
  }
  if (ds.requests_.empty())
    return Error::insufficient_data("Dataset::from_clf_stream: no entries");

  ds.distinct_clients_ = intern.size();
  rep.peak_open_sessions = overall_peak;
  rep.sessionized_incrementally = sorted && !sessionizer.saw_unsorted();

  ds.sort_requests_and_total();
  if (rep.sessionized_incrementally) {
    ds.sessions_ = sessionizer.finish();
  } else {
    // Out-of-order entry stream (interleaved replicas, say): incremental
    // eviction decisions are not trustworthy, so stream the now-sorted
    // table through a fresh sessionizer.
    ds.sessions_ = sessionize(ds.requests_, options.sessionizer);
  }
  return ds;
}

std::vector<double> Dataset::request_times() const {
  std::vector<double> t;
  t.reserve(requests_.size());
  for (const auto& r : requests_) t.push_back(r.time);
  return t;
}

std::vector<double> Dataset::session_start_times() const {
  std::vector<double> t;
  t.reserve(sessions_.size());
  for (const auto& s : sessions_) t.push_back(s.start);
  return t;
}

std::vector<double> Dataset::requests_per_second(double bin_seconds) const {
  return requests_per_second(t0_, t1_, bin_seconds);
}

std::vector<double> Dataset::sessions_per_second(double bin_seconds) const {
  return sessions_per_second(t0_, t1_, bin_seconds);
}

std::vector<double> Dataset::requests_per_second(double t0, double t1,
                                                 double bin_seconds) const {
  return timeseries::counts_per_bin(request_times(), t0, t1, bin_seconds);
}

std::vector<double> Dataset::sessions_per_second(double t0, double t1,
                                                 double bin_seconds) const {
  return timeseries::counts_per_bin(session_start_times(), t0, t1, bin_seconds);
}

namespace {

template <typename Extract>
std::vector<double> session_samples(const std::vector<Session>& sessions, double t0,
                                    double t1, Extract&& extract) {
  std::vector<double> out;
  for (const auto& s : sessions) {
    if (s.start >= t0 && s.start < t1) out.push_back(extract(s));
  }
  return out;
}

}  // namespace

std::vector<double> Dataset::session_lengths() const {
  return session_lengths(t0_, t1_);
}
std::vector<double> Dataset::session_request_counts() const {
  return session_request_counts(t0_, t1_);
}
std::vector<double> Dataset::session_byte_counts() const {
  return session_byte_counts(t0_, t1_);
}

std::vector<double> Dataset::session_lengths(double t0, double t1) const {
  return session_samples(sessions_, t0, t1,
                         [](const Session& s) { return s.length(); });
}

std::vector<double> Dataset::session_request_counts(double t0, double t1) const {
  return session_samples(sessions_, t0, t1, [](const Session& s) {
    return static_cast<double>(s.requests);
  });
}

std::vector<double> Dataset::session_byte_counts(double t0, double t1) const {
  return session_samples(sessions_, t0, t1, [](const Session& s) {
    return static_cast<double>(s.bytes);
  });
}

std::vector<Interval> Dataset::partition(double interval_seconds) const {
  return partition(t0_, t1_, interval_seconds);
}

std::vector<Interval> Dataset::partition(double t0, double t1,
                                         double interval_seconds) const {
  std::vector<Interval> out;
  if (!(interval_seconds > 0.0) || !(t1 > t0)) return out;
  // Interval boundaries live on the dataset's native grid (anchored at the
  // observation-window start), so a sub-window that starts off-grid gets a
  // clipped leading interval rather than a shifted grid.
  const double first_f = std::floor((t0 - t0_) / interval_seconds);
  const auto first = static_cast<std::ptrdiff_t>(first_f);
  const auto count = static_cast<std::size_t>(
      std::ceil((t1 - t0_) / interval_seconds) - first_f);
  out.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double grid_lo =
        t0_ + static_cast<double>(first + static_cast<std::ptrdiff_t>(i)) *
                  interval_seconds;
    out[i].index = static_cast<std::size_t>(std::max<std::ptrdiff_t>(
        0, first + static_cast<std::ptrdiff_t>(i)));
    out[i].t0 = std::max(t0, grid_lo);
    out[i].t1 = std::min(t1, grid_lo + interval_seconds);
  }
  const auto bucket = [&](double time) {
    return std::min(
        count - 1,
        static_cast<std::size_t>(std::max<std::ptrdiff_t>(
            0, static_cast<std::ptrdiff_t>((time - t0_) / interval_seconds) -
                   first)));
  };
  for (const auto& r : requests_) {
    if (r.time < t0 || r.time >= t1) continue;
    ++out[bucket(r.time)].request_count;
  }
  for (const auto& s : sessions_) {
    if (s.start < t0 || s.start >= t1) continue;
    ++out[bucket(s.start)].session_count;
  }
  return out;
}

Result<Interval> Dataset::pick(Load load, double interval_seconds) const {
  return pick(load, t0_, t1_, interval_seconds);
}

Result<Interval> Dataset::pick(Load load, double t0, double t1,
                               double interval_seconds) const {
  auto parts = partition(t0, t1, interval_seconds);
  if (parts.size() < 3)
    return Error::insufficient_data("Dataset::pick: fewer than 3 intervals");

  // Drop the first and the last interval if partial (boundary effects),
  // when enough intervals remain. The default whole-window partition is
  // grid-anchored so only its last interval can be partial; an explicitly
  // provided non-aligned window can clip the leading interval as well.
  const double full = interval_seconds * 0.999;
  const auto partial = [&](const Interval& iv) { return iv.t1 - iv.t0 < full; };
  if (parts.size() >= 5 && partial(parts.back())) parts.pop_back();
  if (parts.size() >= 5 && partial(parts.front())) parts.erase(parts.begin());

  std::sort(parts.begin(), parts.end(), [](const Interval& a, const Interval& b) {
    return a.request_count < b.request_count;
  });
  switch (load) {
    case Load::kLow: return parts.front();
    case Load::kMed: return parts[parts.size() / 2];
    case Load::kHigh: return parts.back();
  }
  return Error::invalid_argument("Dataset::pick: bad load class");
}

}  // namespace fullweb::weblog
