// Sessionization: grouping requests into user sessions.
//
// Following §2 of the paper, a session is a sequence of requests from the
// same client (IP address) with gaps below a threshold; the paper adopts a
// 30-minute threshold (from the sensitivity study in [12]). Session
// boundaries are delimited by inactivity longer than the threshold.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace fullweb::weblog {

/// A compact request record (client strings are interned by Dataset).
struct Request {
  double time = 0.0;           ///< epoch seconds
  std::uint32_t client = 0;    ///< interned client id
  std::uint16_t status = 200;  ///< HTTP status (0 = unknown)
  std::uint64_t bytes = 0;     ///< response bytes (completed or partial)
};

struct Session {
  std::uint32_t client = 0;
  double start = 0.0;          ///< time of the first request
  double end = 0.0;            ///< time of the last request
  std::uint64_t requests = 0;  ///< session length in number of requests
  std::uint64_t bytes = 0;     ///< bytes transferred per session

  /// Session length in time units. A single-request session has length 0.
  [[nodiscard]] double length() const noexcept { return end - start; }
};

/// Canonical session-table ordering: by start time, ties broken by client
/// id (a client cannot open two sessions at the same instant, so this is a
/// total order on any real table). StreamingSessionizer::finish() sorts
/// with this comparator, so a table does not depend on how ties in the
/// input were ordered.
[[nodiscard]] inline bool session_order(const Session& a,
                                        const Session& b) noexcept {
  if (a.start != b.start) return a.start < b.start;
  return a.client < b.client;
}

struct SessionizerOptions {
  double threshold_seconds = 1800.0;  ///< 30 minutes, per the paper
};

/// Group requests into sessions. Requests need not be sorted: out-of-order
/// input is time-sorted into a copy first, then streamed through
/// StreamingSessionizer (time-sorted input streams with no copy). The
/// result is in canonical `session_order`.
[[nodiscard]] std::vector<Session> sessionize(std::span<const Request> requests,
                                              const SessionizerOptions& options = {});

}  // namespace fullweb::weblog
