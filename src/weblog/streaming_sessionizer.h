// Sessionization with memory bounded by *open* sessions — the library's
// only sessionization algorithm (`sessionize()` feeds it a time-sorted
// table).
//
// For a time-ordered request stream the session decision is local: a
// client's open session either absorbs the next request (gap <= threshold)
// or is closed forever, because once `now - end > threshold` no later
// request can extend it. This class exploits that:
//
//  * Open sessions live in a hash map keyed by client id, and additionally
//    on an intrusive list ordered by last-activity time. Because input
//    times are non-decreasing, touching a session moves it to the back and
//    the list STAYS sorted — eviction is "pop expired sessions off the
//    front", O(1) amortized per request.
//  * Peak memory is O(peak concurrently-open sessions), not O(total
//    requests): an infinite-source arrival stream (Faÿ–Roueff–Soulier) can
//    be sessionized in constant space per active user.
//  * finish() closes the remainder and returns the table in the canonical
//    `session_order`.
//
// Contract: feed requests in non-decreasing time order. Out-of-order input
// is detected and flagged (`saw_unsorted()`); results are then unreliable
// and the caller must time-sort and feed the requests again, which is what
// `sessionize()` does (Dataset::from_clf_stream falls back to it).
#pragma once

#include <cstddef>
#include <list>
#include <unordered_map>
#include <vector>

#include "weblog/sessionizer.h"

namespace fullweb::weblog {

class StreamingSessionizer {
 public:
  explicit StreamingSessionizer(SessionizerOptions options = {})
      : options_(options) {}

  /// Feed the next request; times must be non-decreasing across calls.
  void add(const Request& r);

  /// Close every still-open session and return the accumulated table in
  /// canonical `session_order` (sessions already drained with take_closed()
  /// are not included). The sessionizer is reset and may be reused.
  [[nodiscard]] std::vector<Session> finish();

  /// Move out sessions that are already final (their client has been idle
  /// past the threshold). Lets a true streaming consumer drain output
  /// without accumulating the whole table; the order is eviction order
  /// (non-decreasing end time), NOT the canonical table order.
  [[nodiscard]] std::vector<Session> take_closed();

  [[nodiscard]] std::size_t open_sessions() const noexcept {
    return by_end_.size();
  }
  [[nodiscard]] std::size_t peak_open_sessions() const noexcept {
    return peak_open_;
  }
  /// Restart the high-water mark, so peak_open_sessions() afterwards
  /// reports the maximum open-session count observed at events fed after
  /// this call (0 when none are fed). Sessions carried over from before the
  /// restart count as soon as a subsequent event shows them still open;
  /// sessions that lazy eviction has not yet retired but whose threshold
  /// already elapsed never inflate the new window's peak. Lets multi-file
  /// ingests report per-file peaks.
  void reset_peak() noexcept { peak_open_ = 0; }
  /// True once any request arrived with a timestamp below its predecessor.
  [[nodiscard]] bool saw_unsorted() const noexcept { return saw_unsorted_; }

 private:
  void evict_idle_before(double now);

  SessionizerOptions options_;
  std::list<Session> by_end_;  ///< open sessions, ascending last-activity
  std::unordered_map<std::uint32_t, std::list<Session>::iterator> open_;
  std::vector<Session> closed_;
  double last_time_ = -1.0;
  bool any_ = false;
  bool saw_unsorted_ = false;
  std::size_t peak_open_ = 0;
};

}  // namespace fullweb::weblog
