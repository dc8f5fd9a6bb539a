#include "weblog/streaming_sessionizer.h"

#include <algorithm>

namespace fullweb::weblog {

void StreamingSessionizer::evict_idle_before(double now) {
  // The list is sorted by last-activity time, so every expired session sits
  // at the front. Strict '>': a gap EQUAL to the threshold still extends
  // the session.
  while (!by_end_.empty() &&
         now - by_end_.front().end > options_.threshold_seconds) {
    open_.erase(by_end_.front().client);
    closed_.push_back(by_end_.front());
    by_end_.pop_front();
  }
}

void StreamingSessionizer::add(const Request& r) {
  // Negated comparison so a NaN timestamp raises the unsorted flag instead
  // of slipping through (NaN < x is false for every x): a NaN would also
  // disable idle eviction below (now - end > threshold never holds), so the
  // incremental result must be marked untrustworthy, exactly like a
  // time regression.
  if (any_ && !(r.time >= last_time_)) saw_unsorted_ = true;
  any_ = true;
  last_time_ = r.time;

  evict_idle_before(r.time);

  auto it = open_.find(r.client);
  if (it != open_.end()) {
    // Still open after eviction ⇒ the gap is within the threshold: same
    // session. Move to the back; r.time >= every end in the list, so the
    // ordering invariant is preserved.
    Session& s = *it->second;
    s.end = r.time;
    s.requests += 1;
    s.bytes += r.bytes;
    by_end_.splice(by_end_.end(), by_end_, it->second);
  } else {
    by_end_.push_back(Session{r.client, r.time, r.time, 1, r.bytes});
    open_.emplace(r.client, std::prev(by_end_.end()));
  }
  // Sample the open count at every event, not just inserts (extends leave
  // the count unchanged, so this is equivalent for a fresh run): a peak
  // restarted mid-stream via reset_peak() must still count sessions carried
  // over from before the restart once an event shows them still open.
  peak_open_ = std::max(peak_open_, by_end_.size());
}

std::vector<Session> StreamingSessionizer::take_closed() {
  std::vector<Session> out;
  out.swap(closed_);
  return out;
}

std::vector<Session> StreamingSessionizer::finish() {
  for (const Session& s : by_end_) closed_.push_back(s);
  by_end_.clear();
  open_.clear();
  std::vector<Session> out;
  out.swap(closed_);
  std::sort(out.begin(), out.end(), session_order);
  last_time_ = -1.0;
  any_ = false;
  saw_unsorted_ = false;
  peak_open_ = 0;
  return out;
}

}  // namespace fullweb::weblog
