#include "weblog/sessionizer.h"

#include <algorithm>

#include "weblog/streaming_sessionizer.h"

namespace fullweb::weblog {

std::vector<Session> sessionize(std::span<const Request> requests,
                                const SessionizerOptions& options) {
  const auto by_time = [](const Request& a, const Request& b) {
    return a.time < b.time;
  };
  std::vector<Request> sorted;
  if (!std::is_sorted(requests.begin(), requests.end(), by_time)) {
    sorted.assign(requests.begin(), requests.end());
    std::sort(sorted.begin(), sorted.end(), by_time);
    requests = sorted;
  }
  StreamingSessionizer sessionizer(options);
  for (const Request& r : requests) sessionizer.add(r);
  return sessionizer.finish();
}

}  // namespace fullweb::weblog
