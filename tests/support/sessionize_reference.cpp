#include "sessionize_reference.h"

#include <algorithm>
#include <numeric>

namespace fullweb::test_support {

using weblog::Request;
using weblog::Session;

std::vector<Session> sessionize_reference(std::span<const Request> requests,
                                          const weblog::SessionizerOptions& options) {
  std::vector<Session> sessions;
  if (requests.empty()) return sessions;

  // Sort an index array by (client, time) so each client's requests are
  // contiguous and chronological.
  std::vector<RequestIndex> order(requests.size());
  std::iota(order.begin(), order.end(), RequestIndex{0});
  std::sort(order.begin(), order.end(), [&](RequestIndex a, RequestIndex b) {
    if (requests[a].client != requests[b].client)
      return requests[a].client < requests[b].client;
    return requests[a].time < requests[b].time;
  });

  Session current;
  bool open = false;
  auto close = [&] {
    if (open) sessions.push_back(current);
    open = false;
  };

  for (RequestIndex idx : order) {
    const Request& r = requests[idx];
    const bool same_client = open && current.client == r.client;
    const bool within_gap =
        same_client && (r.time - current.end) <= options.threshold_seconds;
    if (!within_gap) {
      close();
      current = Session{r.client, r.time, r.time, 0, 0};
      open = true;
    }
    current.end = r.time;
    current.requests += 1;
    current.bytes += r.bytes;
  }
  close();

  std::sort(sessions.begin(), sessions.end(), weblog::session_order);
  return sessions;
}

}  // namespace fullweb::test_support
