// The index-sort sessionizer, kept only as a test oracle.
//
// The library sessionizes with StreamingSessionizer (weblog::sessionize
// time-sorts and streams). This is the independent formulation it is pinned
// against: sort an index over every request by (client, time), walk each
// client's requests in order, and cut a session wherever a gap exceeds the
// threshold. O(n log n) time and O(n) extra memory.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "weblog/sessionizer.h"

namespace fullweb::test_support {

/// Index type used to address requests. Deliberately std::size_t (not
/// std::uint32_t): a uint32 index would silently wrap past 2^32 requests.
using RequestIndex = std::size_t;

/// Sessions of `requests` (in any order), in canonical `session_order`.
[[nodiscard]] std::vector<weblog::Session> sessionize_reference(
    std::span<const weblog::Request> requests,
    const weblog::SessionizerOptions& options = {});

}  // namespace fullweb::test_support
