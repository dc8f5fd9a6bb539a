#include "weblog_fixtures.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

namespace fullweb::test_support {

support::Result<weblog::Dataset> dataset_from_entries(
    std::string name, std::span<const weblog::LogEntry> entries,
    const weblog::SessionizerOptions& sessionizer) {
  std::unordered_map<std::string, std::uint32_t> intern;
  std::vector<weblog::Request> requests;
  requests.reserve(entries.size());
  for (const auto& e : entries) {
    const auto [it, inserted] =
        intern.emplace(e.client, static_cast<std::uint32_t>(intern.size()));
    requests.push_back(weblog::Request{
        e.timestamp, it->second,
        static_cast<std::uint16_t>(std::clamp(e.status, 0, 65535)), e.bytes});
  }
  return weblog::Dataset::from_requests(std::move(name), std::move(requests),
                                        sessionizer);
}

std::vector<weblog::LogEntry> read_clf_entries(
    const std::string& path, const weblog::ClfReaderOptions& options) {
  std::vector<weblog::LogEntry> entries;
  const auto stats = weblog::read_clf_records(
      path, options, [&](const weblog::ClfRecord& record) {
        entries.push_back(weblog::ClfLineParser::materialize(record));
      });
  if (!stats.ok()) throw std::runtime_error("cannot read " + path);
  return entries;
}

}  // namespace fullweb::test_support
