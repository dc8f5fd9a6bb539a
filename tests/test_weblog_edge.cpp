// Failure-injection and boundary tests for the weblog substrate: the
// paper's NA/NS cases must degrade gracefully, never crash.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "core/tail_analysis.h"
#include "weblog/clf.h"
#include "weblog/dataset.h"
#include "weblog/sessionizer.h"
#include "weblog_fixtures.h"

namespace fullweb::weblog {
namespace {

LogEntry entry(double time, const std::string& client, std::uint64_t bytes) {
  LogEntry e;
  e.timestamp = time;
  e.client = client;
  e.method = "GET";
  e.path = "/";
  e.status = 200;
  e.bytes = bytes;
  return e;
}

TEST(DatasetEdge, SingleRequestDataset) {
  auto ds = test_support::dataset_from_entries(
      "one", std::vector<LogEntry>{entry(10, "a", 5)});
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds.value().sessions().size(), 1U);
  EXPECT_EQ(ds.value().requests_per_second().size(), 1U);
  EXPECT_FALSE(ds.value().pick(Load::kHigh).ok());  // too few intervals
}

TEST(DatasetEdge, AllRequestsSameSecond) {
  std::vector<LogEntry> entries;
  for (int i = 0; i < 50; ++i)
    entries.push_back(entry(100.0, "c" + std::to_string(i % 5), 1));
  auto ds = test_support::dataset_from_entries("burst", entries);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds.value().sessions().size(), 5U);
  const auto series = ds.value().requests_per_second();
  ASSERT_EQ(series.size(), 1U);
  EXPECT_DOUBLE_EQ(series[0], 50.0);
}

TEST(DatasetEdge, FractionalTimestampsBinCorrectly) {
  std::vector<LogEntry> entries = {entry(0.2, "a", 1), entry(0.9, "a", 1),
                                   entry(1.1, "b", 1)};
  auto ds = test_support::dataset_from_entries("frac", entries);
  ASSERT_TRUE(ds.ok());
  const auto series = ds.value().requests_per_second();
  ASSERT_EQ(series.size(), 2U);
  EXPECT_DOUBLE_EQ(series[0], 2.0);
  EXPECT_DOUBLE_EQ(series[1], 1.0);
}

TEST(DatasetEdge, InterleavedSessionWindowsCounted) {
  // Session starting inside the window but ending outside still counts for
  // the window it STARTED in (the paper's convention for interval tails).
  std::vector<LogEntry> entries = {
      entry(100, "a", 1), entry(1500, "a", 1), entry(2900, "a", 1),
      entry(50, "b", 1),
  };
  auto ds = test_support::dataset_from_entries("win", entries);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds.value().session_lengths(0.0, 200.0).size(), 2U);
  EXPECT_EQ(ds.value().session_lengths(200.0, 5000.0).size(), 0U);
}

TEST(SessionizerEdge, ManyClientsOneRequestEach) {
  std::vector<Request> requests;
  for (std::uint32_t c = 0; c < 1000; ++c)
    requests.push_back({static_cast<double>(c), c, 200, 1});
  const auto sessions = sessionize(requests);
  EXPECT_EQ(sessions.size(), 1000U);
  for (const auto& s : sessions) EXPECT_DOUBLE_EQ(s.length(), 0.0);
}

TEST(SessionizerEdge, ZeroThresholdSplitsEverything) {
  SessionizerOptions opts;
  opts.threshold_seconds = 0.0;
  const std::vector<Request> requests = {
      {0, 1, 200, 1}, {1, 1, 200, 1}, {1, 1, 200, 1}};
  const auto sessions = sessionize(requests, opts);
  // Gap of 0 <= threshold keeps same-second requests together; 0->1 splits.
  ASSERT_EQ(sessions.size(), 2U);
  EXPECT_EQ(sessions[1].requests, 2U);
}

TEST(ClfEdge, WhitespaceAndTabsInPath) {
  // Encoded spaces are fine; a literal quote inside the request ends it.
  const auto e = parse_clf_line(
      "h - - [12/Jan/2004:00:00:00 +0000] \"GET /a%20b.html HTTP/1.0\" 200 1");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e.value().path, "/a%20b.html");
}

TEST(ClfEdge, HugeByteCount) {
  const auto e = parse_clf_line(
      "h - - [12/Jan/2004:00:00:00 +0000] \"GET /big HTTP/1.0\" 200 4294967296");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e.value().bytes, 4294967296ULL);
}

TEST(ClfEdge, NegativeBytesRejected) {
  const auto e = parse_clf_line(
      "h - - [12/Jan/2004:00:00:00 +0000] \"GET / HTTP/1.0\" 200 -5");
  EXPECT_FALSE(e.ok());
}

TEST(ClfEdge, StatusBoundaries) {
  const auto e100 = parse_clf_line(
      "h - - [12/Jan/2004:00:00:00 +0000] \"GET / HTTP/1.0\" 100 0");
  ASSERT_TRUE(e100.ok());
  EXPECT_EQ(e100.value().status, 100);
  const auto e599 = parse_clf_line(
      "h - - [12/Jan/2004:00:00:00 +0000] \"GET / HTTP/1.0\" 599 0");
  ASSERT_TRUE(e599.ok());
  EXPECT_EQ(e599.value().status, 599);
}

TEST(ClfEdge, YearBoundaries) {
  // End-of-year wrap and a pre-2000 date.
  const auto nye = parse_clf_timestamp("[31/Dec/1999:23:59:59 +0000]");
  const auto y2k = parse_clf_timestamp("[01/Jan/2000:00:00:00 +0000]");
  ASSERT_TRUE(nye.ok());
  ASSERT_TRUE(y2k.ok());
  EXPECT_DOUBLE_EQ(y2k.value() - nye.value(), 1.0);
}

TEST(TailAnalysisEdge, AllZeroLengthsIsNA) {
  // Sessions with a single request have zero length; an interval where all
  // sessions are singletons must be NA, not a crash (log10 of 0 hazards).
  std::vector<double> zeros(500, 0.0);
  support::Rng rng(1);
  const auto t = core::analyze_tail(zeros, rng);
  EXPECT_FALSE(t.available);
}

TEST(TailAnalysisEdge, MixedZeroAndPositive) {
  std::vector<double> samples(300, 0.0);
  for (int i = 1; i <= 300; ++i) samples.push_back(10.0 * i);
  support::Rng rng(2);
  core::TailAnalysisOptions opts;
  opts.run_curvature = false;
  const auto t = core::analyze_tail(samples, rng, opts);
  EXPECT_TRUE(t.available);  // positive part analyzed
}


TEST(DatasetEdge, PartialTrailingIntervalDroppedFromPick) {
  // 4.5 "hours" of traffic with 1-hour intervals: the trailing 30-minute
  // interval is excluded from Low/Med/High selection (boundary effects),
  // so a burst there cannot be picked as High.
  std::vector<LogEntry> entries;
  for (int i = 0; i < 10; ++i)
    entries.push_back(entry(i * 300.0, "a" + std::to_string(i), 1));        // h0: 10
  for (int i = 0; i < 20; ++i)
    entries.push_back(entry(3600 + i * 150.0, "b" + std::to_string(i), 1)); // h1: 20
  for (int i = 0; i < 15; ++i)
    entries.push_back(entry(7200 + i * 200.0, "c" + std::to_string(i), 1)); // h2: 15
  for (int i = 0; i < 12; ++i)
    entries.push_back(entry(10800 + i * 250.0, "d" + std::to_string(i), 1)); // h3: 12
  for (int i = 0; i < 50; ++i)
    entries.push_back(entry(14400 + i * 30.0, "e" + std::to_string(i), 1));  // h4 (partial): 50
  auto ds = test_support::dataset_from_entries("partial", entries);
  ASSERT_TRUE(ds.ok());
  const auto high = ds.value().pick(weblog::Load::kHigh, 3600.0);
  ASSERT_TRUE(high.ok());
  EXPECT_EQ(high.value().request_count, 20U);  // h1, not the partial burst
}

}  // namespace
}  // namespace fullweb::weblog
