#include "weblog/dataset.h"

#include <gtest/gtest.h>

#include <vector>

#include "support/rng.h"
#include "weblog/entry.h"
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

Dataset small_dataset() {
  std::vector<LogEntry> entries = {
      entry(100, "a", 10), entry(160, "a", 20), entry(100, "b", 5),
      entry(5000, "a", 30),  // a's second session (gap > 1800)
  };
  auto ds = test_support::dataset_from_entries("test", entries);
  EXPECT_TRUE(ds.ok());
  return std::move(ds).value();
}

TEST(Dataset, FromEntriesBasics) {
  const auto ds = small_dataset();
  EXPECT_EQ(ds.name(), "test");
  EXPECT_EQ(ds.requests().size(), 4U);
  EXPECT_EQ(ds.sessions().size(), 3U);
  EXPECT_EQ(ds.distinct_clients(), 2U);
  EXPECT_EQ(ds.total_bytes(), 65U);
  EXPECT_DOUBLE_EQ(ds.t0(), 100.0);
  EXPECT_DOUBLE_EQ(ds.t1(), 5001.0);
}

TEST(Dataset, EmptyEntriesError) {
  EXPECT_FALSE(
      test_support::dataset_from_entries("x", std::vector<LogEntry>{}).ok());
  EXPECT_FALSE(Dataset::from_requests("x", {}).ok());
}

TEST(Dataset, RequestTimesSorted) {
  const auto ds = small_dataset();
  const auto times = ds.request_times();
  ASSERT_EQ(times.size(), 4U);
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
}

TEST(Dataset, SessionStartTimes) {
  const auto ds = small_dataset();
  const auto starts = ds.session_start_times();
  ASSERT_EQ(starts.size(), 3U);
  EXPECT_DOUBLE_EQ(starts[0], 100.0);
  EXPECT_DOUBLE_EQ(starts[2], 5000.0);
}

TEST(Dataset, RequestsPerSecondSeries) {
  const auto ds = small_dataset();
  const auto series = ds.requests_per_second();
  ASSERT_EQ(series.size(), 4901U);  // [100, 5001)
  EXPECT_DOUBLE_EQ(series[0], 2.0);  // two requests at t=100
  double total = 0;
  for (double c : series) total += c;
  EXPECT_DOUBLE_EQ(total, 4.0);
}

TEST(Dataset, SessionSampleVectors) {
  const auto ds = small_dataset();
  const auto lengths = ds.session_lengths();
  const auto counts = ds.session_request_counts();
  const auto bytes = ds.session_byte_counts();
  ASSERT_EQ(lengths.size(), 3U);
  ASSERT_EQ(counts.size(), 3U);
  ASSERT_EQ(bytes.size(), 3U);
  // Session list is sorted by start: a(100-160), b(100), a(5000).
  EXPECT_DOUBLE_EQ(counts[0] + counts[1] + counts[2], 4.0);
  EXPECT_DOUBLE_EQ(bytes[0] + bytes[1] + bytes[2], 65.0);
}

TEST(Dataset, SessionWindowFiltering) {
  const auto ds = small_dataset();
  const auto early = ds.session_lengths(0.0, 1000.0);
  EXPECT_EQ(early.size(), 2U);
  const auto late = ds.session_lengths(4000.0, 6000.0);
  EXPECT_EQ(late.size(), 1U);
}

TEST(Dataset, PartitionCountsEvents) {
  std::vector<LogEntry> entries;
  // 10 requests in hour 0, 30 in hour 1, 20 in hour 2 (distinct clients so
  // sessions are easy to count).
  for (int i = 0; i < 10; ++i)
    entries.push_back(entry(i * 10.0, "a" + std::to_string(i), 1));
  for (int i = 0; i < 30; ++i)
    entries.push_back(entry(3600 + i * 10.0, "b" + std::to_string(i), 1));
  for (int i = 0; i < 20; ++i)
    entries.push_back(entry(7200 + i * 10.0, "c" + std::to_string(i), 1));
  auto ds = test_support::dataset_from_entries("p", entries);
  ASSERT_TRUE(ds.ok());

  const auto parts = ds.value().partition(3600.0);
  ASSERT_EQ(parts.size(), 3U);
  EXPECT_EQ(parts[0].request_count, 10U);
  EXPECT_EQ(parts[1].request_count, 30U);
  EXPECT_EQ(parts[2].request_count, 20U);
  EXPECT_EQ(parts[0].session_count, 10U);
}

TEST(Dataset, PickLowMedHigh) {
  std::vector<LogEntry> entries;
  for (int i = 0; i < 10; ++i)
    entries.push_back(entry(i * 10.0, "a" + std::to_string(i), 1));
  for (int i = 0; i < 30; ++i)
    entries.push_back(entry(3600 + i * 10.0, "b" + std::to_string(i), 1));
  for (int i = 0; i < 20; ++i)
    entries.push_back(entry(7200 + i * 10.0, "c" + std::to_string(i), 1));
  auto ds = test_support::dataset_from_entries("p", entries);
  ASSERT_TRUE(ds.ok());

  const auto low = ds.value().pick(Load::kLow, 3600.0);
  const auto med = ds.value().pick(Load::kMed, 3600.0);
  const auto high = ds.value().pick(Load::kHigh, 3600.0);
  ASSERT_TRUE(low.ok());
  ASSERT_TRUE(med.ok());
  ASSERT_TRUE(high.ok());
  EXPECT_EQ(low.value().request_count, 10U);
  EXPECT_EQ(med.value().request_count, 20U);
  EXPECT_EQ(high.value().request_count, 30U);
}

TEST(Dataset, PickErrorsWithTooFewIntervals) {
  const auto ds = small_dataset();  // spans ~82 minutes
  EXPECT_FALSE(ds.pick(Load::kLow, 4.0 * 3600.0).ok());
}

TEST(Dataset, WeekPartitionHas42FourHourIntervals) {
  std::vector<LogEntry> entries;
  entries.push_back(entry(0.0, "x", 1));
  entries.push_back(entry(7 * 86400.0 - 1.0, "y", 1));
  auto ds = test_support::dataset_from_entries("w", entries);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds.value().partition(4 * 3600.0).size(), 42U);
}

// Build 8 hours of traffic at t in [0, 8h) with a distinctive count per
// hour so Low/Med/High selections are unambiguous: hour h gets 10*(h+1)
// requests, except hour 0 which gets just 2 (the global minimum).
Dataset hourly_dataset() {
  std::vector<LogEntry> entries;
  int id = 0;
  auto add_hour = [&](int hour, int count) {
    for (int i = 0; i < count; ++i)
      entries.push_back(
          entry(hour * 3600.0 + i * 3.0, "c" + std::to_string(id++), 1));
  };
  add_hour(0, 2);
  for (int h = 1; h < 8; ++h) add_hour(h, 10 * (h + 1));
  auto ds = test_support::dataset_from_entries("hourly", entries);
  EXPECT_TRUE(ds.ok());
  return std::move(ds).value();
}

TEST(Dataset, ExplicitWindowPartitionClipsToNativeGrid) {
  const auto ds = hourly_dataset();
  // Window starts mid-hour-0 and ends mid-hour-6: the leading and trailing
  // intervals are partial, the five in between are full grid hours.
  const auto parts = ds.partition(1800.0, 6.5 * 3600.0, 3600.0);
  ASSERT_EQ(parts.size(), 7U);
  EXPECT_EQ(parts.front().index, 0U);
  EXPECT_DOUBLE_EQ(parts.front().t0, 1800.0);
  EXPECT_DOUBLE_EQ(parts.front().t1, 3600.0);  // clipped leading interval
  EXPECT_DOUBLE_EQ(parts.back().t0, 6 * 3600.0);
  EXPECT_DOUBLE_EQ(parts.back().t1, 6.5 * 3600.0);  // clipped trailing
  for (std::size_t i = 1; i + 1 < parts.size(); ++i) {
    EXPECT_DOUBLE_EQ(parts[i].t1 - parts[i].t0, 3600.0) << "interval " << i;
    EXPECT_EQ(parts[i].index, i);
  }
  // Hour 0 has 2 requests at t = 0, 3: none inside [1800, 3600).
  EXPECT_EQ(parts.front().request_count, 0U);
  // Hour 6's requests run t = 21600..21657, all inside [21600, 23400).
  EXPECT_EQ(parts.back().request_count, 70U);
  EXPECT_EQ(parts[1].request_count, 20U);  // hour 1
}

// Regression for the "drop the first and last interval if partial" comment:
// only the last was ever dropped. With a non-aligned explicit window the
// leading partial interval (here: empty, so it would win Low) must be
// dropped before the Low/Med/High selection.
TEST(Dataset, PickDropsPartialFirstIntervalInExplicitWindow) {
  const auto ds = hourly_dataset();
  // Window [0.5h, 6.5h): partial first (0 requests) and partial last (70
  // requests, the would-be maximum). Eligible full hours 1..5 carry
  // 20/30/40/50/60.
  const auto low = ds.pick(Load::kLow, 1800.0, 6.5 * 3600.0, 3600.0);
  const auto med = ds.pick(Load::kMed, 1800.0, 6.5 * 3600.0, 3600.0);
  const auto high = ds.pick(Load::kHigh, 1800.0, 6.5 * 3600.0, 3600.0);
  ASSERT_TRUE(low.ok());
  ASSERT_TRUE(med.ok());
  ASSERT_TRUE(high.ok());
  EXPECT_EQ(low.value().request_count, 20U);   // not the empty partial first
  EXPECT_EQ(med.value().request_count, 40U);
  EXPECT_EQ(high.value().request_count, 60U);  // not the partial last
}

// The default whole-window pick is grid-anchored, so its first interval is
// always full; behavior must be unchanged (only a partial *last* dropped).
TEST(Dataset, PickDefaultWindowUnchanged) {
  const auto ds = hourly_dataset();  // window ends mid-hour-7
  const auto low = ds.pick(Load::kLow, 3600.0);
  ASSERT_TRUE(low.ok());
  EXPECT_EQ(low.value().request_count, 2U);  // hour 0 is a full interval
  const auto high = ds.pick(Load::kHigh, 3600.0);
  ASSERT_TRUE(high.ok());
  // Hour 7 holds 80 requests but its interval is clipped at t1 (partial) and
  // dropped, exactly as before this fix; hour 6 wins.
  EXPECT_EQ(high.value().request_count, 70U);
}

TEST(LoadNames, Strings) {
  EXPECT_EQ(to_string(Load::kLow), "Low");
  EXPECT_EQ(to_string(Load::kMed), "Med");
  EXPECT_EQ(to_string(Load::kHigh), "High");
}

}  // namespace
}  // namespace fullweb::weblog
