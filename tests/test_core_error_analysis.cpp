#include "core/error_analysis.h"

#include <gtest/gtest.h>

#include <vector>

#include "synth/generator.h"
#include "weblog/dataset.h"
#include "weblog_fixtures.h"

namespace fullweb::core {
namespace {

weblog::LogEntry entry(double time, const std::string& client, int status) {
  weblog::LogEntry e;
  e.timestamp = time;
  e.client = client;
  e.method = "GET";
  e.path = "/";
  e.status = status;
  e.bytes = 100;
  return e;
}

TEST(ErrorAnalysis, StatusClassesCounted) {
  std::vector<weblog::LogEntry> entries = {
      entry(0, "a", 200), entry(1, "a", 200), entry(2, "a", 304),
      entry(3, "b", 404), entry(4, "b", 500), entry(5, "c", 101),
  };
  auto ds = test_support::dataset_from_entries("t", entries);
  ASSERT_TRUE(ds.ok());
  const auto r = analyze_errors(ds.value());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().statuses.by_class[1], 1U);
  EXPECT_EQ(r.value().statuses.by_class[2], 2U);
  EXPECT_EQ(r.value().statuses.by_class[3], 1U);
  EXPECT_EQ(r.value().statuses.by_class[4], 1U);
  EXPECT_EQ(r.value().statuses.by_class[5], 1U);
  EXPECT_EQ(r.value().statuses.errors(), 2U);
  EXPECT_EQ(r.value().statuses.total(), 6U);
  EXPECT_NEAR(r.value().request_error_rate, 2.0 / 6.0, 1e-12);
  EXPECT_NEAR(r.value().server_error_rate, 1.0 / 6.0, 1e-12);
}

TEST(ErrorAnalysis, SessionReliability) {
  // Client a: clean session. Client b: one session with two errors.
  // Client c: clean. Reliability = 2/3.
  std::vector<weblog::LogEntry> entries = {
      entry(0, "a", 200), entry(10, "a", 200),
      entry(0, "b", 404), entry(10, "b", 500), entry(20, "b", 200),
      entry(5, "c", 200),
  };
  auto ds = test_support::dataset_from_entries("t", entries);
  ASSERT_TRUE(ds.ok());
  const auto r = analyze_errors(ds.value());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().sessions, 3U);
  EXPECT_EQ(r.value().sessions_with_error, 1U);
  EXPECT_NEAR(r.value().session_reliability, 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(r.value().errors_per_bad_session, 2.0);
}

TEST(ErrorAnalysis, ErrorsAttributedToCorrectSessionOfClient) {
  // Client a has two sessions (gap > 30 min); the error is in the second.
  std::vector<weblog::LogEntry> entries = {
      entry(0, "a", 200), entry(60, "a", 200),
      entry(10000, "a", 404), entry(10060, "a", 200),
  };
  auto ds = test_support::dataset_from_entries("t", entries);
  ASSERT_TRUE(ds.ok());
  ASSERT_EQ(ds.value().sessions().size(), 2U);
  const auto r = analyze_errors(ds.value());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().sessions_with_error, 1U);
  EXPECT_NEAR(r.value().session_reliability, 0.5, 1e-12);
}

TEST(ErrorAnalysis, AllCleanIsFullyReliable) {
  std::vector<weblog::LogEntry> entries = {
      entry(0, "a", 200), entry(1, "b", 200), entry(2, "c", 304)};
  auto ds = test_support::dataset_from_entries("t", entries);
  ASSERT_TRUE(ds.ok());
  const auto r = analyze_errors(ds.value());
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value().session_reliability, 1.0);
  EXPECT_DOUBLE_EQ(r.value().request_error_rate, 0.0);
  EXPECT_DOUBLE_EQ(r.value().errors_per_bad_session, 0.0);
}

TEST(ErrorAnalysis, IntervalRatesTrackErrorBursts) {
  std::vector<weblog::LogEntry> entries;
  // First hour clean, second hour has a failure burst.
  for (int i = 0; i < 100; ++i)
    entries.push_back(entry(i * 30.0, "a" + std::to_string(i), 200));
  for (int i = 0; i < 100; ++i)
    entries.push_back(
        entry(3600 + i * 30.0, "b" + std::to_string(i), i < 50 ? 503 : 200));
  auto ds = test_support::dataset_from_entries("t", entries);
  ASSERT_TRUE(ds.ok());
  ErrorAnalysisOptions opts;
  opts.interval_seconds = 3600.0;
  const auto r = analyze_errors(ds.value(), opts);
  ASSERT_TRUE(r.ok());
  ASSERT_GE(r.value().interval_error_rates.size(), 2U);
  EXPECT_DOUBLE_EQ(r.value().interval_error_rates[0], 0.0);
  EXPECT_NEAR(r.value().interval_error_rates[1], 0.5, 1e-12);
}

TEST(ErrorAnalysis, SyntheticWorkloadHasPlausibleErrorMix) {
  support::Rng rng(1);
  synth::GeneratorOptions gen;
  gen.duration = 86400.0;
  auto ds = synth::generate_dataset(synth::ServerProfile::csee(), gen, rng);
  ASSERT_TRUE(ds.ok());
  const auto r = analyze_errors(ds.value());
  ASSERT_TRUE(r.ok());
  // Generator mix: ~3.5% 4xx + ~1% 5xx.
  EXPECT_NEAR(r.value().request_error_rate, 0.045, 0.01);
  EXPECT_GT(r.value().session_reliability, 0.5);
  EXPECT_LT(r.value().session_reliability, 0.99);
}

}  // namespace
}  // namespace fullweb::core
