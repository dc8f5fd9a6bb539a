#include "weblog/merge.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "temp_dir.h"
#include "weblog/clf.h"
#include "weblog/dataset.h"

namespace fullweb::weblog {
namespace {

LogEntry entry(double time, const std::string& client) {
  LogEntry e;
  e.timestamp = time;
  e.client = client;
  e.method = "GET";
  e.path = "/";
  e.status = 200;
  e.bytes = 1;
  return e;
}

TEST(MergeEntries, ChronologicalUnion) {
  std::vector<std::vector<LogEntry>> logs;
  logs.push_back({entry(10, "a"), entry(30, "a")});
  logs.push_back({entry(20, "b"), entry(40, "b")});
  const auto merged = merge_entries(std::move(logs));
  ASSERT_EQ(merged.size(), 4U);
  for (std::size_t i = 1; i < merged.size(); ++i)
    EXPECT_LE(merged[i - 1].timestamp, merged[i].timestamp);
  EXPECT_EQ(merged[0].client, "a");
  EXPECT_EQ(merged[1].client, "b");
}

TEST(MergeEntries, StableOnTies) {
  // Replica 1's entry precedes replica 2's at the same timestamp.
  std::vector<std::vector<LogEntry>> logs;
  logs.push_back({entry(10, "replica1")});
  logs.push_back({entry(10, "replica2")});
  const auto merged = merge_entries(std::move(logs));
  ASSERT_EQ(merged.size(), 2U);
  EXPECT_EQ(merged[0].client, "replica1");
  EXPECT_EQ(merged[1].client, "replica2");
}

TEST(MergeEntries, EmptyInputs) {
  EXPECT_TRUE(merge_entries({}).empty());
  std::vector<std::vector<LogEntry>> logs(3);
  EXPECT_TRUE(merge_entries(std::move(logs)).empty());
}

TEST(MergeEntries, SessionsReuniteAcrossReplicas) {
  // The reason Figure 1 merges first: one client alternating between two
  // replicas must form ONE session, not two.
  std::vector<std::vector<LogEntry>> logs;
  logs.push_back({entry(0, "u"), entry(120, "u")});
  logs.push_back({entry(60, "u"), entry(180, "u")});
  auto merged = merge_entries(std::move(logs));
  auto ds = Dataset::from_entries("merged", merged);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds.value().sessions().size(), 1U);
  EXPECT_EQ(ds.value().sessions().front().requests, 4U);
}

class MergeFilesTest : public ::testing::Test {
 protected:
  void write_log(const std::string& path, std::initializer_list<double> times) {
    std::ofstream os(path);
    for (double t : times) os << to_clf_line(entry(t, "c")) << '\n';
    paths_.push_back(path);
  }
  void TearDown() override {
    for (const auto& p : paths_) std::remove(p.c_str());
  }
  std::vector<std::string> paths_;
};

TEST_F(MergeFilesTest, ParsesAndMergesMultipleFiles) {
  write_log(test_support::temp_path("merge_a.log"), {1000.0, 3000.0});
  write_log(test_support::temp_path("merge_b.log"), {2000.0});
  const auto r = merge_clf_files(paths_);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().entries.size(), 3U);
  EXPECT_EQ(r.value().files.size(), 2U);
  EXPECT_EQ(r.value().files[0].parsed, 2U);
  EXPECT_EQ(r.value().files[1].parsed, 1U);
  EXPECT_DOUBLE_EQ(r.value().entries[1].timestamp, 2000.0);
}

TEST_F(MergeFilesTest, UnreadableFileReportedNotFatal) {
  write_log(test_support::temp_path("merge_c.log"), {1000.0});
  paths_.push_back("/nonexistent/file.log");
  const auto r = merge_clf_files(paths_);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().entries.size(), 1U);
  ASSERT_EQ(r.value().files.size(), 2U);
  EXPECT_EQ(r.value().files[1].parsed, 0U);
  // Regression: an unopenable path must be flagged, not reported as a
  // silently-empty parse (parsed=0 malformed=0 with no error).
  EXPECT_TRUE(r.value().files[1].open_failed);
  EXPECT_FALSE(r.value().files[1].error.empty());
  EXPECT_FALSE(r.value().files[0].open_failed);
  EXPECT_TRUE(r.value().files[0].error.empty());
}

TEST_F(MergeFilesTest, EmptyReadableFileIsNotAnOpenFailure) {
  const std::string empty = test_support::temp_path("merge_empty.log");
  {
    std::ofstream os(empty);
  }
  paths_.push_back(empty);
  write_log(test_support::temp_path("merge_d.log"), {1000.0});
  const auto r = merge_clf_files(paths_);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().files.size(), 2U);
  EXPECT_FALSE(r.value().files[0].open_failed);
  EXPECT_EQ(r.value().files[0].parsed, 0U);
}

TEST_F(MergeFilesTest, AllUnreadableIsError) {
  const std::vector<std::string> paths = {"/nope/a.log", "/nope/b.log"};
  EXPECT_FALSE(merge_clf_files(paths).ok());
}

}  // namespace
}  // namespace fullweb::weblog
