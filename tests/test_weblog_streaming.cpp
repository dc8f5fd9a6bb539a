// Streaming ingest subsystem: chunked parallel CLF reader, incremental
// sessionizer, and Dataset::from_clf_stream — pinned bit-identical to the
// index-sort reference sessionizer at every thread count, with memory
// bounded by open sessions — and the redundant-replica merge, which is the
// same from_clf_stream call over interleaved files.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "sessionize_reference.h"
#include "support/executor.h"
#include "support/rng.h"
#include "synth/generator.h"
#include "temp_dir.h"
#include "weblog/clf.h"
#include "weblog/clf_reader.h"
#include "weblog/dataset.h"
#include "weblog/streaming_sessionizer.h"
#include "weblog_fixtures.h"

namespace fullweb::weblog {
namespace {

bool same_request(const Request& a, const Request& b) {
  return a.time == b.time && a.client == b.client && a.status == b.status &&
         a.bytes == b.bytes;
}

bool same_session(const Session& a, const Session& b) {
  return a.client == b.client && a.start == b.start && a.end == b.end &&
         a.requests == b.requests && a.bytes == b.bytes;
}

void expect_same_sessions(const std::vector<Session>& a,
                          const std::vector<Session>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_TRUE(same_session(a[i], b[i])) << "session " << i;
}

/// Datasets must agree field-for-field (bit-identical tables).
void expect_identical(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.requests().size(), b.requests().size());
  for (std::size_t i = 0; i < a.requests().size(); ++i)
    ASSERT_TRUE(same_request(a.requests()[i], b.requests()[i])) << "request " << i;
  ASSERT_EQ(a.sessions().size(), b.sessions().size());
  for (std::size_t i = 0; i < a.sessions().size(); ++i)
    ASSERT_TRUE(same_session(a.sessions()[i], b.sessions()[i])) << "session " << i;
  EXPECT_DOUBLE_EQ(a.t0(), b.t0());
  EXPECT_DOUBLE_EQ(a.t1(), b.t1());
  EXPECT_EQ(a.total_bytes(), b.total_bytes());
  EXPECT_EQ(a.distinct_clients(), b.distinct_clients());
}

class StreamingIngestTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const auto& p : files_) std::remove(p.c_str());
  }

  std::string write_file(const std::string& name,
                         const std::vector<std::string>& lines,
                         const char* eol = "\n") {
    const std::string path = test_support::temp_path("stream_" + name + ".log");
    std::ofstream os(path, std::ios::binary);
    for (const auto& l : lines) os << l << eol;
    files_.push_back(path);
    return path;
  }

  /// Synthetic ClarkNet traffic rendered as CLF lines, in time order.
  static std::vector<std::string> synthetic_lines(double duration, double scale) {
    support::Rng rng(42);
    synth::GeneratorOptions gen;
    gen.duration = duration;
    gen.scale = scale;
    auto workload =
        synth::generate_workload(synth::ServerProfile::clarknet(), gen, rng);
    EXPECT_TRUE(workload.ok());
    support::Rng rng2(43);
    std::vector<std::string> lines;
    for (const auto& e : synth::to_log_entries(workload.value(), rng2))
      lines.push_back(to_clf_line(e));
    return lines;
  }

  std::string write_synthetic(const std::string& name, double duration,
                              double scale) {
    return write_file(name, synthetic_lines(duration, scale));
  }

  std::vector<std::string> files_;
};

TEST_F(StreamingIngestTest, ReaderDeliversFileOrderAtAnyThreadCount) {
  const std::string path = write_synthetic("order", 4 * 3600.0, 0.1);

  auto read_all = [&](std::size_t threads, std::size_t chunk) {
    support::Executor ex(threads);
    ClfReaderOptions opts;
    opts.chunk_bytes = chunk;
    opts.executor = &ex;
    std::vector<LogEntry> entries;
    auto stats = read_clf_records(path, opts, [&](const ClfRecord& record) {
      entries.push_back(ClfLineParser::materialize(record));
    });
    EXPECT_TRUE(stats.ok());
    EXPECT_GT(stats.value().chunks, 1U);
    EXPECT_EQ(stats.value().parsed, entries.size());
    return entries;
  };

  const auto serial = read_all(1, 4096);
  const auto parallel = read_all(8, 4096);
  const auto parallel_big = read_all(8, 64 * 1024);
  ASSERT_EQ(serial.size(), parallel.size());
  ASSERT_EQ(serial.size(), parallel_big.size());
  ASSERT_GT(serial.size(), 100U);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].client, parallel[i].client) << i;
    ASSERT_EQ(serial[i].timestamp, parallel[i].timestamp) << i;
    ASSERT_EQ(serial[i].bytes, parallel[i].bytes) << i;
    ASSERT_EQ(serial[i].client, parallel_big[i].client) << i;
  }
}

TEST_F(StreamingIngestTest, FromClfStreamBitIdenticalToBatch) {
  const std::string path = write_synthetic("bitident", 6 * 3600.0, 0.15);

  // Batch reference: parse the file in order, intern, then from_requests;
  // its sessions are pinned to the index-sort reference sessionizer.
  auto batch = test_support::dataset_from_entries(
      "batch", test_support::read_clf_entries(path));
  ASSERT_TRUE(batch.ok());
  expect_same_sessions(batch.value().sessions(),
                       test_support::sessionize_reference(batch.value().requests()));

  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    support::Executor ex(threads);
    StreamIngestOptions opts;
    opts.reader.chunk_bytes = 8 * 1024;  // force many chunks
    opts.reader.executor = &ex;
    StreamIngestReport report;
    const std::vector<std::string> paths = {path};
    auto stream = Dataset::from_clf_stream("stream", paths, opts, &report);
    ASSERT_TRUE(stream.ok()) << "threads=" << threads;
    EXPECT_TRUE(report.sessionized_incrementally);
    expect_identical(batch.value(), stream.value());
  }
}

TEST_F(StreamingIngestTest, TraceLargerThanChunkBudgetStaysBounded) {
  // 4000 requests, but clients arrive one after another and go idle: with a
  // 60 s threshold at most 2 sessions are ever open, so the sessionizer's
  // working set must stay O(open sessions) even though the trace is orders
  // of magnitude larger than one chunk.
  std::vector<std::string> lines;
  LogEntry e;
  e.method = "GET";
  e.path = "/x";
  e.protocol = "HTTP/1.0";
  e.status = 200;
  e.bytes = 10;
  for (int c = 0; c < 400; ++c) {
    e.client = "client" + std::to_string(c);
    for (int i = 0; i < 10; ++i) {
      e.timestamp = 1073865600.0 + c * 100.0 + i * 5.0;
      lines.push_back(to_clf_line(e));
    }
  }
  const std::string path = write_file("bounded", lines);

  StreamIngestOptions opts;
  opts.sessionizer.threshold_seconds = 60.0;
  opts.reader.chunk_bytes = 4096;  // file is ~300 KB >> one chunk
  StreamIngestReport report;
  const std::vector<std::string> paths = {path};
  auto ds = Dataset::from_clf_stream("bounded", paths, opts, &report);
  ASSERT_TRUE(ds.ok());
  ASSERT_EQ(report.files.size(), 1U);
  EXPECT_GT(report.files[0].chunks, 10U);
  EXPECT_EQ(report.files[0].parsed, 4000U);
  EXPECT_EQ(ds.value().sessions().size(), 400U);
  EXPECT_TRUE(report.sessionized_incrementally);
  // The bounded-memory claim: the trace exceeds the chunk budget many times
  // over, yet at most two sessions (handover between consecutive clients)
  // were ever simultaneously open.
  EXPECT_LE(report.peak_open_sessions, 2U);
}

TEST_F(StreamingIngestTest, MalformedLinesCountedByReason) {
  const std::string good =
      "10.0.0.1 - - [12/Jan/2004:08:30:00 +0000] \"GET /a HTTP/1.0\" 200 1";
  const std::string path = write_file(
      "reasons",
      {
          good,
          "short",                                                        // missing fields
          "h - - not-a-stamp \"GET /\" 200 1",                            // bad timestamp
          "h - - [32/Jan/2004:08:30:00 +0000] \"GET /\" 200 1",           // out of range
          "h - - [12/Jan/2004:08:30:00 +0000] \"unterminated 200 1",      // bad request
          "h - - [12/Jan/2004:08:30:00 +0000] \"GET /\" xx 1",            // bad status
          "h - - [12/Jan/2004:08:30:00 +0000] \"GET /\" 200 -7",          // bad bytes
          good,
      });

  ClfReaderOptions opts;
  std::size_t delivered = 0;
  auto stats = read_clf_records(path, opts, [&](const ClfRecord&) { ++delivered; });
  ASSERT_TRUE(stats.ok());
  const IngestStats& s = stats.value();
  EXPECT_EQ(delivered, 2U);
  EXPECT_EQ(s.parsed, 2U);
  EXPECT_EQ(s.lines, 8U);
  EXPECT_EQ(s.malformed, 6U);
  auto count = [&](ClfParseReason r) {
    return s.malformed_by_reason[static_cast<std::size_t>(r)];
  };
  EXPECT_EQ(count(ClfParseReason::kMissingFields), 1U);
  EXPECT_EQ(count(ClfParseReason::kBadTimestamp), 2U);
  EXPECT_EQ(count(ClfParseReason::kBadRequest), 1U);
  EXPECT_EQ(count(ClfParseReason::kBadStatus), 1U);
  EXPECT_EQ(count(ClfParseReason::kBadBytes), 1U);
  EXPECT_FALSE(s.summary().empty());
}

TEST_F(StreamingIngestTest, UnsortedInputFallsBackToBatchSessionization) {
  LogEntry e;
  e.method = "GET";
  e.path = "/";
  e.status = 200;
  e.bytes = 1;
  std::vector<std::string> lines;
  for (const double t : {100.0, 40.0, 70.0, 10.0, 130.0}) {
    e.client = "c" + std::to_string(static_cast<int>(t) % 2);
    e.timestamp = 1073865600.0 + t;
    lines.push_back(to_clf_line(e));
  }
  const std::string path = write_file("unsorted", lines);

  StreamIngestReport report;
  const std::vector<std::string> paths = {path};
  auto stream = Dataset::from_clf_stream("s", paths, {}, &report);
  ASSERT_TRUE(stream.ok());
  EXPECT_FALSE(report.sessionized_incrementally);

  auto batch = test_support::dataset_from_entries(
      "b", test_support::read_clf_entries(path));
  ASSERT_TRUE(batch.ok());
  expect_identical(batch.value(), stream.value());
  expect_same_sessions(stream.value().sessions(),
                       test_support::sessionize_reference(batch.value().requests()));
}

TEST_F(StreamingIngestTest, OpenFailureRecordedPerFile) {
  const std::string good = write_synthetic("openfail", 3600.0, 0.1);
  const std::vector<std::string> paths = {"/nonexistent/dir/a.log", good};
  StreamIngestReport report;
  auto ds = Dataset::from_clf_stream("open", paths, {}, &report);
  ASSERT_TRUE(ds.ok());  // one readable file suffices
  ASSERT_EQ(report.files.size(), 2U);
  // An unopenable path is flagged, not reported as a silently empty parse.
  EXPECT_TRUE(report.files[0].open_failed);
  EXPECT_EQ(report.files[0].parsed, 0U);
  EXPECT_EQ(report.files[0].path, "/nonexistent/dir/a.log");
  EXPECT_NE(report.files[0].summary().find("OPEN FAILED"), std::string::npos);
  EXPECT_FALSE(report.files[1].open_failed);
  EXPECT_GT(report.files[1].parsed, 0U);

  const std::vector<std::string> all_bad = {"/nope/x.log", "/nope/y.log"};
  StreamIngestReport bad_report;
  EXPECT_FALSE(Dataset::from_clf_stream("none", all_bad, {}, &bad_report).ok());
  ASSERT_EQ(bad_report.files.size(), 2U);
  EXPECT_TRUE(bad_report.files[0].open_failed);
  EXPECT_TRUE(bad_report.files[1].open_failed);
}

TEST_F(StreamingIngestTest, MultiFileConcatenationMatchesSequentialBatch) {
  const std::string a = write_synthetic("multi_a", 2 * 3600.0, 0.1);
  // Second file continues after the first: concatenation stays in time
  // order, so the sessionizer runs incrementally across the file boundary.
  std::vector<LogEntry> entries = test_support::read_clf_entries(a);
  double last = entries.back().timestamp;
  std::vector<std::string> lines;
  LogEntry e;
  e.method = "GET";
  e.path = "/tail";
  e.status = 200;
  e.bytes = 77;
  for (int i = 0; i < 500; ++i) {
    e.client = "late" + std::to_string(i % 7);
    e.timestamp = last + 10.0 + i;
    lines.push_back(to_clf_line(e));
    entries.push_back(e);
  }
  const std::string b = write_file("multi_b", lines);

  auto batch = test_support::dataset_from_entries("batch", entries);
  ASSERT_TRUE(batch.ok());
  support::Executor ex(4);
  StreamIngestOptions opts;
  opts.reader.chunk_bytes = 8 * 1024;
  opts.reader.executor = &ex;
  StreamIngestReport report;
  const std::vector<std::string> paths = {a, b};
  auto stream = Dataset::from_clf_stream("stream", paths, opts, &report);
  ASSERT_TRUE(stream.ok());
  ASSERT_EQ(report.files.size(), 2U);
  EXPECT_TRUE(report.sessionized_incrementally);
  expect_identical(batch.value(), stream.value());
}

TEST_F(StreamingIngestTest, MissingTrailingNewlineAndCrlfHandled) {
  const std::string line1 =
      "10.0.0.1 - - [12/Jan/2004:08:30:00 +0000] \"GET /a HTTP/1.0\" 200 1";
  const std::string line2 =
      "10.0.0.2 - - [12/Jan/2004:08:30:05 +0000] \"GET /b HTTP/1.0\" 200 2";
  const std::string path = test_support::temp_path("stream_nonl.log");
  {
    std::ofstream os(path, std::ios::binary);
    os << line1 << "\r\n" << line2;  // CRLF + no trailing newline
  }
  files_.push_back(path);

  std::vector<LogEntry> entries;
  auto stats = read_clf_records(path, {}, [&](const ClfRecord& record) {
    entries.push_back(ClfLineParser::materialize(record));
  });
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().parsed, 2U);
  EXPECT_EQ(stats.value().malformed, 0U);
  ASSERT_EQ(entries.size(), 2U);
  EXPECT_EQ(entries[1].bytes, 2U);
}

// ---------------------------------------------------------------------------
// StreamingSessionizer unit behavior.

Request req(double time, std::uint32_t client, std::uint64_t bytes = 100) {
  Request r;
  r.time = time;
  r.client = client;
  r.bytes = bytes;
  return r;
}

TEST(StreamingSessionizer, MatchesBatchOnRandomizedSortedTraces) {
  // "Batch" is the index-sort reference sessionizer (tests/support).
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    for (const double threshold : {30.0, 300.0, 1800.0}) {
      support::Rng rng(seed);
      std::vector<Request> rs;
      for (int i = 0; i < 4000; ++i)
        rs.push_back(req(rng.uniform(0.0, 86400.0),
                         static_cast<std::uint32_t>(rng.below(150)),
                         rng.below(5000)));
      std::sort(rs.begin(), rs.end(),
                [](const Request& a, const Request& b) { return a.time < b.time; });

      SessionizerOptions opts;
      opts.threshold_seconds = threshold;
      const auto batch = test_support::sessionize_reference(rs, opts);

      StreamingSessionizer ss(opts);
      for (const auto& r : rs) ss.add(r);
      EXPECT_FALSE(ss.saw_unsorted());
      EXPECT_LE(ss.peak_open_sessions(), 150U);
      const auto streamed = ss.finish();

      ASSERT_EQ(batch.size(), streamed.size())
          << "seed=" << seed << " threshold=" << threshold;
      for (std::size_t i = 0; i < batch.size(); ++i)
        ASSERT_TRUE(same_session(batch[i], streamed[i]))
            << "seed=" << seed << " threshold=" << threshold << " i=" << i;
    }
  }
}

TEST(StreamingSessionizer, TakeClosedDrainsWithoutChangingTheTable) {
  support::Rng rng(9);
  std::vector<Request> rs;
  for (int i = 0; i < 2000; ++i)
    rs.push_back(req(i * 10.0, static_cast<std::uint32_t>(rng.below(20))));

  SessionizerOptions opts;
  opts.threshold_seconds = 50.0;
  const auto batch = test_support::sessionize_reference(rs, opts);

  StreamingSessionizer ss(opts);
  std::vector<Session> drained;
  for (std::size_t i = 0; i < rs.size(); ++i) {
    ss.add(rs[i]);
    if (i % 100 == 0) {
      for (auto& s : ss.take_closed()) drained.push_back(s);
      EXPECT_LE(ss.open_sessions(), 20U);
    }
  }
  for (auto& s : ss.finish()) drained.push_back(s);
  std::sort(drained.begin(), drained.end(), session_order);
  ASSERT_EQ(drained.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i)
    ASSERT_TRUE(same_session(batch[i], drained[i])) << i;
}

TEST(StreamingSessionizer, FlagsOutOfOrderInput) {
  StreamingSessionizer ss;
  ss.add(req(100.0, 1));
  ss.add(req(100.0, 2));  // equal times are fine
  EXPECT_FALSE(ss.saw_unsorted());
  ss.add(req(50.0, 1));
  EXPECT_TRUE(ss.saw_unsorted());
}

TEST(StreamingSessionizer, PeakTracksSimultaneouslyOpenSessions) {
  SessionizerOptions opts;
  opts.threshold_seconds = 10.0;
  StreamingSessionizer ss(opts);
  for (std::uint32_t c = 0; c < 5; ++c) ss.add(req(0.0, c));
  EXPECT_EQ(ss.open_sessions(), 5U);
  ss.add(req(100.0, 99));  // everything idle-evicted, one new
  EXPECT_EQ(ss.open_sessions(), 1U);
  EXPECT_EQ(ss.peak_open_sessions(), 5U);
  const auto table = ss.finish();
  EXPECT_EQ(table.size(), 6U);
}

TEST(StreamingSessionizer, ResetPeakReportsPerWindowMaxima) {
  SessionizerOptions opts;
  opts.threshold_seconds = 10.0;
  StreamingSessionizer ss(opts);
  for (std::uint32_t c = 0; c < 4; ++c) ss.add(req(0.0, c));
  EXPECT_EQ(ss.peak_open_sessions(), 4U);

  // New window while all four are (lazily) expired: the first event evicts
  // them, so the carried-over-but-dead sessions never inflate the peak.
  ss.reset_peak();
  EXPECT_EQ(ss.peak_open_sessions(), 0U);
  ss.add(req(100.0, 9));
  EXPECT_EQ(ss.peak_open_sessions(), 1U);

  // New window while one session is genuinely still open: extending it
  // counts it toward the restarted peak even though no insert happens.
  ss.reset_peak();
  ss.add(req(105.0, 9));
  EXPECT_EQ(ss.peak_open_sessions(), 1U);
  (void)ss.finish();
}

// Regression: IngestStats.peak_open_sessions used to record the stream-wide
// *cumulative* high-water mark after each file; a quiet second file far in
// the future inherited the first file's peak.
TEST_F(StreamingIngestTest, PeakOpenSessionsIsPerFile) {
  // File A: five clients interleaved (peak 5). File B: one client, more
  // than a session threshold later (peak 1).
  std::vector<std::string> a_lines, b_lines;
  for (int burst = 0; burst < 3; ++burst)
    for (int c = 0; c < 5; ++c) {
      LogEntry e;
      e.timestamp = 1073865600.0 + burst * 60.0 + c;
      e.client = "10.0.0." + std::to_string(c);
      e.method = "GET";
      e.path = "/a";
      e.protocol = "HTTP/1.0";
      e.status = 200;
      e.bytes = 100;
      a_lines.push_back(to_clf_line(e));
    }
  for (int i = 0; i < 4; ++i) {
    LogEntry e;
    e.timestamp = 1073865600.0 + 10000.0 + i * 10.0;  // > 1800 s later
    e.client = "10.0.1.1";
    e.method = "GET";
    e.path = "/b";
    e.protocol = "HTTP/1.0";
    e.status = 200;
    e.bytes = 100;
    b_lines.push_back(to_clf_line(e));
  }
  const std::string file_a = write_file("peak_a", a_lines);
  const std::string file_b = write_file("peak_b", b_lines);

  const std::vector<std::string> paths = {file_a, file_b};
  StreamIngestReport report;
  auto ds = Dataset::from_clf_stream("peak", paths, {}, &report);
  ASSERT_TRUE(ds.ok());
  ASSERT_EQ(report.files.size(), 2U);
  EXPECT_EQ(report.files[0].peak_open_sessions, 5U);
  EXPECT_EQ(report.files[1].peak_open_sessions, 1U);  // was 5 before the fix
  EXPECT_EQ(report.peak_open_sessions, 5U);  // stream-wide max unchanged
}

// IngestStats::summary(): the open-failed path must not format-and-discard,
// and the success path must name the file it summarizes.
TEST(IngestStatsSummary, IncludesPathAndEarlyReturnsOnOpenFailure) {
  IngestStats ok_stats;
  ok_stats.path = "/var/log/server/access.log";
  ok_stats.bytes = 1024;
  ok_stats.lines = 10;
  ok_stats.parsed = 9;
  ok_stats.malformed = 1;
  const std::string s = ok_stats.summary();
  EXPECT_NE(s.find("/var/log/server/access.log: "), std::string::npos);
  EXPECT_NE(s.find("parsed=9"), std::string::npos);

  IngestStats no_path;  // pathless stats still format cleanly
  no_path.parsed = 3;
  EXPECT_EQ(no_path.summary().find(": "), std::string::npos);

  IngestStats failed;
  failed.path = "/gone.log";
  failed.open_failed = true;
  EXPECT_EQ(failed.summary(), "/gone.log: OPEN FAILED");
}

// An on_record callback that throws mid-drain must not abandon queued parse
// tasks: the reader's scope guard drains (discarding results) so the
// executor is quiescent and reusable after the exception escapes.
TEST_F(StreamingIngestTest, ThrowingCallbackLeavesExecutorReusable) {
  const std::string path = write_synthetic("throwing", 4 * 3600.0, 0.1);
  support::Executor ex(8);
  ClfReaderOptions opts;
  opts.chunk_bytes = 4096;  // many chunks => several futures in flight
  opts.executor = &ex;

  std::size_t clean_count = 0;
  auto clean = read_clf_records(path, opts,
                                [&](const ClfRecord&) { ++clean_count; });
  ASSERT_TRUE(clean.ok());
  ASSERT_GT(clean.value().chunks, 4U);

  struct Boom : std::runtime_error {
    Boom() : std::runtime_error("boom") {}
  };
  std::size_t seen = 0;
  EXPECT_THROW(
      {
        auto r = read_clf_records(path, opts, [&](const ClfRecord&) {
          if (++seen == 10) throw Boom();
        });
        (void)r;
      },
      Boom);
  EXPECT_EQ(seen, 10U);

  // The pool must still work and deliver identical results afterwards.
  std::size_t after_count = 0;
  auto after = read_clf_records(path, opts,
                                [&](const ClfRecord&) { ++after_count; });
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after_count, clean_count);
  EXPECT_EQ(after.value().parsed, clean.value().parsed);
}

// ---------------------------------------------------------------------------
// Redundant-replica logs — the paper's Figure 1 "merge the replica logs"
// step. Interleaved files go through the same from_clf_stream call as one
// file: the concatenation is out of order, so the sorted request table is
// sessionized again (sort-then-stream).

std::string replica_line(double offset, const std::string& client) {
  LogEntry e;
  e.timestamp = 1073865600.0 + offset;
  e.client = client;
  e.method = "GET";
  e.path = "/";
  e.status = 200;
  e.bytes = 1;
  return to_clf_line(e);
}

TEST_F(StreamingIngestTest, ReplicaSessionsReuniteAcrossFiles) {
  // The reason Figure 1 merges first: one client alternating between two
  // replicas must form ONE session, not two.
  const std::string a =
      write_file("replica_a", {replica_line(0, "u"), replica_line(120, "u")});
  const std::string b =
      write_file("replica_b", {replica_line(60, "u"), replica_line(180, "u")});
  const std::vector<std::string> paths = {a, b};
  StreamIngestReport report;
  auto ds = Dataset::from_clf_stream("merged", paths, {}, &report);
  ASSERT_TRUE(ds.ok());
  EXPECT_FALSE(report.sessionized_incrementally);
  ASSERT_EQ(ds.value().sessions().size(), 1U);
  EXPECT_EQ(ds.value().sessions().front().requests, 4U);
  EXPECT_DOUBLE_EQ(ds.value().sessions().front().length(), 180.0);
}

TEST_F(StreamingIngestTest, ReplicaEmptyReadableFileIsNotAnOpenFailure) {
  const std::string empty = write_file("replica_empty", {});
  const std::string b = write_file("replica_d", {replica_line(1000, "c")});
  const std::vector<std::string> paths = {empty, b};
  StreamIngestReport report;
  auto ds = Dataset::from_clf_stream("merged", paths, {}, &report);
  ASSERT_TRUE(ds.ok());
  ASSERT_EQ(report.files.size(), 2U);
  EXPECT_FALSE(report.files[0].open_failed);
  EXPECT_EQ(report.files[0].parsed, 0U);
  EXPECT_EQ(report.files[0].lines, 0U);
  EXPECT_EQ(report.files[1].parsed, 1U);
}

TEST_F(StreamingIngestTest, ReplicaPerFileParsedAndMalformedCounts) {
  const std::string a = write_file(
      "replica_e", {replica_line(1000, "x"), "garbage line",
                    replica_line(3000, "y")});
  const std::string b = write_file(
      "replica_f", {"short", replica_line(2000, "z"),
                    "h - - [12/Jan/2004:08:30:00 +0000] \"GET /\" xx 1"});
  const std::vector<std::string> paths = {a, b};
  StreamIngestReport report;
  auto ds = Dataset::from_clf_stream("merged", paths, {}, &report);
  ASSERT_TRUE(ds.ok());
  ASSERT_EQ(report.files.size(), 2U);
  EXPECT_EQ(report.files[0].parsed, 2U);
  EXPECT_EQ(report.files[0].malformed, 1U);
  EXPECT_EQ(report.files[1].parsed, 1U);
  EXPECT_EQ(report.files[1].malformed, 2U);
  // The request table is the chronological union of both files.
  ASSERT_EQ(ds.value().requests().size(), 3U);
  EXPECT_DOUBLE_EQ(ds.value().requests()[1].time, 1073865600.0 + 2000);
  EXPECT_EQ(ds.value().distinct_clients(), 3U);
}

TEST_F(StreamingIngestTest, InterleavedReplicasSortThenStreamMatchesMergedReference) {
  // Six hours of traffic dealt at random onto two replica logs, each still
  // in time order: the concatenation is out of order, so sessionization
  // takes the sort-then-stream fallback. The result must match merging the
  // two logs chronologically, interning in merged order and running the
  // index-sort reference sessionizer — up to client numbering, which
  // follows concatenation order in from_clf_stream.
  std::vector<std::string> lines_a, lines_b;
  support::Rng deal(17);
  for (auto& line : synthetic_lines(6 * 3600.0, 0.15))
    (deal.below(2) == 0 ? lines_a : lines_b).push_back(std::move(line));
  const std::string a = write_file("interleaved_a", lines_a);
  const std::string b = write_file("interleaved_b", lines_b);
  const std::vector<LogEntry> entries_a = test_support::read_clf_entries(a);
  const std::vector<LogEntry> entries_b = test_support::read_clf_entries(b);

  std::vector<LogEntry> merged = entries_a;
  merged.insert(merged.end(), entries_b.begin(), entries_b.end());
  std::stable_sort(merged.begin(), merged.end(),
                   [](const LogEntry& x, const LogEntry& y) {
                     return x.timestamp < y.timestamp;
                   });
  auto reference = test_support::dataset_from_entries("reference", merged);
  ASSERT_TRUE(reference.ok());
  const auto reference_sessions =
      test_support::sessionize_reference(reference.value().requests());

  // Client id -> client string, for each side's numbering.
  auto client_names = [](std::initializer_list<const std::vector<LogEntry>*> logs) {
    std::unordered_map<std::string, std::uint32_t> intern;
    std::vector<std::string> names;
    for (const auto* log : logs)
      for (const auto& e : *log)
        if (intern.emplace(e.client, static_cast<std::uint32_t>(names.size())).second)
          names.push_back(e.client);
    return names;
  };
  const auto stream_names = client_names({&entries_a, &entries_b});
  const auto reference_names = client_names({&merged});
  using Row = std::tuple<std::string, double, double, std::uint64_t, std::uint64_t>;
  auto rows = [](const std::vector<Session>& sessions,
                 const std::vector<std::string>& names) {
    std::vector<Row> out;
    for (const auto& s : sessions)
      out.emplace_back(names.at(s.client), s.start, s.end, s.requests, s.bytes);
    std::sort(out.begin(), out.end());
    return out;
  };
  const auto want = rows(reference_sessions, reference_names);
  ASSERT_GT(want.size(), 100U);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    support::Executor ex(threads);
    StreamIngestOptions opts;
    opts.reader.chunk_bytes = 8 * 1024;
    opts.reader.executor = &ex;
    StreamIngestReport report;
    const std::vector<std::string> paths = {a, b};
    auto stream = Dataset::from_clf_stream("stream", paths, opts, &report);
    ASSERT_TRUE(stream.ok()) << "threads=" << threads;
    EXPECT_FALSE(report.sessionized_incrementally);
    const Dataset& ds = stream.value();
    EXPECT_EQ(ds.requests().size(), merged.size());
    EXPECT_EQ(ds.distinct_clients(), reference.value().distinct_clients());
    EXPECT_EQ(ds.total_bytes(), reference.value().total_bytes());
    EXPECT_DOUBLE_EQ(ds.t0(), reference.value().t0());
    EXPECT_DOUBLE_EQ(ds.t1(), reference.value().t1());
    // Bit-identical to the reference sessionizer on its own request table,
    // and the same session multiset as the merged reference.
    expect_same_sessions(ds.sessions(),
                         test_support::sessionize_reference(ds.requests()));
    EXPECT_EQ(rows(ds.sessions(), stream_names), want) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace fullweb::weblog
