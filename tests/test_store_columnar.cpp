// Columnar store: bit-identical round-trip and strict corruption rejection.
#include "store/columnar.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "support/rng.h"
#include "synth/generator.h"
#include "synth/profile.h"
#include "temp_dir.h"
#include "weblog/dataset.h"

namespace {

using fullweb::store::kColumnarMagic;
using fullweb::weblog::Dataset;
using fullweb::weblog::Request;
using fullweb::weblog::Session;

std::string temp_path(const std::string& tag) {
  return fullweb::test_support::temp_path("columnar_" + tag + ".fwc");
}

/// Bitwise double equality: NaN-safe and distinguishes -0.0 from +0.0,
/// which operator== would not.
bool same_bits(double a, double b) {
  std::uint64_t ba, bb;
  std::memcpy(&ba, &a, sizeof ba);
  std::memcpy(&bb, &b, sizeof bb);
  return ba == bb;
}

void expect_bit_identical(const Dataset& a, const Dataset& b) {
  EXPECT_EQ(a.name(), b.name());
  EXPECT_TRUE(same_bits(a.t0(), b.t0()));
  EXPECT_TRUE(same_bits(a.t1(), b.t1()));
  EXPECT_EQ(a.total_bytes(), b.total_bytes());
  EXPECT_EQ(a.distinct_clients(), b.distinct_clients());
  ASSERT_EQ(a.requests().size(), b.requests().size());
  for (std::size_t i = 0; i < a.requests().size(); ++i) {
    const Request& ra = a.requests()[i];
    const Request& rb = b.requests()[i];
    ASSERT_TRUE(same_bits(ra.time, rb.time)) << "request " << i;
    ASSERT_EQ(ra.client, rb.client) << "request " << i;
    ASSERT_EQ(ra.status, rb.status) << "request " << i;
    ASSERT_EQ(ra.bytes, rb.bytes) << "request " << i;
  }
  ASSERT_EQ(a.sessions().size(), b.sessions().size());
  for (std::size_t i = 0; i < a.sessions().size(); ++i) {
    const Session& sa = a.sessions()[i];
    const Session& sb = b.sessions()[i];
    ASSERT_TRUE(same_bits(sa.start, sb.start)) << "session " << i;
    ASSERT_TRUE(same_bits(sa.end, sb.end)) << "session " << i;
    ASSERT_EQ(sa.client, sb.client) << "session " << i;
    ASSERT_EQ(sa.requests, sb.requests) << "session " << i;
    ASSERT_EQ(sa.bytes, sb.bytes) << "session " << i;
  }
}

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(is),
                                   std::istreambuf_iterator<char>());
}

void dump(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
}

TEST(StoreColumnar, RoundTripsSyntheticWorkloadBitIdentically) {
  fullweb::support::Rng rng(20260808);
  fullweb::synth::GeneratorOptions opt;
  opt.duration = 6.0 * 3600.0;
  opt.scale = 0.05;
  auto ds = fullweb::synth::generate_dataset(
      fullweb::synth::ServerProfile::csee(), opt, rng);
  ASSERT_TRUE(ds.ok()) << ds.error().message;

  const std::string path = temp_path("synth");
  auto written = ds.value().to_columnar(path);
  ASSERT_TRUE(written.ok()) << written.error().message;
  EXPECT_GT(written.value(), 0u);

  auto back = Dataset::from_columnar(path);
  ASSERT_TRUE(back.ok()) << back.error().message;
  expect_bit_identical(ds.value(), back.value());
  std::remove(path.c_str());
}

TEST(StoreColumnar, RoundTripsAdversarialValuesBitIdentically) {
  // Exercises the order-preserving key transform and varint widths:
  // negative and fractional times, sub-second spacing, zero and huge byte
  // counts, many distinct statuses, client-id extremes.
  fullweb::support::Rng rng(99);
  std::vector<Request> reqs;
  double t = -12345.678;
  const std::uint16_t statuses[] = {0, 200, 204, 301, 304, 403, 404,
                                    500, 503, 599, 65535};
  for (int i = 0; i < 4000; ++i) {
    Request r;
    r.time = t;
    t += rng.uniform() < 0.3 ? 0.0 : rng.uniform() * 2.5;
    r.client = (i % 17 == 0) ? 0xffffffffu : static_cast<std::uint32_t>(i % 97);
    r.status = statuses[static_cast<std::size_t>(i) % std::size(statuses)];
    r.bytes = (i % 13 == 0) ? 0
              : (i % 29 == 0)
                  ? 0xffffffffffffull
                  : static_cast<std::uint64_t>(rng.uniform() * 1.0e6);
    reqs.push_back(r);
  }
  auto ds = Dataset::from_requests("edge/случай", std::move(reqs));
  ASSERT_TRUE(ds.ok()) << ds.error().message;

  const std::string path = temp_path("edge");
  auto written = ds.value().to_columnar(path);
  ASSERT_TRUE(written.ok()) << written.error().message;

  auto back = Dataset::from_columnar(path);
  ASSERT_TRUE(back.ok()) << back.error().message;
  expect_bit_identical(ds.value(), back.value());

  // The read path must feed analyses identically: spot-check a derived
  // series rather than only the raw tables.
  EXPECT_EQ(ds.value().requests_per_second(),
            back.value().requests_per_second());
  EXPECT_EQ(ds.value().session_lengths(), back.value().session_lengths());
  std::remove(path.c_str());
}

TEST(StoreColumnar, CompressesSortedSecondQuantizedTimes) {
  // Seconds-quantized epoch timestamps must cost far less than raw f64:
  // the delta+varint column is the point of the format.
  fullweb::support::Rng rng(7);
  std::vector<Request> reqs;
  double t = 1073865600.0;
  for (int i = 0; i < 20000; ++i) {
    t += static_cast<double>(rng.uniform() < 0.7 ? 0 : 1 + (i % 3));
    reqs.push_back(Request{t, static_cast<std::uint32_t>(i % 400), 200,
                           static_cast<std::uint64_t>(500 + i % 9000)});
  }
  auto ds = Dataset::from_requests("quantized", std::move(reqs));
  ASSERT_TRUE(ds.ok());

  const std::string path = temp_path("quant");
  auto info = fullweb::store::write_columnar(ds.value(), path);
  ASSERT_TRUE(info.ok()) << info.error().message;
  for (const auto& col : info.value().columns) {
    if (col.name == "req_time")
      EXPECT_LT(col.payload_bytes, 20000u * 3u)
          << "delta+varint should beat 8 bytes/timestamp by far";
  }
  auto back = fullweb::store::read_columnar(path);
  ASSERT_TRUE(back.ok()) << back.error().message;
  expect_bit_identical(ds.value(), back.value());
  std::remove(path.c_str());
}

class StoreColumnarCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    fullweb::support::Rng rng(5);
    std::vector<Request> reqs;
    for (int i = 0; i < 300; ++i)
      reqs.push_back(Request{1000.0 + i, static_cast<std::uint32_t>(i % 7),
                             static_cast<std::uint16_t>(i % 2 ? 200 : 404),
                             static_cast<std::uint64_t>(10 + i)});
    auto ds = Dataset::from_requests("corrupt-me", std::move(reqs));
    ASSERT_TRUE(ds.ok());
    path_ = temp_path("corrupt");
    ASSERT_TRUE(ds.value().to_columnar(path_).ok());
    bytes_ = slurp(path_);
    ASSERT_GT(bytes_.size(), 64u);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void expect_rejected(const std::vector<std::uint8_t>& tampered,
                       const std::string& what) {
    dump(path_, tampered);
    auto r = Dataset::from_columnar(path_);
    ASSERT_FALSE(r.ok()) << "accepted " << what;
    EXPECT_EQ(r.error().category, "parse") << what;
  }

  std::string path_;
  std::vector<std::uint8_t> bytes_;
};

TEST_F(StoreColumnarCorruption, RejectsBadMagic) {
  auto b = bytes_;
  b[0] ^= 0xff;
  expect_rejected(b, "bad magic");
}

TEST_F(StoreColumnarCorruption, RejectsUnsupportedVersion) {
  auto b = bytes_;
  b[4] = 99;  // version field
  expect_rejected(b, "future version");
}

TEST_F(StoreColumnarCorruption, RejectsTruncationAtEveryBoundary) {
  for (std::size_t keep :
       {std::size_t{3}, std::size_t{17}, std::size_t{63}, bytes_.size() / 2,
        bytes_.size() - 1}) {
    std::vector<std::uint8_t> b(bytes_.begin(),
                                bytes_.begin() + static_cast<long>(keep));
    expect_rejected(b, "truncation to " + std::to_string(keep));
  }
}

TEST_F(StoreColumnarCorruption, RejectsTamperedTotals) {
  auto b = bytes_;
  b[40] ^= 0x01;  // total_bytes (offset 4+4+8+8+8+8)
  expect_rejected(b, "tampered total_bytes");

  b = bytes_;
  b[48] ^= 0x01;  // distinct_clients
  expect_rejected(b, "tampered distinct_clients");
}

TEST_F(StoreColumnarCorruption, RejectsUnknownColumnId) {
  auto b = bytes_;
  // First column block starts right after the 64-byte fixed header plus
  // the name ("corrupt-me" = 10 bytes).
  const std::size_t first_block = 64 + 10;
  ASSERT_LT(first_block + 4, b.size());
  b[first_block] = 42;
  expect_rejected(b, "unknown column id");
}

TEST_F(StoreColumnarCorruption, RejectsTrailingGarbage) {
  auto b = bytes_;
  b.push_back(0xab);
  expect_rejected(b, "trailing garbage");
}

TEST_F(StoreColumnarCorruption, MissingFileIsIoError) {
  auto r = Dataset::from_columnar(temp_path("does_not_exist"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().category, "io");
}

TEST(StoreColumnar, ExtensionHeuristic) {
  EXPECT_TRUE(fullweb::store::has_columnar_extension("a/b/server1.fwc"));
  EXPECT_FALSE(fullweb::store::has_columnar_extension("a/b/server1.log"));
  EXPECT_FALSE(fullweb::store::has_columnar_extension(".fwc"));
  EXPECT_FALSE(fullweb::store::has_columnar_extension("fwc"));
}

}  // namespace
