#include "synth/profile_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "temp_dir.h"

namespace fullweb::synth {
namespace {

TEST(ProfileIo, TextRoundTripPreservesEveryField) {
  const ServerProfile original = ServerProfile::wvu();
  const auto parsed = profile_from_text(profile_to_text(original));
  ASSERT_TRUE(parsed.ok());
  const ServerProfile& p = parsed.value();
  EXPECT_EQ(p.name, original.name);
  EXPECT_DOUBLE_EQ(p.week_sessions, original.week_sessions);
  EXPECT_DOUBLE_EQ(p.requests_mean, original.requests_mean);
  EXPECT_DOUBLE_EQ(p.hurst, original.hurst);
  EXPECT_DOUBLE_EQ(p.rate_log_sigma, original.rate_log_sigma);
  EXPECT_DOUBLE_EQ(p.diurnal_amplitude, original.diurnal_amplitude);
  EXPECT_DOUBLE_EQ(p.diurnal_phase, original.diurnal_phase);
  EXPECT_DOUBLE_EQ(p.trend_per_week, original.trend_per_week);
  EXPECT_DOUBLE_EQ(p.requests_alpha, original.requests_alpha);
  EXPECT_DOUBLE_EQ(p.requests_cap, original.requests_cap);
  EXPECT_DOUBLE_EQ(p.think.p_object, original.think.p_object);
  EXPECT_DOUBLE_EQ(p.think.object_mean, original.think.object_mean);
  EXPECT_DOUBLE_EQ(p.think.page_log_mu, original.think.page_log_mu);
  EXPECT_DOUBLE_EQ(p.think.page_log_sigma, original.think.page_log_sigma);
  EXPECT_DOUBLE_EQ(p.think.scale_alpha, original.think.scale_alpha);
  EXPECT_DOUBLE_EQ(p.think.crawler_requests, original.think.crawler_requests);
  EXPECT_DOUBLE_EQ(p.think.crawler_gap_mean, original.think.crawler_gap_mean);
  EXPECT_DOUBLE_EQ(p.think.gap_cap, original.think.gap_cap);
  EXPECT_DOUBLE_EQ(p.bytes.body_log_mu, original.bytes.body_log_mu);
  EXPECT_DOUBLE_EQ(p.bytes.body_log_sigma, original.bytes.body_log_sigma);
  EXPECT_DOUBLE_EQ(p.bytes.scale_alpha, original.bytes.scale_alpha);
  EXPECT_DOUBLE_EQ(p.bytes.scale_k, original.bytes.scale_k);
  EXPECT_DOUBLE_EQ(p.bytes.scale_cap, original.bytes.scale_cap);
  EXPECT_DOUBLE_EQ(p.bytes.cap, original.bytes.cap);
  EXPECT_DOUBLE_EQ(p.bench_scale, original.bench_scale);
}

TEST(ProfileIo, AllFourProfilesRoundTrip) {
  for (const auto& original : ServerProfile::all_four()) {
    const auto parsed = profile_from_text(profile_to_text(original));
    ASSERT_TRUE(parsed.ok()) << original.name;
    EXPECT_EQ(parsed.value().name, original.name);
    EXPECT_DOUBLE_EQ(parsed.value().requests_alpha, original.requests_alpha);
  }
}

TEST(ProfileIo, CommentsAndBlankLinesIgnored) {
  const std::string text =
      "# a comment\n"
      "\n"
      "name = test  # trailing comment\n"
      "hurst = 0.75\n";
  const auto parsed = profile_from_text(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().name, "test");
  EXPECT_DOUBLE_EQ(parsed.value().hurst, 0.75);
}

TEST(ProfileIo, MissingKeysKeepDefaults) {
  const auto parsed = profile_from_text("name = minimal\n");
  ASSERT_TRUE(parsed.ok());
  const ServerProfile defaults;
  EXPECT_DOUBLE_EQ(parsed.value().hurst, defaults.hurst);
  EXPECT_DOUBLE_EQ(parsed.value().bytes.cap, defaults.bytes.cap);
}

TEST(ProfileIo, UnknownKeyIsError) {
  const auto parsed = profile_from_text("hursted = 0.8\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().category, "parse");
}

TEST(ProfileIo, BadNumberIsError) {
  EXPECT_FALSE(profile_from_text("hurst = high\n").ok());
}

TEST(ProfileIo, MissingEqualsIsError) {
  EXPECT_FALSE(profile_from_text("hurst 0.8\n").ok());
}

TEST(ProfileIo, FileRoundTrip) {
  const std::string path = test_support::temp_path("profile_io_test.profile");
  const ServerProfile original = ServerProfile::nasa_pub2();
  ASSERT_TRUE(save_profile(path, original).ok());
  const auto loaded = load_profile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().name, original.name);
  EXPECT_DOUBLE_EQ(loaded.value().requests_cap, original.requests_cap);
  std::remove(path.c_str());
}

TEST(ProfileIo, LoadMissingFileErrors) {
  EXPECT_FALSE(load_profile("/nonexistent/path.profile").ok());
}

}  // namespace
}  // namespace fullweb::synth
