// Statistical equivalence of the curvature test's replicate generator.
//
// tail::CurvatureNull draws each Monte-Carlo replicate's LLCD tail straight
// from order statistics. The oracle here is the plain replicate: draw n
// values from the same null, sort, and take llcd_curvature. A two-sample
// Kolmogorov-Smirnov test checks that both give the statistic one null
// distribution, on samples of the NASA and WVU bench-scale session counts
// (3,800 and 19,000), a heavily tied integer body, a body of one repeated
// value, and a null that never draws its Pareto tail (K = 0). A second
// group checks that curvature_test's p-values are uniform when the data come
// from the null itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "stats/distributions.h"
#include "support/rng.h"
#include "tail/curvature.h"

namespace fullweb::tail {
namespace {

constexpr std::size_t kReplicates = 600;
// Eight two-sample comparisons share a 5% family-wise level (Bonferroni):
// c(alpha) = sqrt(-ln(alpha / 2) / 2) at alpha = 0.05 / 8.
constexpr int kComparisons = 8;

double two_sample_critical(std::size_t n1, std::size_t n2) {
  const double alpha = 0.05 / kComparisons;
  const double c = std::sqrt(-0.5 * std::log(alpha / 2.0));
  return c * std::sqrt(static_cast<double>(n1 + n2) /
                       static_cast<double>(n1 * n2));
}

double ks_two_sample(std::vector<double> a, std::vector<double> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  const auto na = static_cast<double>(a.size());
  const auto nb = static_cast<double>(b.size());
  std::size_t i = 0, j = 0;
  double d = 0.0;
  while (i < a.size() && j < b.size()) {
    const double x = std::min(a[i], b[j]);
    while (i < a.size() && a[i] == x) ++i;
    while (j < b.size() && b[j] == x) ++j;
    d = std::max(d, std::fabs(static_cast<double>(i) / na -
                              static_cast<double>(j) / nb));
  }
  return d;
}

/// The oracle: one size-n sample drawn value by value from the null.
std::vector<double> naive_sample(const CurvatureNull& null, support::Rng& rng) {
  std::vector<double> xs(null.n());
  if (null.model() == TailModel::kPareto) {
    const stats::Pareto tail(null.param1(), null.param2());
    const auto body = null.body();
    for (auto& x : xs)
      x = rng.uniform() < null.p_tail() ? tail.sample(rng)
                                        : body[rng.below(body.size())];
  } else {
    const stats::Lognormal model(null.param1(), null.param2());
    for (auto& x : xs) x = model.sample(rng);
  }
  return xs;
}

struct Draws {
  std::vector<double> stats;
  std::size_t failed = 0;
};

Draws naive_replicates(const CurvatureNull& null, std::uint64_t seed) {
  support::Rng rng(seed);
  Draws out;
  for (std::size_t r = 0; r < kReplicates; ++r) {
    const auto c = llcd_curvature(naive_sample(null, rng), null.tail_fraction());
    if (c.ok())
      out.stats.push_back(c.value());
    else
      ++out.failed;
  }
  return out;
}

Draws order_statistic_replicates(const CurvatureNull& null, std::uint64_t seed) {
  support::Rng rng(seed);
  Draws out;
  for (std::size_t r = 0; r < kReplicates; ++r) {
    const auto c = null.replicate_curvature(rng);
    if (c.ok())
      out.stats.push_back(c.value());
    else
      ++out.failed;
  }
  return out;
}

void expect_same_null_distribution(const CurvatureNull& null, std::uint64_t seed) {
  const Draws fast = order_statistic_replicates(null, seed);
  const Draws naive = naive_replicates(null, seed + 1);
  EXPECT_EQ(fast.failed, 0U);
  EXPECT_EQ(naive.failed, 0U);
  ASSERT_GT(fast.stats.size(), kReplicates / 2);
  ASSERT_GT(naive.stats.size(), kReplicates / 2);
  const double d = ks_two_sample(fast.stats, naive.stats);
  EXPECT_LT(d, two_sample_critical(fast.stats.size(), naive.stats.size()))
      << "KS D = " << d;
}

std::vector<double> sample_from(const auto& dist, std::size_t n, std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<double> xs(n);
  for (auto& x : xs) x = dist.sample(rng);
  return xs;
}

CurvatureNull fitted(std::span<const double> xs, TailModel model) {
  CurvatureOptions opts;
  opts.model = model;
  auto null = CurvatureNull::fit(xs, opts);
  EXPECT_TRUE(null.ok());
  return std::move(null).value();
}

/// Requests-per-session-like counts: integers from 1, mostly small.
std::vector<double> integer_counts(std::size_t n, std::uint64_t seed) {
  auto xs = sample_from(stats::Lognormal(1.2, 1.1), n, seed);
  for (auto& x : xs) x = std::ceil(x);
  return xs;
}

TEST(CurvatureNullEquivalence, ParetoNullAtNasaScale) {
  const auto xs = sample_from(stats::Pareto(1.4, 1.0), 3800, 1);
  expect_same_null_distribution(fitted(xs, TailModel::kPareto), 100);
}

TEST(CurvatureNullEquivalence, ParetoNullAtWvuScale) {
  const auto xs = sample_from(stats::Lognormal(3.0, 1.5), 19000, 2);
  expect_same_null_distribution(fitted(xs, TailModel::kPareto), 200);
}

TEST(CurvatureNullEquivalence, LognormalNullAtNasaScale) {
  const auto xs = sample_from(stats::Lognormal(1.0, 1.2), 3800, 3);
  expect_same_null_distribution(fitted(xs, TailModel::kLognormal), 300);
}

TEST(CurvatureNullEquivalence, LognormalNullAtWvuScale) {
  const auto xs = sample_from(stats::Pareto(1.2, 1.0), 19000, 4);
  expect_same_null_distribution(fitted(xs, TailModel::kLognormal), 400);
}

TEST(CurvatureNullEquivalence, ParetoNullTiedIntegerBody) {
  const auto xs = integer_counts(3800, 5);
  const CurvatureNull null = fitted(xs, TailModel::kPareto);
  // The body is a handful of small integers, each repeated many times.
  ASSERT_FALSE(null.body().empty());
  EXPECT_LT(null.body().back(), 10.0);
  expect_same_null_distribution(null, 500);
}

TEST(CurvatureNullEquivalence, LognormalNullFittedToTiedIntegers) {
  const auto xs = integer_counts(3800, 6);
  expect_same_null_distribution(fitted(xs, TailModel::kLognormal), 600);
}

TEST(CurvatureNullEquivalence, ParetoNullBodyOfOneValue) {
  const std::vector<double> body(2090, 1.0);
  expect_same_null_distribution(
      CurvatureNull::pareto(3800, 1.3, 2.0, 0.45, body, 0.5), 700);
}

TEST(CurvatureNullEquivalence, ParetoNullWithoutTailDraws) {
  // p_tail = 0: every replicate has K = 0 and is a bootstrap of the body,
  // whose top point (CCDF 0) the plot drops.
  auto body = integer_counts(3800, 8);
  for (auto& x : body) x = std::min(x, 400.0);
  std::sort(body.begin(), body.end());
  expect_same_null_distribution(
      CurvatureNull::pareto(3800, 1.3, 1000.0, 0.0, body, 0.5), 800);
}

/// One-sample KS distance from Uniform(0, 1) of curvature_test's p-values
/// on `datasets` samples of size 2,000 drawn from `dist`.
double p_value_ks_distance(TailModel model, const auto& dist, std::size_t datasets) {
  std::vector<double> ps;
  for (std::size_t i = 0; i < datasets; ++i) {
    const auto xs = sample_from(dist, 2000, 10'000 + i);
    support::Rng rng(20'000 + i);
    CurvatureOptions opts;
    opts.model = model;
    opts.replicates = 99;
    const auto r = curvature_test(xs, rng, opts);
    EXPECT_TRUE(r.ok());
    if (r.ok()) ps.push_back(r.value().p_value);
  }
  std::sort(ps.begin(), ps.end());
  const auto n = static_cast<double>(ps.size());
  double d = 0.0;
  for (std::size_t i = 0; i < ps.size(); ++i)
    d = std::max({d, std::fabs(ps[i] - static_cast<double>(i) / n),
                  std::fabs(ps[i] - static_cast<double>(i + 1) / n)});
  return d;
}

// One-sample KS at 1% per null: 1.63 / sqrt(n). The Monte-Carlo p-value
// moves in steps of 2 / 100, well inside that distance.
TEST(CurvatureNullUniformity, ParetoNullPValuesUniformOnParetoData) {
  constexpr std::size_t kDatasets = 200;
  const double d = p_value_ks_distance(TailModel::kPareto,
                                       stats::Pareto(1.5, 1.0), kDatasets);
  EXPECT_LT(d, 1.63 / std::sqrt(static_cast<double>(kDatasets))) << d;
}

TEST(CurvatureNullUniformity, LognormalNullPValuesUniformOnLognormalData) {
  constexpr std::size_t kDatasets = 200;
  const double d = p_value_ks_distance(TailModel::kLognormal,
                                       stats::Lognormal(0.0, 1.5), kDatasets);
  EXPECT_LT(d, 1.63 / std::sqrt(static_cast<double>(kDatasets))) << d;
}

}  // namespace
}  // namespace fullweb::tail
