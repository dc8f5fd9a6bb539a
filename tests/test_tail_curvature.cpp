#include "tail/curvature.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <numbers>
#include <stdexcept>
#include <vector>

#include "stats/descriptive.h"
#include "stats/distributions.h"
#include "stats/regression.h"
#include "support/rng.h"
#include "tail/llcd.h"

namespace fullweb::tail {
namespace {

std::vector<double> sample_from(const auto& dist, std::size_t n,
                                std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<double> xs(n);
  for (auto& x : xs) x = dist.sample(rng);
  return xs;
}

TEST(LlcdCurvature, ParetoNearZeroLognormalNegative) {
  // A Pareto LLCD is straight (curvature ~ 0); a wide lognormal LLCD bends
  // downward (negative quadratic coefficient).
  const auto pareto = sample_from(stats::Pareto(1.5, 1.0), 20000, 1);
  const auto lognormal = sample_from(stats::Lognormal(0.0, 1.0), 20000, 2);
  const auto cp = llcd_curvature(pareto, 0.5);
  const auto cl = llcd_curvature(lognormal, 0.5);
  ASSERT_TRUE(cp.ok());
  ASSERT_TRUE(cl.ok());
  EXPECT_NEAR(cp.value(), 0.0, 0.3);
  EXPECT_LT(cl.value(), -0.5);
  EXPECT_LT(cl.value(), cp.value());
}

/// The statistic as first defined: keep the plot points whose log10 x is at
/// or above the (1 - tail_fraction) quantile of a sorted copy of log10 x.
double filtered_plot_curvature(const std::vector<double>& xs, double tail_fraction) {
  const LlcdPlot plot = llcd_plot(xs).value();
  std::vector<double> sorted_lx = plot.log10_x;
  std::sort(sorted_lx.begin(), sorted_lx.end());
  const double cut = stats::quantile_sorted(sorted_lx, 1.0 - tail_fraction);
  std::vector<double> lx, ly;
  for (std::size_t i = 0; i < plot.log10_x.size(); ++i) {
    if (plot.log10_x[i] >= cut) {
      lx.push_back(plot.log10_x[i]);
      ly.push_back(plot.log10_ccdf[i]);
    }
  }
  return stats::quadratic_fit(lx, ly).c2;
}

TEST(LlcdCurvature, CutIsAnIndexIntoTheAscendingPlot) {
  // Continuous and heavily tied (integer) samples, several tail fractions:
  // bit-identical to filtering by value.
  auto tied = sample_from(stats::Lognormal(1.2, 1.1), 5000, 25);
  for (auto& x : tied) x = std::ceil(x);
  const auto continuous = sample_from(stats::Pareto(1.3, 1.0), 5000, 26);
  const std::vector<double>* samples[] = {&tied, &continuous};
  for (const auto* xs : samples) {
    for (const double tf : {0.2, 0.5, 0.9}) {
      const auto c = llcd_curvature(*xs, tf);
      ASSERT_TRUE(c.ok()) << tf;
      EXPECT_EQ(c.value(), filtered_plot_curvature(*xs, tf)) << tf;
    }
  }
}

TEST(LlcdCurvature, ErrorsOnTinySample) {
  EXPECT_FALSE(llcd_curvature(std::vector<double>{1, 2, 3}, 0.5).ok());
}

TEST(CurvatureTest, ParetoSampleNotRejectedUnderParetoNull) {
  const auto xs = sample_from(stats::Pareto(1.6, 1.0), 5000, 3);
  support::Rng rng(4);
  CurvatureOptions opts;
  opts.model = TailModel::kPareto;
  opts.replicates = 99;
  const auto r = curvature_test(xs, rng, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.value().p_value, 0.05);
  EXPECT_FALSE(r.value().rejected_at_5pct);
  EXPECT_NEAR(r.value().param1, 1.6, 0.3);  // fitted alpha
}

TEST(CurvatureTest, LognormalSampleNotRejectedUnderLognormalNull) {
  const auto xs = sample_from(stats::Lognormal(1.0, 1.2), 5000, 5);
  support::Rng rng(6);
  CurvatureOptions opts;
  opts.model = TailModel::kLognormal;
  opts.replicates = 99;
  const auto r = curvature_test(xs, rng, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.value().p_value, 0.05);
  EXPECT_NEAR(r.value().param1, 1.0, 0.1);  // mu
  EXPECT_NEAR(r.value().param2, 1.2, 0.1);  // sigma
}

TEST(CurvatureTest, LognormalRejectedUnderParetoNullEventually) {
  // A strongly bending lognormal should be flagged as non-Pareto: its
  // curvature falls outside the Pareto reference distribution.
  const auto xs = sample_from(stats::Lognormal(0.0, 0.6), 8000, 7);
  support::Rng rng(8);
  CurvatureOptions opts;
  opts.model = TailModel::kPareto;
  opts.replicates = 99;
  const auto r = curvature_test(xs, rng, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().rejected_at_5pct);
}

TEST(CurvatureTest, AlphaOverrideChangesP) {
  // The paper's observation: the Pareto p-value is sensitive to the
  // plugged-in alpha. An absurd alpha should produce a tiny p-value.
  const auto xs = sample_from(stats::Pareto(1.5, 1.0), 5000, 9);
  support::Rng rng_a(10);
  support::Rng rng_b(10);  // same stream: isolate the alpha effect
  CurvatureOptions fitted;
  fitted.replicates = 99;
  CurvatureOptions forced;
  forced.replicates = 99;
  forced.alpha_override = 6.0;
  const auto pa = curvature_test(xs, rng_a, fitted);
  const auto pb = curvature_test(xs, rng_b, forced);
  ASSERT_TRUE(pa.ok());
  ASSERT_TRUE(pb.ok());
  EXPECT_DOUBLE_EQ(pb.value().param1, 6.0);
  EXPECT_NE(pa.value().p_value, pb.value().p_value);
}

TEST(CurvatureTest, SeedSensitivityExists) {
  // Second paper observation: same data, same alpha, different Monte-Carlo
  // sample -> (slightly) different p-value.
  const auto xs = sample_from(stats::Pareto(1.3, 1.0), 3000, 11);
  support::Rng rng_a(12);
  support::Rng rng_b(13);
  CurvatureOptions opts;
  opts.replicates = 49;
  const auto pa = curvature_test(xs, rng_a, opts);
  const auto pb = curvature_test(xs, rng_b, opts);
  ASSERT_TRUE(pa.ok());
  ASSERT_TRUE(pb.ok());
  // They may coincide by chance, but the machinery must at least run both;
  // verify both are valid probabilities.
  EXPECT_GT(pa.value().p_value, 0.0);
  EXPECT_LE(pa.value().p_value, 1.0);
  EXPECT_GT(pb.value().p_value, 0.0);
  EXPECT_LE(pb.value().p_value, 1.0);
}

TEST(CurvatureTest, ErrorsOnSmallSample) {
  const auto xs = sample_from(stats::Pareto(1.5, 1.0), 30, 14);
  support::Rng rng(15);
  EXPECT_FALSE(curvature_test(xs, rng, {}).ok());
}

TEST(CurvatureTest, RejectsBadAlphaOverride) {
  const auto xs = sample_from(stats::Pareto(1.5, 1.0), 1000, 16);
  support::Rng rng(17);
  CurvatureOptions opts;
  opts.alpha_override = -1.0;
  EXPECT_FALSE(curvature_test(xs, rng, opts).ok());
}

TEST(CurvatureTest, ReportsReplicateCount) {
  const auto xs = sample_from(stats::Pareto(2.0, 1.0), 2000, 18);
  support::Rng rng(19);
  CurvatureOptions opts;
  opts.replicates = 49;
  const auto r = curvature_test(xs, rng, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().replicates, 49U);
}

TEST(CurvatureTest, ErrorsOnAllTiedSample) {
  // One distinct value leaves no LLCD point under either null.
  const std::vector<double> xs(500, 7.0);
  for (const TailModel model : {TailModel::kPareto, TailModel::kLognormal}) {
    support::Rng rng(20);
    CurvatureOptions opts;
    opts.model = model;
    opts.replicates = 19;
    EXPECT_FALSE(curvature_test(xs, rng, opts).ok());
  }
}

TEST(CurvatureNull, ParetoBodyIsTheSampleBelowTheCutoff) {
  const auto xs = sample_from(stats::Lognormal(2.0, 1.0), 3801, 21);
  auto fit = CurvatureNull::fit(xs, {});
  ASSERT_TRUE(fit.ok());
  const CurvatureNull& null = fit.value();
  const auto above = static_cast<std::size_t>(std::count_if(
      xs.begin(), xs.end(), [&](double v) { return v >= null.param2(); }));
  EXPECT_EQ(null.body().size(), xs.size() - above);
  EXPECT_LT(null.body().back(), null.param2());
  EXPECT_DOUBLE_EQ(null.p_tail(),
                   static_cast<double>(above) / static_cast<double>(xs.size()));
  EXPECT_NEAR(null.p_tail(), 0.5, 1e-3);
}

TEST(CurvatureNull, ParetoReplicatesPutPTailOfTheirMassAboveTheCutoff) {
  // Regression: the body used to be resampled from the whole sample, so a
  // replicate put p_tail * (2 - p_tail) ~ 75% of its draws above the cutoff
  // instead of the data's 50%. Read the share off each replicate's whole
  // LLCD (tail_fraction 1): the CCDF at the highest point below the cutoff.
  const auto xs = sample_from(stats::Lognormal(2.0, 1.0), 3800, 22);
  auto fit = CurvatureNull::fit(xs, {});
  ASSERT_TRUE(fit.ok());
  const CurvatureNull& fitted = fit.value();
  const CurvatureNull whole =
      CurvatureNull::pareto(fitted.n(), fitted.param1(), fitted.param2(),
                            fitted.p_tail(), fitted.body(), 1.0);
  const double log10_cutoff = std::log10(fitted.param2());
  support::Rng rng(23);
  std::vector<double> lx, ly;
  double share = 0.0;
  constexpr int kReps = 400;
  for (int r = 0; r < kReps; ++r) {
    const std::size_t m = whole.draw_llcd(rng, lx, ly);
    ASSERT_EQ(lx.size(), m);  // tail_fraction 1 keeps every point
    const auto below = std::lower_bound(lx.begin(), lx.end(), log10_cutoff);
    ASSERT_NE(below, lx.begin());
    share += std::pow(10.0, ly[static_cast<std::size_t>(below - lx.begin()) - 1]);
  }
  share /= kReps;
  EXPECT_NEAR(share, fitted.p_tail(), 0.005);
}

TEST(CurvatureNull, LognormalWindowIsTheUpperQuantileOfTheWholePlot) {
  const CurvatureNull null = CurvatureNull::lognormal(1000, 0.0, 1.0, 0.5);
  support::Rng rng(24);
  std::vector<double> lx, ly;
  const std::size_t m = null.draw_llcd(rng, lx, ly);
  EXPECT_EQ(m, 999U);  // n continuous draws, the maximum dropped
  EXPECT_EQ(lx.size(), m - stats::quantile_position(m, 0.5).lo);
  ASSERT_EQ(ly.size(), lx.size());
  EXPECT_TRUE(std::is_sorted(lx.begin(), lx.end()));
  // The CCDF column is rank-determined: the top point has one draw above it.
  EXPECT_DOUBLE_EQ(ly.back(), std::log10(1.0 - 999.0 / 1000.0));
  EXPECT_DOUBLE_EQ(ly.front(),
                   std::log10(1.0 - static_cast<double>(m - lx.size() + 1) / 1000.0));
}

TEST(CurvatureNull, ContinuousDrawsAreUniformOrderStatistics) {
  // Mapped back through each model's survival function, the j-th largest
  // of n draws is the j-th smallest of n uniforms, with mean j / (n + 1).
  // Small n makes an off-by-one in the Renyi spacings (a sample of n + 1)
  // show by many standard errors.
  constexpr std::size_t kN = 40;
  constexpr int kReps = 40000;
  const double log10_cutoff = std::log10(2.0);
  struct Case {
    CurvatureNull null;
    std::function<double(double)> survival;  ///< of log10 x
  };
  const Case cases[] = {
      {CurvatureNull::lognormal(kN, 0.5, 1.3, 1.0),
       [](double lx) {
         return stats::normal_cdf(-(lx * std::numbers::ln10 - 0.5) / 1.3);
       }},
      {CurvatureNull::pareto(kN, 1.7, 2.0, 1.0, {}, 1.0),
       [&](double lx) { return std::pow(10.0, -1.7 * (lx - log10_cutoff)); }},
  };
  for (const Case& c : cases) {
    support::Rng rng(27);
    std::vector<double> lx, ly, sums(kN - 1, 0.0);
    for (int r = 0; r < kReps; ++r) {
      ASSERT_EQ(c.null.draw_llcd(rng, lx, ly), kN - 1);
      ASSERT_EQ(lx.size(), kN - 1);  // tail_fraction 1 keeps every point
      for (std::size_t p = 0; p < lx.size(); ++p) sums[p] += c.survival(lx[p]);
    }
    constexpr auto n1 = static_cast<double>(kN + 1);
    for (std::size_t p = 0; p < sums.size(); ++p) {
      const auto j = static_cast<double>(kN - p);  // rank from the top
      const double sd = std::sqrt(j * (n1 - j) / (n1 * n1 * (n1 + 1.0)) / kReps);
      EXPECT_NEAR(sums[p] / kReps, j / n1, 5.0 * sd) << "rank " << j;
    }
  }
}

TEST(CurvatureNull, RejectsABodyReachingTheCutoff) {
  const std::vector<double> body = {1.0, 2.0, 3.0};
  EXPECT_THROW((void)CurvatureNull::pareto(100, 1.5, 3.0, 0.5, body, 0.5),
               std::invalid_argument);
  EXPECT_THROW((void)CurvatureNull::pareto(100, 1.5, 3.0, 0.5, {}, 0.5),
               std::invalid_argument);
}

}  // namespace
}  // namespace fullweb::tail
