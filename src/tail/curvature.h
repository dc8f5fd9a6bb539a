// Downey's Monte-Carlo curvature test for distinguishing Pareto from
// lognormal tails.
//
// A Pareto CCDF is a straight line on log-log axes; a lognormal CCDF bends
// downward ever more steeply in the extreme tail. The test (Downey, IMW
// 2001, adapted per §5.2.1 of the paper):
//   1. Fit the candidate model (Pareto above a cutoff, or lognormal) to the
//      sample.
//   2. Measure the curvature statistic: the quadratic coefficient of a
//      parabola fitted to the log-log CCDF of the tail.
//   3. Draw `replicates` synthetic samples of the same size from the fitted
//      model, compute each one's curvature, and report the two-sided
//      Monte-Carlo p-value of the empirical curvature.
// A replicate never materializes its n draws: the statistic reads only the
// upper tail_fraction of the sorted LLCD, so CurvatureNull generates just
// those order statistics, already ascending (see CurvatureNull below).
// The paper found the Pareto p-value is sensitive to the plugged-in alpha
// and to the random replicate sample — we expose both knobs (`alpha_override`
// and the caller-supplied Rng) so benches can reproduce that observation.
//
// The Monte-Carlo replicates fan out on the configured executor: replicate
// b always draws from micro-stream b of a level -1 RngSplitter over the
// caller's generator, so the p-value is bit-identical at any thread count.
// The split CONSUMES the generator (see support/rng.h): callers must hand
// curvature_test a dedicated leaf stream and never draw from it afterwards.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "support/result.h"
#include "support/rng.h"

namespace fullweb::support {
class Executor;
}

namespace fullweb::tail {

enum class TailModel { kPareto, kLognormal };

struct CurvatureOptions {
  TailModel model = TailModel::kPareto;
  std::size_t replicates = 199;   ///< Monte-Carlo replicates
  /// Fraction of the sample treated as the tail for both the Pareto fit
  /// cutoff and the curvature measurement window.
  double tail_fraction = 0.5;
  /// Use this alpha instead of the MLE (Pareto only) — the sensitivity knob.
  std::optional<double> alpha_override;
  /// Task executor for the replicate fan-out (null = the global pool).
  support::Executor* executor = nullptr;
};

struct CurvatureResult {
  double curvature = 0.0;        ///< empirical quadratic coefficient
  double p_value = 1.0;          ///< two-sided Monte-Carlo p
  bool rejected_at_5pct = false;
  // Fitted null-model parameters actually used for simulation:
  double param1 = 0.0;           ///< Pareto alpha, or lognormal mu
  double param2 = 0.0;           ///< Pareto k (cutoff), or lognormal sigma
  std::size_t replicates = 0;
};

/// Run the test. Errors if the sample is too small (< ~50 tail points) or
/// the null model cannot be fitted.
[[nodiscard]] support::Result<CurvatureResult> curvature_test(
    std::span<const double> xs, support::Rng& rng,
    const CurvatureOptions& options = {});

/// The curvature statistic alone (exposed for tests).
[[nodiscard]] support::Result<double> llcd_curvature(std::span<const double> xs,
                                                     double tail_fraction);

/// The null model curvature_test simulates, and its replicate generator
/// (exposed for tests).
///
/// A replicate is a size-n sample drawn from the null; its statistic is what
/// llcd_curvature(sample, tail_fraction) returns. Rather than draw, sort and
/// take logs of n values, draw_llcd generates only the LLCD points the
/// statistic reads, in ascending order:
///   - the continuous part of the sample (all of it under the lognormal
///     null, the K Pareto draws under the Pareto null) comes from the top
///     down through the Renyi representation of uniform order statistics:
///     E_j = sum_{i<=j} Z_i / (K - i + 1) with Z_i ~ Exp(1), and the j-th
///     largest value is the model's upper-tail inverse CDF at
///     S_(j) = -expm1(-E_j);
///   - the Pareto null's empirical body is a vector of counts over its
///     distinct values, filled by counting drawn indices (no sort);
///   - the log10 CCDF column depends only on cumulative counts, so it is a
///     table built once per null.
/// Continuous draws are treated as distinct (ties have probability zero).
class CurvatureNull {
 public:
  /// Fit `options.model` to a sample of positive values, as curvature_test
  /// does: the lognormal MLE, or Pareto(alpha, cutoff) above the
  /// (1 - tail_fraction) sample quantile with the MLE alpha (or
  /// `alpha_override`), an empirical body of the values below the cutoff and
  /// p_tail = the share of the sample at or above it.
  [[nodiscard]] static support::Result<CurvatureNull> fit(
      std::span<const double> positive, const CurvatureOptions& options);

  /// Semiparametric Pareto null: each of n draws is Pareto(alpha, cutoff)
  /// with probability p_tail, else a uniform pick from `body` (ascending,
  /// positive, all below cutoff; may be empty only when p_tail = 1).
  [[nodiscard]] static CurvatureNull pareto(std::size_t n, double alpha,
                                            double cutoff, double p_tail,
                                            std::span<const double> body,
                                            double tail_fraction);
  /// n independent Lognormal(mu, sigma) draws.
  [[nodiscard]] static CurvatureNull lognormal(std::size_t n, double mu,
                                               double sigma,
                                               double tail_fraction);

  [[nodiscard]] TailModel model() const noexcept { return model_; }
  [[nodiscard]] std::size_t n() const noexcept { return n_; }
  [[nodiscard]] double tail_fraction() const noexcept { return tail_fraction_; }
  [[nodiscard]] double param1() const noexcept { return param1_; }  ///< alpha or mu
  [[nodiscard]] double param2() const noexcept { return param2_; }  ///< cutoff or sigma
  [[nodiscard]] double p_tail() const noexcept { return p_tail_; }
  [[nodiscard]] std::span<const double> body() const noexcept { return body_; }

  /// Draw one replicate and write the points [m - log10_x.size(), m) of
  /// its m-point LLCD (ascending; the window llcd_curvature fits lies
  /// inside). Returns m; the vectors are left empty when m < 2.
  std::size_t draw_llcd(support::Rng& rng, std::vector<double>& log10_x,
                        std::vector<double>& log10_ccdf) const;

  /// One replicate's curvature statistic. Errors where llcd_curvature
  /// would on the drawn sample.
  [[nodiscard]] support::Result<double> replicate_curvature(
      support::Rng& rng) const;

 private:
  CurvatureNull(TailModel model, std::size_t n, double tail_fraction);

  TailModel model_;
  std::size_t n_;
  double tail_fraction_;
  double param1_ = 0.0;
  double param2_ = 0.0;
  double p_tail_ = 1.0;
  std::vector<double> body_;
  std::vector<std::uint32_t> body_group_;  ///< body_ index -> distinct value
  std::vector<double> group_log10_x_;      ///< log10 of each distinct body value
  std::vector<double> log10_ccdf_;         ///< [c] = log10(1 - c / n)
};

}  // namespace fullweb::tail
