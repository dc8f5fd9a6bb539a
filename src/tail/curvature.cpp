#include "tail/curvature.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <optional>
#include <stdexcept>
#include <vector>

#include "stats/descriptive.h"
#include "stats/distributions.h"
#include "stats/regression.h"
#include "support/executor.h"
#include "support/workspace.h"
#include "tail/llcd.h"

namespace fullweb::tail {

using support::Error;
using support::Result;

namespace {

double lower_quantile(double tail_fraction) {
  return std::clamp(1.0 - tail_fraction, 0.0, 1.0);
}

/// The curvature statistic of an ascending m-point LLCD given as its points
/// [m - lx.size(), m): the quadratic coefficient of log10 CCDF on log10 x
/// over the points at or above the (1 - tail_fraction) quantile of log10 x.
/// llcd_curvature passes the whole plot and the replicates the window
/// CurvatureNull::draw_llcd generates, so both compute one statistic.
Result<double> tail_curvature(std::span<const double> lx,
                              std::span<const double> ly, std::size_t m,
                              double tail_fraction) {
  const std::size_t first = m - lx.size();
  const auto pos = stats::quantile_position(m, lower_quantile(tail_fraction));
  const double cut = pos.interpolate(lx[pos.lo - first], lx[pos.hi - first]);
  // log10 x ascends, so the kept points are a suffix. It starts at the
  // quantile's lower index unless equal log10 values straddle the cut.
  std::size_t start = pos.lo - first;
  while (start > 0 && lx[start - 1] >= cut) --start;
  while (start < lx.size() && lx[start] < cut) ++start;
  if (lx.size() - start < 10)
    return Error::insufficient_data("llcd_curvature: fewer than 10 tail points");
  return stats::quadratic_fit(lx.subspan(start), ly.subspan(start)).c2;
}

/// log10 of the j-th largest of k i.i.d. continuous draws for j = 2..last
/// (the largest, j = 1, has CCDF 0 and is not a plot point), ascending into
/// `out` (out.size() == last - 1, so rank j lands at out[last - j]). Renyi:
/// the j-th smallest of k uniforms is S_(j) = -expm1(-E_j) with
/// E_j = sum_{i<=j} Z_i / (k - i + 1), Z_i ~ Exp(1), and `upper_log10` maps
/// that survival probability to log10 x. Each step runs as its own pass over
/// `out`, so the transcendental calls are independent and pipeline.
template <class UpperLog10>
void top_order_statistics(support::Rng& rng, std::size_t k,
                          std::span<double> out, UpperLog10 upper_log10) {
  const double z1 = -std::log(rng.uniform_pos());
  for (auto it = out.rbegin(); it != out.rend(); ++it) *it = rng.uniform_pos();
  for (double& v : out) v = -std::log(v);
  double e = z1 / static_cast<double>(k);
  for (std::size_t i = out.size(); i-- > 0;) {
    // out[i] holds rank j = out.size() + 1 - i.
    e += out[i] / static_cast<double>(k + i - out.size());
    out[i] = e;
  }
  for (double& v : out) v = upper_log10(-std::expm1(-v));
}

}  // namespace

Result<double> llcd_curvature(std::span<const double> xs, double tail_fraction) {
  auto plot_r = llcd_plot(xs);
  if (!plot_r) return plot_r.error();
  const LlcdPlot& plot = plot_r.value();
  return tail_curvature(plot.log10_x, plot.log10_ccdf, plot.log10_x.size(),
                        tail_fraction);
}

CurvatureNull::CurvatureNull(TailModel model, std::size_t n,
                             double tail_fraction)
    : model_(model), n_(n), tail_fraction_(tail_fraction), log10_ccdf_(n) {
  // Cumulative count c gives ecdf F = c / n; the same expression as
  // stats::ecdf and llcd_plot, so the column matches theirs bit for bit.
  const auto nd = static_cast<double>(n);
  for (std::size_t c = 0; c < n; ++c)
    log10_ccdf_[c] = std::log10(1.0 - static_cast<double>(c) / nd);
}

CurvatureNull CurvatureNull::pareto(std::size_t n, double alpha, double cutoff,
                                    double p_tail,
                                    std::span<const double> body,
                                    double tail_fraction) {
  if (!(alpha > 0.0) || !(cutoff > 0.0) || !(p_tail >= 0.0 && p_tail <= 1.0) ||
      (body.empty() && p_tail < 1.0) ||
      (!body.empty() && !(body.front() > 0.0 && body.back() < cutoff)))
    throw std::invalid_argument("CurvatureNull::pareto: invalid parameters");
  CurvatureNull null(TailModel::kPareto, n, tail_fraction);
  null.param1_ = alpha;
  null.param2_ = cutoff;
  null.p_tail_ = p_tail;
  null.body_.assign(body.begin(), body.end());
  null.body_group_.resize(body.size());
  for (std::size_t i = 0; i < body.size(); ++i) {
    if (i == 0 || body[i] != body[i - 1])
      null.group_log10_x_.push_back(std::log10(body[i]));
    null.body_group_[i] =
        static_cast<std::uint32_t>(null.group_log10_x_.size() - 1);
  }
  return null;
}

CurvatureNull CurvatureNull::lognormal(std::size_t n, double mu, double sigma,
                                       double tail_fraction) {
  if (!(sigma > 0.0))
    throw std::invalid_argument("CurvatureNull::lognormal: sigma must be > 0");
  CurvatureNull null(TailModel::kLognormal, n, tail_fraction);
  null.param1_ = mu;
  null.param2_ = sigma;
  return null;
}

Result<CurvatureNull> CurvatureNull::fit(std::span<const double> positive,
                                         const CurvatureOptions& options) {
  const std::size_t n = positive.size();
  if (options.model == TailModel::kLognormal) {
    auto fit = stats::Lognormal::fit_mle(positive);
    if (!fit) return fit.error();
    return lognormal(n, fit.value().mu(), fit.value().sigma(),
                     options.tail_fraction);
  }
  // Pareto fitted above the tail cutoff; the simulated sample mixes the
  // empirical body below the cutoff with Pareto draws above it, mirroring
  // Downey's semiparametric setup (the test statistic only looks at the
  // tail anyway).
  std::vector<double> sorted(positive.begin(), positive.end());
  std::sort(sorted.begin(), sorted.end());
  const double cutoff = std::max(
      stats::quantile_sorted(sorted, lower_quantile(options.tail_fraction)),
      1e-12);
  double alpha;
  if (options.alpha_override) {
    alpha = *options.alpha_override;
    if (!(alpha > 0.0))
      return Error::invalid_argument("curvature_test: alpha_override <= 0");
  } else {
    auto fit = stats::Pareto::fit_mle(positive, cutoff);
    if (!fit) return fit.error();
    alpha = fit.value().alpha();
  }
  const auto body_end = static_cast<std::size_t>(
      std::lower_bound(sorted.begin(), sorted.end(), cutoff) - sorted.begin());
  const double p_tail =
      static_cast<double>(n - body_end) / static_cast<double>(n);
  return pareto(n, alpha, cutoff, p_tail,
                std::span<const double>(sorted).first(body_end),
                options.tail_fraction);
}

std::size_t CurvatureNull::draw_llcd(support::Rng& rng,
                                     std::vector<double>& log10_x,
                                     std::vector<double>& log10_ccdf) const {
  log10_x.clear();
  log10_ccdf.clear();

  // The k continuous draws sit above every body value. Under the Pareto
  // null k ~ Binomial(n, p_tail), and the other n - k draws pick body
  // indices uniformly; counting them per distinct value yields the body's
  // ecdf steps already in order.
  std::size_t k = n_;
  std::size_t distinct_body = 0;
  std::vector<std::uint32_t>* counts = nullptr;
  if (model_ == TailModel::kPareto) {
    k = 0;
    for (std::size_t i = 0; i < n_; ++i) k += rng.uniform() < p_tail_ ? 1 : 0;
    counts = &support::Workspace::for_thread().index(
        support::ws::kCurvatureBodyCounts);
    counts->assign(group_log10_x_.size(), 0);
    for (std::size_t i = k; i < n_; ++i)
      ++(*counts)[body_group_[rng.below(body_.size())]];
    for (const std::uint32_t c : *counts) distinct_body += c != 0 ? 1 : 0;
  }

  // Plot positions 0..points-1 ascend over the distinct values; the last
  // one (CCDF 0) is dropped, leaving m points. Only [first, m) is written,
  // where first is the lower index of the quantile tail_curvature cuts at.
  const std::size_t points = distinct_body + k;
  if (points < 3) return points == 0 ? 0 : points - 1;
  const std::size_t m = points - 1;
  const std::size_t first =
      stats::quantile_position(m, lower_quantile(tail_fraction_)).lo;
  log10_x.resize(m - first);
  log10_ccdf.resize(m - first);

  const std::size_t body_stop = std::min(distinct_body, m);
  if (first < body_stop) {
    std::size_t pos = 0;
    std::size_t cumulative = 0;
    for (std::size_t g = 0; pos < body_stop; ++g) {
      if ((*counts)[g] == 0) continue;
      cumulative += (*counts)[g];
      if (pos >= first) {
        log10_x[pos - first] = group_log10_x_[g];
        log10_ccdf[pos - first] = log10_ccdf_[cumulative];
      }
      ++pos;
    }
  }

  // Continuous points fill positions [start, m): position p holds the
  // (points - p)-th largest draw, whose cumulative count is n - points + p + 1.
  const std::size_t start = std::max(first, distinct_body);
  if (start < m) {
    const auto ccdf_from = static_cast<std::ptrdiff_t>(n_ - points + start + 1);
    std::copy(log10_ccdf_.begin() + ccdf_from, log10_ccdf_.end(),
              log10_ccdf.begin() + static_cast<std::ptrdiff_t>(start - first));
    const std::span<double> top(log10_x.data() + (start - first), m - start);
    if (model_ == TailModel::kPareto) {
      // Pareto(alpha, cutoff): x = cutoff * S^(-1/alpha).
      const double log10_cutoff = std::log10(param2_);
      const double slope = 1.0 / (param1_ * std::numbers::ln10);
      top_order_statistics(rng, k, top, [log10_cutoff, slope](double s) {
        return log10_cutoff - std::log(s) * slope;
      });
    } else {
      // Lognormal(mu, sigma): ln x = mu - sigma * Phi^-1(S). Acklam's
      // approximation (relative error < 1.2e-9); S is kept below 1, which
      // only an E_j above ~37 could reach.
      const double a = param1_ / std::numbers::ln10;
      const double b = param2_ / std::numbers::ln10;
      top_order_statistics(rng, k, top, [a, b](double s) {
        return a - b * stats::normal_quantile(std::min(s, 1.0 - 0x1.0p-53));
      });
    }
  }
  return m;
}

Result<double> CurvatureNull::replicate_curvature(support::Rng& rng) const {
  auto& arena = support::Workspace::for_thread();
  auto& lx = arena.real(support::ws::kCurvatureLog10X);
  auto& ly = arena.real(support::ws::kCurvatureLog10Ccdf);
  const std::size_t m = draw_llcd(rng, lx, ly);
  if (m < 2)
    return Error::insufficient_data("llcd_plot: fewer than 2 positive points");
  return tail_curvature(lx, ly, m, tail_fraction_);
}

Result<CurvatureResult> curvature_test(std::span<const double> xs,
                                       support::Rng& rng,
                                       const CurvatureOptions& options) {
  std::vector<double> positive;
  positive.reserve(xs.size());
  for (double v : xs)
    if (v > 0.0) positive.push_back(v);
  if (positive.size() < 50)
    return Error::insufficient_data("curvature_test: need n >= 50");

  auto curv_r = llcd_curvature(positive, options.tail_fraction);
  if (!curv_r) return curv_r.error();
  auto null_r = CurvatureNull::fit(positive, options);
  if (!null_r) return null_r.error();
  const CurvatureNull& null = null_r.value();

  CurvatureResult result;
  result.curvature = curv_r.value();
  result.replicates = options.replicates;
  result.param1 = null.param1();
  result.param2 = null.param2();

  // Monte-Carlo reference distribution of the curvature statistic. One
  // level -1 micro-stream per replicate — subdividing the caller's leaf in
  // place — so replicate `rep` draws the same synthetic sample no matter how
  // replicates are chunked across threads: the p-value is bit-identical at
  // any thread count. grain = 1 because replicates are few (hundreds) and
  // each one is a full quadratic fit, so one task per replicate lets work
  // stealing balance the unevenness.
  support::RngSplitter streams(rng, support::RngSplitter::kMinLevel);
  std::vector<support::Rng> replicate_rngs;
  replicate_rngs.reserve(options.replicates);
  for (std::size_t rep = 0; rep < options.replicates; ++rep)
    replicate_rngs.push_back(streams.stream(rep));

  std::vector<std::optional<double>> curvatures(options.replicates);
  support::Executor& ex = support::Executor::resolve(options.executor);
  ex.parallel_for(
      0, options.replicates,
      [&](std::size_t rep) {
        if (auto c = null.replicate_curvature(replicate_rngs[rep]); c.ok())
          curvatures[rep] = c.value();
      },
      /*grain=*/1);

  std::size_t less_eq = 0;
  std::size_t greater_eq = 0;
  std::size_t usable = 0;
  for (const auto& c : curvatures) {
    if (!c.has_value()) continue;
    ++usable;
    if (*c <= result.curvature) ++less_eq;
    if (*c >= result.curvature) ++greater_eq;
  }
  if (usable < options.replicates / 2)
    return Error::numeric("curvature_test: too many degenerate replicates");

  // Two-sided Monte-Carlo p-value with the standard +1 correction.
  const double p_lo = static_cast<double>(less_eq + 1) /
                      static_cast<double>(usable + 1);
  const double p_hi = static_cast<double>(greater_eq + 1) /
                      static_cast<double>(usable + 1);
  result.p_value = std::min(1.0, 2.0 * std::min(p_lo, p_hi));
  result.rejected_at_5pct = result.p_value < 0.05;
  return result;
}

}  // namespace fullweb::tail
