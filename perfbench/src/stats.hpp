// Order statistics and open-loop accounting used by every workload.
//
// Header-only and free of library dependencies so the helper tests can
// exercise them directly.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for
/// an empty sample.
inline double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

inline double median(const std::vector<double>& xs) { return quantile(xs, 0.5); }

/// Samples strictly above the q-quantile's rank: floor(n * (1 - q)).
inline std::size_t samples_beyond(std::size_t n, double q) {
  return static_cast<std::size_t>(
      std::floor(static_cast<double>(n) * (1.0 - q) + 1e-9));
}

/// The highest of the usual reporting percentiles (p99.9, p99, p90, p75,
/// p50) that still has at least `min_beyond` samples beyond it; 0 when even
/// the median does not.
inline double supported_tail(std::size_t n, std::size_t min_beyond = 10) {
  constexpr std::array<double, 5> ladder{0.999, 0.99, 0.90, 0.75, 0.50};
  for (double q : ladder)
    if (samples_beyond(n, q) >= min_beyond) return q;
  return 0.0;
}

/// First quartile, median, third quartile — the same values as Python's
/// statistics.quantiles(xs, n=4) (its default "exclusive" method), which
/// is how benchmark spreads are judged. Needs at least two samples.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  /// (q3 - q1) / median: the run-to-run spread as a share of the median.
  [[nodiscard]] double spread() const {
    return median != 0.0 ? (q3 - q1) / median : 0.0;
  }
};

inline Quartiles quartiles(std::vector<double> xs) {
  if (xs.size() < 2) throw std::invalid_argument("quartiles need two samples");
  std::sort(xs.begin(), xs.end());
  const auto n = static_cast<long>(xs.size());
  const long m = n + 1;
  std::array<double, 3> cut{};
  for (long i = 1; i <= 3; ++i) {
    // Python: j = i*m // 4 clamped to [1, n-1], then delta = i*m - j*4
    // (with the clamped j, so small samples extrapolate exactly as Python
    // does).
    const long j = std::clamp(i * m / 4, 1L, n - 1);
    const long delta = i * m - j * 4;
    const auto ju = static_cast<std::size_t>(j);
    cut[static_cast<std::size_t>(i - 1)] =
        (xs[ju - 1] * static_cast<double>(4 - delta) +
         xs[ju] * static_cast<double>(delta)) /
        4.0;
  }
  return {cut[0], cut[1], cut[2]};
}

/// How far an open-loop generator fell behind its schedule.
struct LagReport {
  std::size_t scheduled = 0;  ///< sends the schedule asked for
  std::size_t sent = 0;       ///< sends that actually went out
  std::size_t late = 0;       ///< sends later than the threshold
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  /// A run is valid when every scheduled send went out and at most
  /// `max_late_frac` of them were later than the threshold.
  bool valid = false;
};

/// `scheduled[i]` is when send i was due and `sent[i]` when it went out
/// (seconds on one clock; `sent` may be shorter when the window ended with
/// sends outstanding — those count as missing).
inline LagReport account_lag(const std::vector<double>& scheduled,
                             const std::vector<double>& sent,
                             double late_threshold_s, double max_late_frac) {
  if (sent.size() > scheduled.size())
    throw std::invalid_argument("more sends than scheduled");
  LagReport r;
  r.scheduled = scheduled.size();
  r.sent = sent.size();
  std::vector<double> lag_ms(sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    const double lag = std::max(0.0, sent[i] - scheduled[i]);
    lag_ms[i] = lag * 1e3;
    if (lag > late_threshold_s) ++r.late;
  }
  r.p50_ms = quantile(lag_ms, 0.50);
  r.p99_ms = quantile(lag_ms, 0.99);
  r.max_ms = lag_ms.empty() ? 0.0
                            : *std::max_element(lag_ms.begin(), lag_ms.end());
  r.valid = r.sent == r.scheduled && r.scheduled > 0 &&
            static_cast<double>(r.late) <=
                max_late_frac * static_cast<double>(r.scheduled);
  return r;
}

}  // namespace perfbench
