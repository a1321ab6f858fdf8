#pragma once

// The benchmark's own arithmetic: its random stream, percentiles over raw
// samples, the open-loop arrival schedule, Zipf popularity, the max-rate
// search, the backlog test and the failure ledger. Free of lbnn, so the unit tests drive it
// with synthetic inputs.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

namespace perfbench {

/// splitmix64. Request streams come from this rather than lbnn's Rng, so a
/// change inside lbnn cannot change the workload.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  bool coin() { return (next() & 1) != 0; }

 private:
  std::uint64_t state_;
};

/// Derives an independent stream seed from a run seed and a purpose tag.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  SplitMix s(seed ^ (tag * 0xD1B54A32D192ED03ull));
  return s.next();
}

/// Nearest-rank percentile (q in [0, 1]) of ascending samples: the smallest
/// sample with at least q of all samples at or below it.
inline double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t idx =
      rank <= 1.0 ? 0 : std::min(sorted.size(), static_cast<std::size_t>(rank)) - 1;
  return sorted[idx];
}

struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
  double max = 0.0;
};

/// Summarizes raw samples (sorted in place). Infinite samples stand for
/// requests that failed: they count against every percentile.
inline Summary summarize(std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  Summary s;
  s.n = samples.size();
  if (s.n == 0) return s;
  s.p50 = percentile_sorted(samples, 0.50);
  s.p90 = percentile_sorted(samples, 0.90);
  s.p99 = percentile_sorted(samples, 0.99);
  s.p999 = percentile_sorted(samples, 0.999);
  s.max = samples.back();
  return s;
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// The fast end of a run's repetitions of one measurement: the 10th
/// percentile of times, or the 90th of rates. Other work on a shared host
/// only ever slows a repetition, and how many it slows changes from run to
/// run; this end of the distribution moves several times less between runs
/// than the median does.
inline double fast_time(std::vector<double> times) {
  std::sort(times.begin(), times.end());
  return percentile_sorted(times, 0.10);
}
inline double fast_rate(std::vector<double> rates) {
  std::sort(rates.begin(), rates.end());
  return percentile_sorted(rates, 0.90);
}

inline double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

/// Open-loop Poisson arrivals: due offsets in ns from the phase start, with
/// exponential gaps of mean 1/rate, covering `seconds`. The same (rate,
/// seconds, seed) always gives the same schedule.
inline std::vector<std::int64_t> poisson_schedule(double rate, double seconds,
                                                  std::uint64_t seed) {
  std::vector<std::int64_t> due;
  if (rate <= 0.0 || seconds <= 0.0) return due;
  due.reserve(static_cast<std::size_t>(rate * seconds * 1.05) + 16);
  SplitMix rng(seed);
  const double horizon_ns = seconds * 1e9;
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-rng.uniform()) / rate * 1e9;
    if (t >= horizon_ns) break;
    due.push_back(static_cast<std::int64_t>(t));
  }
  return due;
}

/// Zipf(s) over n ranks: P(k) proportional to 1 / (k + 1)^s, rank 0 the most
/// popular.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n == 0 ? 1 : n) {
    double total = 0.0;
    for (std::size_t k = 0; k < cdf_.size(); ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[k] = total;
    }
    for (double& c : cdf_) c /= total;
    cdf_.back() = 1.0;
  }
  double probability(std::size_t k) const {
    return k == 0 ? cdf_[0] : cdf_[k] - cdf_[k - 1];
  }
  std::size_t pick(SplitMix& rng) const {
    const double u = rng.uniform();
    return static_cast<std::size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end() - 1, u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

struct Probe {
  double rate = 0.0;
  bool feasible = false;
};

/// Search for the highest sustained rate above lo, which is taken as
/// sustained. Until a probe fails the rate doubles, so the upper end of the
/// search is a measured failure, never an assumed cap; from then on each
/// probe at next() moves lo or hi to their geometric midpoint. A finite hi
/// passed in is taken as not sustained. result() is the final lo; it means
/// nothing while bounded() is false (no probe has failed yet).
class Bisection {
 public:
  explicit Bisection(double lo, double hi = std::numeric_limits<double>::infinity())
      : lo_(lo), hi_(hi) {}
  double next() const { return bounded() ? std::sqrt(lo_ * hi_) : 2.0 * lo_; }
  void report(double rate, bool sustained) {
    trail_.push_back({rate, sustained});
    (sustained ? lo_ : hi_) = rate;
  }
  bool bounded() const { return std::isfinite(hi_); }
  double result() const { return lo_; }
  double hi() const { return hi_; }
  const std::vector<Probe>& trail() const { return trail_; }

 private:
  double lo_;
  double hi_;
  std::vector<Probe> trail_;
};

/// A backlog is growing when the mean outstanding count over the last third
/// of a phase exceeds the first third's by half plus `slack` requests.
inline bool backlog_growing(const std::vector<std::size_t>& outstanding,
                            double slack) {
  const std::size_t third = outstanding.size() / 3;
  if (third == 0) return false;
  const auto mean = [&](std::size_t from) {
    const double sum = std::accumulate(outstanding.begin() + from,
                                       outstanding.begin() + from + third, 0.0);
    return sum / static_cast<double>(third);
  };
  return mean(outstanding.size() - third) > 1.5 * mean(0) + slack;
}

/// How the requests of a phase ended: attempted = correct + refused (one
/// count per admission status) + deadline_exceeded + other_error + wrong.
/// `late` counts correct answers that missed the latency limit.
/// `other_error` holds answers that resolved with any other exception (a
/// simulator error, a broken promise) and requests never answered at all.
template <std::size_t RefusalKinds>
struct BasicLedger {
  std::uint64_t attempted = 0;
  std::uint64_t correct = 0;
  std::uint64_t late = 0;
  std::array<std::uint64_t, RefusalKinds> refused{};
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t other_error = 0;
  std::uint64_t wrong = 0;

  std::uint64_t refused_total() const {
    return std::accumulate(refused.begin(), refused.end(), std::uint64_t{0});
  }
  bool closes() const {
    return attempted ==
           correct + refused_total() + deadline_exceeded + other_error + wrong;
  }
  /// Refusals, deadline misses and late answers are the serving stack's
  /// answer to load; a wrong answer, an unexpected error or a request left
  /// unanswered is a fault, and so is a ledger that does not close.
  bool clean() const { return closes() && wrong == 0 && other_error == 0; }
  std::uint64_t ok() const { return correct - late; }
  void add(const BasicLedger& o) {
    attempted += o.attempted;
    correct += o.correct;
    late += o.late;
    for (std::size_t i = 0; i < RefusalKinds; ++i) refused[i] += o.refused[i];
    deadline_exceeded += o.deadline_exceeded;
    other_error += o.other_error;
    wrong += o.wrong;
  }
};

}  // namespace perfbench
