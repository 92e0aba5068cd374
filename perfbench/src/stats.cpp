#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <random>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid), values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lower + upper);
}

Tail tail_percentile(std::vector<double> values, std::size_t min_beyond) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n <= min_beyond) {
    tail.value = values.back();
    tail.percentile = 100.0;
    return tail;
  }
  const std::size_t rank = n - min_beyond - 1;
  tail.value = values[rank];
  tail.beyond = n - rank - 1;
  tail.percentile = 100.0 * static_cast<double>(n - min_beyond) / static_cast<double>(n);
  tail.valid = true;
  return tail;
}

std::vector<double> poisson_schedule(double rate_per_s, double duration_s, std::uint64_t seed) {
  std::vector<double> due;
  if (rate_per_s <= 0.0 || duration_s <= 0.0) return due;
  // std::mt19937_64 and the inverse-CDF draw below are fully specified by
  // the standard, so the schedule is identical across standard libraries
  // (std::exponential_distribution is not).
  std::mt19937_64 rng(seed);
  double t = 0.0;
  for (;;) {
    const double u = (static_cast<double>(rng() >> 11) + 0.5) * 0x1.0p-53;  // (0, 1)
    t += -std::log(u) / rate_per_s;
    if (t >= duration_s) break;
    due.push_back(t);
  }
  return due;
}

RungVerdict judge_rung(const RungResult& rung, const LadderRules& rules) {
  RungVerdict verdict;
  verdict.failures_ok = rung.attempted > 0 && rung.failed == 0;
  verdict.tail_ok = rung.tail.valid && rung.tail.value <= rules.tail_limit_ms;
  const double drainable = rung.offered_rate * rules.tail_limit_ms * 1e-3;
  const auto allowed = std::max(rules.min_growth, static_cast<std::int64_t>(drainable));
  verdict.backlog_ok = rung.backlog_end - rung.backlog_start <= allowed;
  return verdict;
}

int highest_passing_rung(const std::vector<RungResult>& rungs, const LadderRules& rules) {
  int best = -1;
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    if (!judge_rung(rungs[i], rules).pass()) break;
    best = static_cast<int>(i);
  }
  return best;
}

double chi_square_uniform(const std::vector<std::int64_t>& observed) {
  if (observed.empty()) return 0.0;
  double total = 0.0;
  for (const std::int64_t o : observed) total += static_cast<double>(o);
  const double expected = total / static_cast<double>(observed.size());
  if (expected <= 0.0) return 0.0;
  double chi2 = 0.0;
  for (const std::int64_t o : observed) {
    const double d = static_cast<double>(o) - expected;
    chi2 += d * d / expected;
  }
  return chi2;
}

double chi_square_critical(int dof, double z) {
  const double k = static_cast<double>(dof);
  const double a = 2.0 / (9.0 * k);
  const double c = 1.0 - a + z * std::sqrt(a);
  return k * c * c * c;
}

}  // namespace perfbench
