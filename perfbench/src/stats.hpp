#pragma once
// The benchmark's arithmetic: order statistics, the tail-percentile rule,
// the open-loop arrival schedule with due-time latency accounting, the
// rate-ladder verdict, and the chi-square uniformity check.  Pure functions
// only, so tests/test_arith.cpp covers them without running a workload.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the middle two for an even count); 0 for none.
double median(std::vector<double> values);

/// The highest percentile with at least `min_beyond` samples strictly above
/// its rank: with n sorted samples that is the order statistic at 0-based
/// rank n - min_beyond - 1, which reads as percentile 100 * (n - min_beyond)
/// / n.  `valid` is false (and value the maximum) when n <= min_beyond.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
  bool valid = false;
};
Tail tail_percentile(std::vector<double> values, std::size_t min_beyond = 10);

/// Seeded Poisson arrivals: due offsets (seconds from the rung's start) of
/// every request in [0, duration_s) at `rate_per_s`.  Same seed, same
/// schedule.
std::vector<double> poisson_schedule(double rate_per_s, double duration_s, std::uint64_t seed);

/// Due-time accounting of one open-loop request (all in seconds on one
/// clock).  Latency runs from when the request was *due*, not when the
/// generator got around to sending it, so a generator stall is charged to
/// every request it delays; lag is how late the send was.
struct DueTimes {
  double due = 0.0;
  double sent = 0.0;
  double settled = 0.0;
};
inline double due_latency(const DueTimes& t) { return t.settled - t.due; }
inline double send_lag(const DueTimes& t) { return t.sent > t.due ? t.sent - t.due : 0.0; }

/// One rung of the offered-rate ladder, as measured.
struct RungResult {
  double offered_rate = 0.0;  ///< jobs/s the schedule offered
  std::size_t attempted = 0;
  std::size_t failed = 0;     ///< transport, SHED, REJECTED, FAILED, wrong output
  Tail tail;                  ///< due-time latency tail, ms
  std::int64_t backlog_start = 0;  ///< daemon queued + in_flight at rung start
  std::int64_t backlog_end = 0;    ///< ... when the rung's last request went out
  double completed_rate = 0.0;     ///< settled jobs / rung wall, jobs/s
};

struct RungVerdict {
  bool failures_ok = false;
  bool tail_ok = false;
  bool backlog_ok = false;
  bool pass() const { return failures_ok && tail_ok && backlog_ok; }
};

/// A rung passes when nothing failed, the latency tail is within
/// `tail_limit_ms`, and the backlog did not grow.  It "grows" when it ends
/// the rung more than max(min_growth, offered_rate * tail_limit) jobs above
/// where it started: a queue the offered rate refills faster than the
/// latency limit can drain it, not a momentary burst.
struct LadderRules {
  double tail_limit_ms = 0.0;
  std::int64_t min_growth = 8;
};
RungVerdict judge_rung(const RungResult& rung, const LadderRules& rules);

/// Walks the ladder bottom-up and stops at the first failing rung.  Returns
/// the index of the highest passing rung below it, or -1 if the first rung
/// already fails.
int highest_passing_rung(const std::vector<RungResult>& rungs, const LadderRules& rules);

/// Pearson chi-square of `observed` against equal expected counts.
double chi_square_uniform(const std::vector<std::int64_t>& observed);
/// Upper critical value of chi-square with `dof` degrees of freedom at the
/// standard-normal quantile `z` (Wilson-Hilferty).  z = 6 is a false-alarm
/// rate near 1e-9, so a correct sampler essentially never trips it.
double chi_square_critical(int dof, double z = 6.0);

}  // namespace perfbench
