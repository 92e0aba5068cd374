// Tests of the benchmark's own arithmetic: the tail-percentile rule, the
// rate-ladder / backlog verdict, the seeded open-loop schedule and its
// due-time latency accounting, span self-time subtraction, and the
// chi-square check.  Plain checks, no framework: exit status 0 iff all pass.
//
//   .bench_build/perfbench_tests

#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    ++failures;
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b, double eps = 1e-9) { return std::fabs(a - b) <= eps; }

void test_median() {
  CHECK(near(perfbench::median({}), 0.0));
  CHECK(near(perfbench::median({3.0, 1.0, 2.0}), 2.0));
  CHECK(near(perfbench::median({4.0, 1.0, 3.0, 2.0}), 2.5));
}

void test_tail_selects_ten_beyond() {
  // 1..100: ten samples (91..100) lie beyond rank 89 -> value 90 at p90.
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  const perfbench::Tail t = perfbench::tail_percentile(v);
  CHECK(t.valid);
  CHECK(near(t.value, 90.0));
  CHECK(near(t.percentile, 90.0));
  CHECK(t.beyond == 10);
  CHECK(t.samples == 100);

  // 1000 samples -> p99, the 990th value.
  std::vector<double> w;
  for (int i = 1; i <= 1000; ++i) w.push_back(i);
  const perfbench::Tail u = perfbench::tail_percentile(w);
  CHECK(near(u.value, 990.0));
  CHECK(near(u.percentile, 99.0));

  // Eleven samples is the smallest count with a valid tail (the minimum).
  const perfbench::Tail small = perfbench::tail_percentile({5, 4, 3, 2, 1, 6, 7, 8, 9, 10, 11});
  CHECK(small.valid);
  CHECK(near(small.value, 1.0));
  // Ten or fewer: no percentile has ten samples beyond it.
  const perfbench::Tail none = perfbench::tail_percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  CHECK(!none.valid);
  CHECK(near(none.value, 10.0));
}

void test_schedule_is_seeded_and_poisson() {
  const auto a = perfbench::poisson_schedule(1000.0, 2.0, 7);
  const auto b = perfbench::poisson_schedule(1000.0, 2.0, 7);
  const auto c = perfbench::poisson_schedule(1000.0, 2.0, 8);
  CHECK(a == b);
  CHECK(a != c);
  // ~2000 arrivals; 5 sigma is ~224.
  CHECK(a.size() > 1776 && a.size() < 2224);
  bool sorted = true;
  for (std::size_t i = 1; i < a.size(); ++i) sorted = sorted && a[i] > a[i - 1];
  CHECK(sorted);
  CHECK(!a.empty() && a.front() >= 0.0 && a.back() < 2.0);
  CHECK(perfbench::poisson_schedule(0.0, 1.0, 1).empty());
}

void test_due_time_accounting() {
  // Sent 3 ms late, settled 5 ms after sending: latency counts from due.
  const perfbench::DueTimes late{1.000, 1.003, 1.008};
  CHECK(near(perfbench::due_latency(late), 0.008));
  CHECK(near(perfbench::send_lag(late), 0.003));
  // Sent early (never happens in the loop, but lag must not go negative).
  const perfbench::DueTimes early{1.000, 0.999, 1.002};
  CHECK(near(perfbench::send_lag(early), 0.0));
  CHECK(near(perfbench::due_latency(early), 0.002));
}

perfbench::RungResult rung(double rate, std::size_t attempted, std::size_t failed, double tail_ms,
                           std::int64_t backlog_start, std::int64_t backlog_end) {
  perfbench::RungResult r;
  r.offered_rate = rate;
  r.attempted = attempted;
  r.failed = failed;
  r.tail.valid = true;
  r.tail.value = tail_ms;
  r.backlog_start = backlog_start;
  r.backlog_end = backlog_end;
  return r;
}

void test_ladder_verdict() {
  perfbench::LadderRules rules;
  rules.tail_limit_ms = 5.0;
  rules.min_growth = 8;

  CHECK(perfbench::judge_rung(rung(1000, 500, 0, 4.9, 0, 3), rules).pass());
  // Each criterion alone fails the rung.
  CHECK(!perfbench::judge_rung(rung(1000, 500, 1, 1.0, 0, 0), rules).failures_ok);
  CHECK(!perfbench::judge_rung(rung(1000, 500, 0, 5.1, 0, 0), rules).tail_ok);
  CHECK(!perfbench::judge_rung(rung(1000, 100, 0, 1.0, 2, 11), rules).backlog_ok);
  CHECK(perfbench::judge_rung(rung(1000, 100, 0, 1.0, 2, 10), rules).backlog_ok);
  // Above the minimum, the allowance is what the rate queues within the
  // latency limit: 40000 jobs/s * 5 ms = 200.
  CHECK(perfbench::judge_rung(rung(40000, 5000, 0, 1.0, 0, 200), rules).backlog_ok);
  CHECK(!perfbench::judge_rung(rung(40000, 5000, 0, 1.0, 0, 201), rules).backlog_ok);
  // A backlog that shrinks is fine.
  CHECK(perfbench::judge_rung(rung(1000, 500, 0, 1.0, 40, 0), rules).backlog_ok);
  // An empty rung never passes; neither does one without a valid tail.
  CHECK(!perfbench::judge_rung(rung(1000, 0, 0, 1.0, 0, 0), rules).pass());
  perfbench::RungResult no_tail = rung(1000, 5, 0, 1.0, 0, 0);
  no_tail.tail.valid = false;
  CHECK(!perfbench::judge_rung(no_tail, rules).pass());

  // Highest passing rung stops at the first failure, even if a later one passes.
  const std::vector<perfbench::RungResult> ladder = {
      rung(1000, 500, 0, 1.0, 0, 0), rung(2000, 1000, 0, 2.0, 0, 0),
      rung(3000, 1500, 0, 9.0, 0, 0), rung(4000, 2000, 0, 1.0, 0, 0)};
  CHECK(perfbench::highest_passing_rung(ladder, rules) == 1);
  CHECK(perfbench::highest_passing_rung({rung(1000, 500, 3, 1.0, 0, 0)}, rules) == -1);
  CHECK(perfbench::highest_passing_rung({}, rules) == -1);
}

perfbench::Span span(const char* name, std::int64_t start, std::int64_t end, int parent) {
  perfbench::Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

void test_self_time_subtraction() {
  // root [0,100) with children [10,30) and [50,60); grandchild [12,20) of the first.
  const std::vector<perfbench::Span> spans = {
      span("root", 0, 100, -1), span("a", 10, 30, 0), span("b", 50, 60, 0),
      span("a.inner", 12, 20, 1)};
  const auto self = perfbench::self_times(spans);
  CHECK(self[0] == 70);  // 100 - 20 - 10
  CHECK(self[1] == 12);  // 20 - 8
  CHECK(self[2] == 10);
  CHECK(self[3] == 8);

  // Overlapping children are subtracted once; a child running past its
  // parent's end is clipped.
  const std::vector<perfbench::Span> overlap = {
      span("root", 0, 100, -1), span("x", 10, 50, 0), span("y", 40, 70, 0),
      span("z", 90, 120, 0)};
  const auto self2 = perfbench::self_times(overlap);
  CHECK(self2[0] == 30);  // covered: [10,70) + [90,100) = 70

  const auto by_name = perfbench::self_time_by_name(spans);
  CHECK(by_name.at("root").size() == 1);
  CHECK(near(by_name.at("root")[0], 70e-6));

  // The recorder nests by scope.
  perfbench::Tracer tracer;
  {
    auto outer = tracer.span("outer", 1);
    { auto inner = tracer.span("inner", 1); }
    { auto inner2 = tracer.span("inner", 1); }
  }
  { auto other = tracer.span("other", 2); }
  const auto& rec = tracer.spans();
  CHECK(rec.size() == 4);
  CHECK(rec[0].parent == -1 && rec[1].parent == 0 && rec[2].parent == 0 && rec[3].parent == -1);
  CHECK(rec[3].job == 2);
  for (const auto& s : rec) CHECK(s.end_ns >= s.start_ns);

  // A null tracer records nothing.
  { auto s = perfbench::Tracer::span_if(nullptr, "x", 1); }
}

void test_chi_square() {
  CHECK(near(perfbench::chi_square_uniform({25, 25, 25, 25}), 0.0));
  CHECK(near(perfbench::chi_square_uniform({30, 20, 25, 25}), 2.0));
  // Wilson-Hilferty at z = 1.6449 approximates the 95% point: 7 dof -> 14.07.
  CHECK(std::fabs(perfbench::chi_square_critical(7, 1.6449) - 14.07) < 0.1);
  // All shots in one of 8 bins is far past the z = 6 critical value.
  CHECK(perfbench::chi_square_uniform({128, 0, 0, 0, 0, 0, 0, 0}) >
        perfbench::chi_square_critical(7));
}

}  // namespace

int main() {
  test_median();
  test_tail_selects_ten_beyond();
  test_schedule_is_seeded_and_poisson();
  test_due_time_accounting();
  test_ladder_verdict();
  test_self_time_subtraction();
  test_chi_square();
  if (failures != 0) {
    std::fprintf(stderr, "perfbench_tests: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_tests: all checks passed\n");
  return 0;
}
