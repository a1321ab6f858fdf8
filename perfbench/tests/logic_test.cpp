// Unit tests of the benchmark's own arithmetic, on synthetic inputs.
//
//   python3 perfbench/run.py --self-test

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

TEST(Percentile, NearestRankOnRawSamples) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, unsorted
  const Summary s = summarize(v);
  EXPECT_EQ(s.n, 100u);
  EXPECT_EQ(s.p50, 50.0);
  EXPECT_EQ(s.p99, 99.0);
  EXPECT_EQ(s.max, 100.0);
}

TEST(Percentile, FailuresCountAgainstEveryPercentile) {
  std::vector<double> v(1000, 10.0);
  for (int i = 0; i < 11; ++i) v[i] = std::numeric_limits<double>::infinity();
  const Summary s = summarize(v);
  EXPECT_EQ(s.n, 1000u);
  EXPECT_EQ(s.p50, 10.0);
  EXPECT_EQ(s.p90, 10.0);
  EXPECT_TRUE(std::isinf(s.p99));  // 1.1% failed: p99 misses any limit
}

TEST(Percentile, EdgeCases) {
  std::vector<double> empty;
  EXPECT_EQ(summarize(empty).n, 0u);
  std::vector<double> one = {7.0};
  const Summary s = summarize(one);
  EXPECT_EQ(s.p50, 7.0);
  EXPECT_EQ(s.p99, 7.0);
  EXPECT_EQ(percentile_sorted({1, 2, 3, 4}, 0.0), 1.0);
  EXPECT_EQ(percentile_sorted({1, 2, 3, 4}, 1.0), 4.0);
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 2, 3}), 2.5);
}

TEST(Percentile, FastEndIgnoresSlowedRepetitions) {
  // 20 repetitions at 1.0 s, 10 of them slowed: the median moves, the fast
  // end does not.
  std::vector<double> times(20, 1.0);
  for (int i = 0; i < 10; ++i) times[2 * i] = 1.5;
  EXPECT_EQ(fast_time(times), 1.0);
  EXPECT_EQ(median(times), 1.25);
  std::vector<double> rates(20, 100.0);
  for (int i = 0; i < 10; ++i) rates[i] = 60.0;
  EXPECT_EQ(fast_rate(rates), 100.0);
}

TEST(Poisson, SameSeedSameScheduleAndRateHolds) {
  const auto a = poisson_schedule(20000.0, 2.0, 42);
  const auto b = poisson_schedule(20000.0, 2.0, 42);
  const auto c = poisson_schedule(20000.0, 2.0, 43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // 40000 expected arrivals; 5 sigma is 1000.
  EXPECT_NEAR(static_cast<double>(a.size()), 40000.0, 1000.0);
  for (std::size_t i = 1; i < a.size(); ++i) ASSERT_LE(a[i - 1], a[i]);
  EXPECT_GE(a.front(), 0);
  EXPECT_LT(a.back(), 2000000000);
  // Exponential gaps: the share of gaps above the mean is e^-1.
  std::size_t above = 0;
  for (std::size_t i = 1; i < a.size(); ++i) above += (a[i] - a[i - 1]) > 50000 ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(above) / static_cast<double>(a.size() - 1), std::exp(-1.0),
              0.02);
}

TEST(Zipf, FrequenciesFollowOneOverRank) {
  const Zipf z(8, 1.0);
  SplitMix rng(7);
  std::vector<double> count(8, 0.0);
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) count[z.pick(rng)] += 1.0;
  double total_p = 0.0;
  for (std::size_t k = 0; k < 8; ++k) {
    EXPECT_NEAR(count[k] / kDraws, z.probability(k), 0.005);
    total_p += z.probability(k);
  }
  EXPECT_NEAR(total_p, 1.0, 1e-12);
  EXPECT_NEAR(z.probability(0) / z.probability(1), 2.0, 1e-9);
}

TEST(Bisection, FindsTheKneeOfASyntheticLatencyCurve) {
  // M/M/1-like p99: 1 / (capacity - rate) scaled; limit crossed at 95k.
  const double capacity = 100000.0;
  const auto p99_us = [&](double rate) {
    return rate >= capacity ? std::numeric_limits<double>::infinity()
                            : 1e4 / (capacity - rate) * 1e3 / 100.0;
  };
  // p99 <= 2000 us  <=>  rate <= capacity - 50.
  const double limit = 2000.0;
  Bisection b(25000.0);
  for (int i = 0; i < 12; ++i) {
    const double rate = b.next();
    b.report(rate, p99_us(rate) <= limit);
  }
  const double knee = capacity - 1e4 * 1e3 / 100.0 / limit;
  ASSERT_TRUE(b.bounded());
  EXPECT_EQ(b.trail()[0].rate, 50000.0);   // doubling: passes
  EXPECT_EQ(b.trail()[1].rate, 100000.0);  // doubling: fails, bisection starts
  EXPECT_LE(b.result(), knee);
  // 10 halvings of log(2) leave an interval of 2^(1/1024).
  EXPECT_GE(b.result(), knee / std::pow(2.0, 1.0 / 1024.0) * 0.999);
  ASSERT_EQ(b.trail().size(), 12u);
  for (const Probe& p : b.trail()) EXPECT_EQ(p.feasible, p.rate <= knee);
}

TEST(Bisection, HasNoUpperCap) {
  // A knee 40x above the start is found: the upper end is measured.
  const double knee = 40000.0;
  Bisection b(1000.0);
  for (int i = 0; i < 12; ++i) {
    const double rate = b.next();
    b.report(rate, rate <= knee);
  }
  // Five doublings pass, the sixth fails; six bisections of [32k, 64k].
  ASSERT_TRUE(b.bounded());
  EXPECT_LE(b.result(), knee);
  EXPECT_GT(b.hi(), knee);
  EXPECT_NEAR(b.hi() / b.result(), std::pow(2.0, 1.0 / 64.0), 1e-12);
}

TEST(Bisection, BoundedAndUnboundedEnds) {
  Bisection none(1000.0, 4000.0);
  Bisection all(1000.0, 4000.0);
  Bisection open(1000.0);
  for (int i = 0; i < 6; ++i) {
    none.report(none.next(), false);
    all.report(all.next(), true);
    open.report(open.next(), true);
  }
  EXPECT_EQ(none.result(), 1000.0);
  EXPECT_NEAR(all.result(), 4000.0 / std::pow(4.0, 1.0 / 64.0), 1e-6);
  // Every probe passed: no unsustained rate was seen, so no result.
  EXPECT_FALSE(open.bounded());
  EXPECT_EQ(open.result(), 64000.0);
}

TEST(Ledger, ClosesAndIsCleanOnlyWithoutFaults) {
  using L = BasicLedger<3>;
  L load;  // refusals, deadline misses and late answers are not faults
  load.attempted = 100;
  load.correct = 90;
  load.late = 5;
  load.refused = {0, 4, 2};
  load.deadline_exceeded = 4;
  EXPECT_TRUE(load.closes());
  EXPECT_TRUE(load.clean());
  EXPECT_EQ(load.ok(), 85u);

  L error = load;  // an unexpected exception, or a request never answered
  error.attempted += 1;
  error.other_error = 1;
  EXPECT_TRUE(error.closes());
  EXPECT_FALSE(error.clean());

  L wrong = load;
  wrong.attempted += 1;
  wrong.wrong = 1;
  EXPECT_TRUE(wrong.closes());
  EXPECT_FALSE(wrong.clean());

  L open = load;  // a request that is in no outcome
  open.attempted += 1;
  EXPECT_FALSE(open.closes());
  EXPECT_FALSE(open.clean());

  L sum;
  sum.add(load);
  sum.add(error);
  EXPECT_EQ(sum.attempted, 201u);
  EXPECT_EQ(sum.refused_total(), 12u);
  EXPECT_TRUE(sum.closes());
  EXPECT_FALSE(sum.clean());
}

TEST(Backlog, GrowthDetection) {
  std::vector<std::size_t> flat(300, 20);
  EXPECT_FALSE(backlog_growing(flat, 128.0));
  std::vector<std::size_t> ramp;
  for (std::size_t i = 0; i < 300; ++i) ramp.push_back(i * 10);
  EXPECT_TRUE(backlog_growing(ramp, 128.0));
  EXPECT_FALSE(backlog_growing({1, 2}, 0.0));  // too few samples to judge
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  // root [0,100); children [10,30) and [20,50) overlap -> cover 40; a child
  // sticking out [90,120) is clipped to 10. Grandchild [12,18) under child 1.
  std::vector<Span> s = {
      {0, 100, 1, -1, 0},   // 0 root
      {10, 30, 1, 0, 1},    // 1
      {20, 50, 1, 0, 1},    // 2
      {90, 120, 1, 0, 1},   // 3
      {12, 18, 1, 1, 2},    // 4
  };
  const auto self = self_times(s);
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 20 - 6);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 6);
}

TEST(Spans, LayerTotalsAddUpToRootTime) {
  SpanLog log(16);
  const auto req = log.name_id("gen.request");
  const auto late = log.name_id("gen.late");
  const auto sub = log.name_id("runtime.submit");
  const auto wait = log.name_id("runtime.wait");
  const auto root = log.add(req, 0, 0, -1, 7);
  log.add(late, 0, 5, root, 7);
  log.add(sub, 5, 8, root, 7);
  log.add(wait, 8, 100, root, 7);
  log.set_end(root, 100);
  double roots = 0.0;
  const auto self = log.layer_self_seconds(&roots);
  EXPECT_DOUBLE_EQ(roots, 100e-9);
  EXPECT_DOUBLE_EQ(self.at("gen"), 5e-9);
  EXPECT_DOUBLE_EQ(self.at("runtime"), 95e-9);
  EXPECT_EQ(layer_of("serve.alias_submit"), "serve");
}

TEST(Spans, FullLogDropsAndCounts) {
  SpanLog log(2);
  const auto n = log.name_id("x.y");
  EXPECT_EQ(log.add(n, 0, 1, -1, 1), 0);
  EXPECT_EQ(log.add(n, 0, 1, -1, 2), 1);
  EXPECT_EQ(log.add(n, 0, 1, -1, 3), -1);
  EXPECT_EQ(log.dropped(), 1u);
  log.set_end(-1, 5);  // a dropped root is a no-op
  EXPECT_EQ(log.spans().size(), 2u);
}

TEST(Spans, FileHoldsEverySpan) {
  SpanLog log(8);
  const auto req = log.name_id("gen.request");
  const auto sub = log.name_id("runtime.submit");
  const auto root = log.add(req, 10, 40, -1, 9);
  log.add(sub, 12, 30, root, 9);
  log.add(req, 50, 60, -1, 10);
  std::ostringstream os;
  log.write_json(os);
  EXPECT_EQ(os.str(),
            "{\"spans_recorded\":3,\"spans_dropped\":0,"
            "\"names\":[\"gen.request\",\"runtime.submit\"],"
            "\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"request\"],"
            "\"spans\":[\n[0,10,40,-1,9],\n[1,12,30,0,9],\n[0,50,60,-1,10]]}\n");
}

}  // namespace
}  // namespace perfbench
