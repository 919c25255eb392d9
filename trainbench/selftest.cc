// The benchmark's own tests: the percentile helper, span self-time
// accounting, and the output check catching a seeded fault.
#include <gtest/gtest.h>

#include <cmath>

#include "percentile.h"
#include "session.h"
#include "span_log.h"

namespace trainbench {
namespace {

TEST(Percentile, InterpolatesAndCounts) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  const PercentileResult p50 = PercentileOf(v, 50);
  EXPECT_DOUBLE_EQ(p50.value, 50.5);
  EXPECT_EQ(p50.count, 100u);
  EXPECT_EQ(p50.beyond, 50u);
  const PercentileResult p99 = PercentileOf(v, 99);
  EXPECT_NEAR(p99.value, 99.01, 1e-9);
  EXPECT_EQ(p99.beyond, 1u);  // too few beyond to trust a p99
  const PercentileResult max = PercentileOf(v, 100);
  EXPECT_DOUBLE_EQ(max.value, 100.0);
  EXPECT_EQ(max.beyond, 0u);
}

TEST(Percentile, EmptyHasNoSamples) {
  const PercentileResult r = PercentileOf({}, 50);
  EXPECT_EQ(r.count, 0u);
  EXPECT_EQ(r.beyond, 0u);
}

// iter [0,100) -> forward [10,60) -> hook [20,30), hook [40,45)
//              -> step [70,90)
SpanLog SyntheticTree() {
  SpanLog log;
  const int iter = log.Add({"iter", 0, 100, -1, 7});
  const int fwd = log.Add({"train.forward", 10, 60, iter, 7});
  log.Add({"core.pre_forward", 20, 30, fwd, 7});
  log.Add({"core.pre_forward", 40, 45, fwd, 7});
  log.Add({"core.step", 70, 90, iter, 7});
  return log;
}

TEST(SpanLog, SelfTimeSubtractsDirectChildren) {
  const SpanLog log = SyntheticTree();
  const auto self = SelfTimesNs(log.spans());
  EXPECT_EQ(self, (std::vector<std::int64_t>{30, 35, 10, 5, 20}));
  const auto totals = SelfTotalsNs(log.spans());
  EXPECT_EQ(totals.at("iter"), 30);
  EXPECT_EQ(totals.at("train.forward"), 35);
  EXPECT_EQ(totals.at("core.pre_forward"), 15);
  std::int64_t sum = 0;
  for (const auto& [name, ns] : totals) sum += ns;
  EXPECT_EQ(sum, 100);  // self times partition the root
}

TEST(SpanLog, RecordsNestingAndIteration) {
  SpanLog log;
  log.Begin("ignored");  // disabled: records nothing
  EXPECT_TRUE(log.spans().empty());
  log.set_enabled(true);
  log.set_iter(3);
  {
    ScopedSpan outer(log, "iter");
    ScopedSpan inner(log, "train.data");
  }
  ASSERT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.spans()[0].parent, -1);
  EXPECT_EQ(log.spans()[1].parent, 0);
  EXPECT_EQ(log.spans()[1].iter, 3);
  EXPECT_LE(log.spans()[0].start_ns, log.spans()[1].start_ns);
  EXPECT_GE(log.spans()[0].end_ns, log.spans()[1].end_ns);
}

TEST(SpanLog, ConvertsToChromeTraceEvents) {
  const SpanLog rank0 = SyntheticTree();
  SpanLog rank1;
  rank1.Add({"iter", 5, 95, -1, 6});  // before first_iter: dropped
  rank1.Add({"iter", 105, 200, -1, 7});
  dear::TraceRecorder trace;
  AppendToTrace({&rank0, &rank1}, 7, &trace);
  const auto events = trace.Events();
  ASSERT_EQ(events.size(), 6u);
  EXPECT_EQ(events[2].name, "core.pre_forward");
  EXPECT_EQ(events[2].category, "iter=7 parent=train.forward");
  EXPECT_EQ(events[2].pid, 0);
  EXPECT_EQ(events[2].start, 20);  // from the earliest kept span
  EXPECT_EQ(events[2].duration, 10);
  EXPECT_EQ(events[0].category, "iter=7 parent=none");
  EXPECT_EQ(events[5].pid, 1);
  EXPECT_EQ(events[5].start, 105);
  EXPECT_NE(trace.ToJson().find("\"rank 1\""), std::string::npos);
}

TEST(OutputCheck, CatchesOneUlpOnOneRank) {
  std::vector<std::vector<std::vector<float>>> ranks(
      2, {{1.0f, 2.0f}, {3.0f}});
  EXPECT_EQ(CheckRanksBitwiseEqual(ranks), "");
  ranks[1][1][0] = std::nextafter(3.0f, 4.0f);
  EXPECT_NE(CheckRanksBitwiseEqual(ranks), "");
}

TEST(OutputCheck, ReferenceToleranceAndNaN) {
  dear::core::ReferenceResult ref;
  ref.params = {{1.0f, 2.0f}};
  EXPECT_EQ(CheckAgainstReference({{1.0f + 1e-4f, 2.0f}}, ref), "");
  EXPECT_NE(CheckAgainstReference({{1.0f + 1e-3f, 2.0f}}, ref), "");
  EXPECT_NE(CheckAgainstReference({{NAN, 2.0f}}, ref), "");
}

// A real session with the seeded fault: rank 1's params are perturbed
// after training, so the end-of-run check must fail the whole session.
TEST(Session, SeededFaultFailsTheSession) {
  const Workload* w = FindWorkload("deep-dear");
  ASSERT_NE(w, nullptr);
  const Inputs in = MakeInputs(*w, 3);
  SessionPlan plan;
  plan.untraced_s = 0.05;

  const SessionResult clean = RunSession(*w, in, plan);
  EXPECT_TRUE(clean.errors.empty()) << clean.errors.front();
  EXPECT_EQ(clean.failed, 0);
  EXPECT_GT(clean.attempted, kPrefixIters + kWarmupIters);
  EXPECT_FALSE(clean.iter_ms.empty());
  EXPECT_EQ(clean.group_elems.size(), 34u);

  plan.inject_fault = true;
  const SessionResult faulty = RunSession(*w, in, plan);
  EXPECT_FALSE(faulty.errors.empty());
  EXPECT_EQ(faulty.failed, faulty.attempted);
}

TEST(Session, SetupOnlyStopsAfterTheFirstIteration) {
  const Workload* w = FindWorkload("deep-wfbp");
  ASSERT_NE(w, nullptr);
  const Inputs in = MakeInputs(*w, 3);
  SessionPlan plan;
  plan.setup_only = true;
  const SessionResult r = RunSession(*w, in, plan);
  EXPECT_TRUE(r.errors.empty()) << r.errors.front();
  EXPECT_EQ(r.attempted, 1);
  EXPECT_EQ(r.failed, 0);
  EXPECT_GT(r.setup_s, 0.0);
  EXPECT_GT(r.first_iter_ms, 0.0);
  EXPECT_TRUE(r.iter_ms.empty());
}

}  // namespace
}  // namespace trainbench
