#include "telemetry/telemetry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/timeline.h"
#include "comm/collective_scope.h"
#include "comm/transport.h"
#include "core/trainer.h"
#include "train/data.h"

namespace dear::telemetry {
namespace {

TEST(MetricsRegistryTest, CounterGaugeHistogramRoundTrip) {
  MetricsRegistry reg;
  reg.GetCounter("a").Add(3);
  reg.GetCounter("a").Add(2);
  reg.GetGauge("g").Set(1.5);
  reg.GetHistogram("h").Observe(0.25);

  EXPECT_EQ(reg.GetCounter("a").value(), 5);
  EXPECT_DOUBLE_EQ(reg.GetGauge("g").value(), 1.5);
  EXPECT_EQ(reg.GetHistogram("h").Snapshot().count(), 1u);
}

TEST(MetricsRegistryTest, SeparateKeySpacesPerType) {
  MetricsRegistry reg;
  reg.GetCounter("x").Add(1);
  reg.GetGauge("x").Set(2.0);
  reg.GetHistogram("x").Observe(3.0);
  EXPECT_EQ(reg.Counters().size(), 1u);
  EXPECT_EQ(reg.Gauges().size(), 1u);
  EXPECT_EQ(reg.Histograms().size(), 1u);
}

TEST(MetricsRegistryTest, ConcurrentUpdatesFromManyThreads) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kOps = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      for (int i = 0; i < kOps; ++i) {
        // Same names from every thread: exercises the get-or-create race.
        reg.GetCounter("shared.counter").Add(1);
        reg.GetGauge("shared.gauge").Set(static_cast<double>(t));
        reg.GetHistogram("shared.hist").Observe(static_cast<double>(i));
        reg.GetCounter("per." + std::to_string(t)).Add(1);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(reg.GetCounter("shared.counter").value(), kThreads * kOps);
  EXPECT_EQ(reg.GetHistogram("shared.hist").Snapshot().count(),
            static_cast<std::size_t>(kThreads * kOps));
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(reg.GetCounter("per." + std::to_string(t)).value(), kOps);
  const double g = reg.GetGauge("shared.gauge").value();
  EXPECT_GE(g, 0.0);
  EXPECT_LT(g, kThreads);
}

TEST(MetricsRegistryTest, JsonExportIsWellFormed) {
  MetricsRegistry reg;
  reg.GetCounter("c.one").Add(7);
  reg.GetGauge("g.one").Set(-2.5);
  reg.GetHistogram("h.one").Observe(1.0);
  const std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"counters\":{\"c.one\":7}"), std::string::npos);
  EXPECT_NE(json.find("\"g.one\":-2.5"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(MetricsRegistryTest, PrometheusExportSanitizesNames) {
  MetricsRegistry reg;
  reg.GetCounter("comm.bytes-sent").Add(1);
  const std::string text = reg.ToPrometheus("rank=\"3\"");
  EXPECT_NE(text.find("# TYPE dear_comm_bytes_sent counter"),
            std::string::npos);
  EXPECT_NE(text.find("dear_comm_bytes_sent{rank=\"3\"} 1"),
            std::string::npos);
}

TEST(MetricsRegistryTest, PrometheusEveryFamilyHasHelpAndType) {
  // Prometheus exposition hygiene: every metric family must carry a
  // `# HELP` line immediately followed by its `# TYPE` line. Exercise one
  // family of each kind plus names covered by the curated help table.
  MetricsRegistry reg;
  reg.GetCounter("comm.messages_sent").Add(3);
  reg.GetCounter("comm.all_reduce.calls").Add(1);
  reg.GetGauge("transport.pool.bytes_in_flight").Set(42);
  reg.GetHistogram("comm.all_reduce.seconds").Observe(0.5);
  const std::string text = reg.ToPrometheus("");

  std::istringstream lines(text);
  std::string line;
  std::string pending_help_family;
  std::size_t families = 0;
  while (std::getline(lines, line)) {
    if (line.rfind("# HELP ", 0) == 0) {
      // "# HELP <family> <non-empty text>"
      std::istringstream fields(line.substr(7));
      std::string family, word;
      fields >> family;
      ASSERT_TRUE(fields >> word) << "empty HELP text: " << line;
      EXPECT_TRUE(pending_help_family.empty())
          << "two HELP lines without a TYPE between: " << line;
      pending_help_family = family;
      ++families;
    } else if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream fields(line.substr(7));
      std::string family, kind;
      fields >> family >> kind;
      EXPECT_EQ(family, pending_help_family)
          << "TYPE family does not match the preceding HELP";
      EXPECT_TRUE(kind == "counter" || kind == "gauge" || kind == "summary")
          << "unknown TYPE kind: " << line;
      pending_help_family.clear();
    }
  }
  EXPECT_TRUE(pending_help_family.empty()) << "trailing HELP without TYPE";
  // counter x2, gauge, and the summary family all made it out.
  EXPECT_EQ(families, 4u);

  // Curated help text for the hot families, not just the fallback.
  EXPECT_NE(text.find("# HELP dear_comm_messages_sent "), std::string::npos);
  EXPECT_NE(
      text.find("# TYPE dear_transport_pool_bytes_in_flight gauge"),
      std::string::npos);
  EXPECT_NE(text.find("# TYPE dear_comm_all_reduce_seconds summary"),
            std::string::npos);
}

// Validates one exposition-format metric line:
//   name ::= [a-zA-Z_:][a-zA-Z0-9_:]*
//   line ::= name ['{' label '=' '"' escaped '"' (',' label...)* '}'] ' ' value
//   value ::= Go-style float | "NaN" | "+Inf" | "-Inf"
void ExpectValidPrometheusLine(const std::string& line) {
  auto name_char = [](char c, bool first) {
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       c == '_' || c == ':';
    return first ? alpha : (alpha || (c >= '0' && c <= '9'));
  };
  std::size_t i = 0;
  ASSERT_FALSE(line.empty());
  ASSERT_TRUE(name_char(line[0], true)) << line;
  while (i < line.size() && name_char(line[i], false)) ++i;
  if (i < line.size() && line[i] == '{') {
    ++i;
    while (i < line.size() && line[i] != '}') {
      ASSERT_TRUE(name_char(line[i], true)) << "label name: " << line;
      while (i < line.size() && name_char(line[i], false)) ++i;
      ASSERT_LT(i, line.size());
      ASSERT_EQ(line[i], '=') << line;
      ASSERT_EQ(line[++i], '"') << line;
      ++i;
      while (i < line.size() && line[i] != '"') {
        if (line[i] == '\\') ++i;  // escaped char
        ++i;
      }
      ASSERT_LT(i, line.size()) << "unterminated label value: " << line;
      ++i;  // closing quote
      if (i < line.size() && line[i] == ',') ++i;
    }
    ASSERT_LT(i, line.size()) << "unterminated label set: " << line;
    ++i;  // '}'
  }
  ASSERT_LT(i, line.size()) << "missing value: " << line;
  ASSERT_EQ(line[i], ' ') << line;
  const std::string value = line.substr(i + 1);
  ASSERT_FALSE(value.empty()) << line;
  if (value == "NaN" || value == "+Inf" || value == "-Inf") return;
  // Everything else must parse as a float consuming the whole token —
  // and printf's lowercase "nan"/"inf" forms are NOT valid exposition.
  EXPECT_EQ(value.find("nan"), std::string::npos) << line;
  EXPECT_EQ(value.find("inf"), std::string::npos) << line;
  std::size_t consumed = 0;
  const double parsed = std::stod(value, &consumed);
  EXPECT_EQ(consumed, value.size()) << "trailing junk in value: " << line;
  (void)parsed;
}

TEST(MetricsRegistryTest, PrometheusScrapeGrammarHoldsForEveryLine) {
  MetricsRegistry reg;
  reg.GetCounter("comm.messages_sent").Add(12);
  reg.GetCounter("weird-name.with%chars").Add(1);
  reg.GetGauge("comm.model.divergence.ring_all_reduce").Set(0.125);
  reg.GetGauge("gauge.nan").Set(std::nan(""));
  reg.GetGauge("gauge.pos_inf").Set(std::numeric_limits<double>::infinity());
  reg.GetGauge("gauge.neg_inf").Set(-std::numeric_limits<double>::infinity());
  auto& h = reg.GetHistogram("comm.model.residual.ring_all_reduce");
  h.Observe(0.5);
  h.Observe(1.5);
  reg.GetHistogram("hist.empty");  // quantiles over zero observations

  for (const char* labels : {"", "rank=\"3\",job=\"dear\""}) {
    const std::string text = reg.ToPrometheus(labels);
    std::istringstream lines(text);
    std::string line;
    std::size_t metric_lines = 0;
    while (std::getline(lines, line)) {
      if (line.empty() || line[0] == '#') continue;
      ExpectValidPrometheusLine(line);
      ++metric_lines;
    }
    // 2 counters + 4 gauges + 2 summaries x (3 quantiles + sum + count).
    EXPECT_EQ(metric_lines, 2u + 4u + 2u * 5u);
  }

  // The non-finite spellings themselves.
  const std::string text = reg.ToPrometheus("");
  EXPECT_NE(text.find("dear_gauge_nan NaN"), std::string::npos);
  EXPECT_NE(text.find("dear_gauge_pos_inf +Inf"), std::string::npos);
  EXPECT_NE(text.find("dear_gauge_neg_inf -Inf"), std::string::npos);

  // JSON cannot carry non-finite numbers; they export as 0 there.
  const std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"gauge.nan\":0"), std::string::npos);
  EXPECT_NE(json.find("\"gauge.pos_inf\":0"), std::string::npos);
  EXPECT_NE(json.find("\"gauge.neg_inf\":0"), std::string::npos);
}

TEST(TelemetryRuntimeTest, DisabledHooksAreNoOps) {
  auto& rt = Runtime::Get();
  rt.Enable(2);
  rt.Disable();
  OnMessageSent(0, 100);
  OnCollective(0, "all_reduce", 10, 0, 1000);
  { ScopedSpan span(0, kComputeLane, "forward", "compute"); }
  EXPECT_EQ(rt.trace().size(), 0u);
  // Transport counters are pre-created at Enable() but must stay untouched.
  for (const auto& [name, v] : rt.rank_metrics(0)->Counters())
    EXPECT_EQ(v, 0) << name;
  EXPECT_TRUE(rt.rank_metrics(0)->Histograms().empty());
}

TEST(TelemetryRuntimeTest, RankOutOfRangeIsSafe) {
  auto& rt = Runtime::Get();
  rt.Enable(2);
  EXPECT_EQ(rt.rank_metrics(-1), nullptr);
  EXPECT_EQ(rt.rank_metrics(2), nullptr);
  OnMessageSent(99, 10);  // must not crash
  rt.Disable();
}

TEST(TelemetryRuntimeTest, NestedCollectiveScopesCountOnce) {
  auto& rt = Runtime::Get();
  rt.Enable(1);
  {
    comm::TransportHub hub(1);
    const comm::Communicator comm(&hub, 0);
    comm::CollectiveScope outer(comm, comm::kinds::kRingAllReduce, 64);
    // Nested: suppressed.
    comm::CollectiveScope inner(comm, comm::kinds::kRingReduceScatter, 64);
  }
  rt.Disable();
  auto* reg = rt.rank_metrics(0);
  ASSERT_NE(reg, nullptr);
  EXPECT_EQ(reg->GetCounter("comm.all_reduce.calls").value(), 1);
  EXPECT_EQ(reg->GetCounter("comm.reduce_scatter.calls").value(), 0);
  EXPECT_EQ(rt.trace().size(), 1u);
}

TEST(TelemetryRuntimeTest, MergedIntervalsAndSubtractCover) {
  std::vector<TraceEvent> events;
  events.push_back({"a", "comm", 0, kCommLane, 100, 50});   // [100,150)
  events.push_back({"b", "comm", 0, kCommLane, 140, 60});   // overlaps: merge
  events.push_back({"c", "comm", 1, kCommLane, 0, 10});     // other pid
  events.push_back({"d", "comm", 0, kComputeLane, 120, 30});
  events.push_back({"z", "comm", 0, kCommLane, 300, 0});    // zero-length

  const auto comm = analysis::MergedIntervals(events, 0, kCommLane);
  ASSERT_EQ(comm.size(), 1u);
  EXPECT_EQ(comm[0].begin, 100);
  EXPECT_EQ(comm[0].end, 200);
  const auto compute = analysis::MergedIntervals(events, 0, kComputeLane);
  // Comm [100,200) minus compute [120,150) = [100,120)+[150,200) = 70 ns.
  EXPECT_EQ(analysis::SubtractCover(comm, compute), 70);
}

// End-to-end: a real threaded DeAR training run must emit, for every rank,
// reduce-scatter AND all-gather spans on the comm lane (the decoupled
// BackPipe/FeedPipe pair), and the comm lane of each rank — one CommEngine
// thread — must never overlap itself.
TEST(TelemetryIntegrationTest, TrainDistributedEmitsPerRankCommSpans) {
  constexpr int kWorld = 4;
  auto& rt = Runtime::Get();
  rt.Enable(kWorld);

  const std::vector<int> dims{8, 16, 16, 4};
  const auto data = train::MakeRegressionDataset(64, 8, 4, /*seed=*/11);
  core::DistOptimOptions options;
  options.mode = core::ScheduleMode::kDeAR;
  options.buffer_bytes = 256;  // several fusion groups
  const auto result =
      core::TrainDistributed(dims, /*model_seed=*/3, data, /*iterations=*/3,
                             /*batch=*/4, kWorld, options);
  rt.Disable();
  EXPECT_TRUE(result.params_consistent);

  const auto events = rt.trace().Events();
  for (int r = 0; r < kWorld; ++r) {
    int rs = 0, ag = 0, compute = 0;
    std::vector<TraceEvent> comm_events;
    for (const auto& ev : events) {
      if (ev.pid != r) continue;
      if (ev.tid == kCommLane) {
        comm_events.push_back(ev);
        if (ev.name == "reduce_scatter") ++rs;
        if (ev.name == "all_gather") ++ag;
      } else if (ev.tid == kComputeLane) {
        ++compute;
      }
    }
    EXPECT_GE(rs, 1) << "rank " << r;
    EXPECT_GE(ag, 1) << "rank " << r;
    EXPECT_GE(compute, 1) << "rank " << r;

    std::sort(comm_events.begin(), comm_events.end(),
              [](const TraceEvent& a, const TraceEvent& b) {
                return a.start < b.start;
              });
    for (std::size_t i = 1; i < comm_events.size(); ++i) {
      EXPECT_LE(comm_events[i - 1].start + comm_events[i - 1].duration,
                comm_events[i].start)
          << "rank " << r << ": comm lane overlaps at event " << i;
    }

    auto* reg = rt.rank_metrics(r);
    ASSERT_NE(reg, nullptr);
    EXPECT_GT(reg->GetCounter("comm.bytes_sent").value(), 0);
    EXPECT_GT(reg->GetCounter("comm.bytes_received").value(), 0);
    EXPECT_GT(
        reg->GetHistogram("optim.iteration.seconds").Snapshot().count(), 0u);
    EXPECT_GT(reg->GetHistogram("optim.reduce_scatter.launch_to_complete_"
                                "seconds")
                  .Snapshot()
                  .count(),
              0u);
  }
}

// The decoupled pair must be observable as real overlap material: per rank,
// the exposed comm time computed from the live trace is at most the total
// comm time (sanity for the Fig. 8-style breakdown the CLI prints).
TEST(TelemetryIntegrationTest, ExposedCommAtMostTotalComm) {
  auto& rt = Runtime::Get();
  rt.Enable(2);
  const auto data = train::MakeRegressionDataset(32, 8, 4, /*seed=*/5);
  core::DistOptimOptions options;
  options.mode = core::ScheduleMode::kDeAR;
  core::TrainDistributed({8, 16, 4}, 1, data, 2, 4, 2, options);
  rt.Disable();

  const auto events = rt.trace().Events();
  for (int r = 0; r < 2; ++r) {
    const auto comm = analysis::MergedIntervals(events, r, kCommLane);
    const auto compute = analysis::MergedIntervals(events, r, kComputeLane);
    ASSERT_FALSE(comm.empty());
    SimTime total = 0;
    for (const auto& iv : comm) total += iv.length();
    const SimTime exposed = analysis::SubtractCover(comm, compute);
    EXPECT_GE(exposed, 0);
    EXPECT_LE(exposed, total);
  }
}

// The attribution report built from a REAL threaded run must reconcile:
// every rank's compute + exposed-RS + exposed-AG + straggler must equal its
// measured iteration time within the 1% default tolerance, across schedule
// modes (dear exercises the rs/ag wait pair, wfbp the fused-ar path).
TEST(TelemetryIntegrationTest, AttributionDecompositionSumsToIterationTime) {
  for (const auto mode :
       {core::ScheduleMode::kDeAR, core::ScheduleMode::kWFBP}) {
    constexpr int kWorld = 3;
    auto& rt = Runtime::Get();
    rt.Enable(kWorld);
    const auto data = train::MakeRegressionDataset(48, 8, 4, /*seed=*/11);
    core::DistOptimOptions options;
    options.mode = mode;
    options.buffer_bytes = 256;  // several fusion groups
    core::TrainDistributed({8, 16, 16, 4}, /*model_seed=*/3, data,
                           /*iterations=*/4, /*batch=*/4, kWorld, options);
    rt.Disable();

    const auto report =
        analysis::AttributeIterations(rt.trace().Events(), kWorld);
    // 4 Step() calls -> 3 between-step windows on every rank.
    ASSERT_EQ(report.iterations, 3);
    EXPECT_TRUE(report.consistent)
        << "max residual " << report.max_residual_fraction;
    double total_caused = 0.0, total_straggler = 0.0;
    for (const auto& rank : report.ranks) {
      EXPECT_GT(rank.iter_ms, 0.0);
      EXPECT_GE(rank.compute_ms, 0.0);
      EXPECT_LE(rank.residual_fraction, report.tolerance);
      EXPECT_FALSE(rank.groups.empty());
      total_caused += rank.caused_straggler_ms;
      total_straggler += rank.straggler_ms;
    }
    // Every charged straggler-millisecond names a culprit rank.
    EXPECT_NEAR(total_caused, total_straggler, 1e-9);
    EXPECT_EQ(report.straggler_ranking.size(),
              static_cast<std::size_t>(kWorld));
  }
}

}  // namespace
}  // namespace dear::telemetry
