#include "analysis/calib.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "comm/async.h"
#include "comm/calibration.h"
#include "comm/cost_model.h"
#include "comm/transport.h"
#include "common/rng.h"
#include "flightrec/journal.h"
#include "flightrec/recorder.h"
#include "telemetry/telemetry.h"

namespace dear::analysis {
namespace {

// Every monitorable shape with the CostModel function it must agree with.
SimTime CostFor(const comm::CostModel& cost, CollectiveShape shape,
                std::size_t bytes) {
  switch (shape) {
    case CollectiveShape::kReduceScatter:
      return cost.ReduceScatter(bytes);
    case CollectiveShape::kAllGather:
      return cost.AllGather(bytes);
    case CollectiveShape::kRingAllReduce:
      return cost.RingAllReduce(bytes);
    case CollectiveShape::kTreeBroadcast:
      return cost.TreeBroadcast(bytes);
    case CollectiveShape::kRecursiveHalvingReduceScatter:
      return cost.RecursiveHalvingReduceScatter(bytes);
    case CollectiveShape::kRecursiveDoublingAllGather:
      return cost.RecursiveDoublingAllGather(bytes);
    case CollectiveShape::kBarrier:
      return cost.NegotiationLatency();
    case CollectiveShape::kTreeAllReduce:
      return cost.TreeAllReduce(bytes);
    case CollectiveShape::kDoubleBinaryTreeAllReduce:
      return cost.DoubleBinaryTreeAllReduce(bytes);
    case CollectiveShape::kRecursiveHalvingDoublingAllReduce:
      return cost.RecursiveHalvingDoublingAllReduce(bytes);
  }
  return 0;
}

// The load-bearing invariant of the whole calibration design: the (a, b)
// structure constants in calib.cc and the cost formulas in cost_model.cc
// describe the SAME algorithms. For every shape and world size, the
// straight-line prediction a·α + b·β·d must match the CostModel within its
// nanosecond rounding.
TEST(ShapeCoefficientsTest, AgreeWithCostModelForEveryShapeAndWorld) {
  const comm::NetworkModel net = comm::NetworkModel::TenGbE();
  for (int world : {2, 5, 16, 64}) {
    const comm::CostModel cost(net, world);
    for (std::size_t s = 0; s < kShapeCount; ++s) {
      const auto shape = static_cast<CollectiveShape>(s);
      const ShapeCoeffs c = ShapeCoefficients(shape, world);
      for (std::size_t bytes : {std::size_t{4096}, std::size_t{1048576}}) {
        const double predicted_ns =
            (c.a * net.alpha_s + c.b * net.beta_s_per_byte *
                                     static_cast<double>(bytes)) *
            1e9;
        const double model_ns =
            static_cast<double>(CostFor(cost, shape, bytes));
        EXPECT_NEAR(predicted_ns, model_ns, 2.0)
            << ShapeName(shape) << " world=" << world << " bytes=" << bytes;
      }
    }
  }
}

TEST(ShapeCoefficientsTest, DegenerateWorldsHaveZeroCoefficients) {
  for (std::size_t s = 0; s < kShapeCount; ++s) {
    const auto shape = static_cast<CollectiveShape>(s);
    EXPECT_EQ(ShapeCoefficients(shape, 1).a, 0.0) << ShapeName(shape);
    EXPECT_EQ(ShapeCoefficients(shape, 0).b, 0.0) << ShapeName(shape);
  }
}

TEST(LinearFitTest, RecoversNoiselessLineExactly) {
  LinearFit fit;
  for (double x : {1e3, 2e3, 4e3, 8e3}) fit.Add(x, 5.0 + 0.25 * x);
  const auto line = fit.Fit();
  ASSERT_TRUE(line.has_value());
  EXPECT_NEAR(line->intercept, 5.0, 1e-9);
  EXPECT_NEAR(line->slope, 0.25, 1e-12);
  EXPECT_NEAR(line->r2, 1.0, 1e-12);
  EXPECT_EQ(line->n, 4u);
}

TEST(LinearFitTest, InsufficientDataReturnsNullopt) {
  LinearFit two;
  two.Add(1.0, 1.0);
  two.Add(2.0, 2.0);
  EXPECT_FALSE(two.Fit().has_value());  // below kMinSamples

  LinearFit same_x;
  for (int i = 0; i < 10; ++i) same_x.Add(1024.0, 3.0 + 0.001 * i);
  EXPECT_FALSE(same_x.has_spread());
  EXPECT_FALSE(same_x.Fit().has_value());  // slope undetermined

  LinearFit zeros;
  for (int i = 0; i < 10; ++i) zeros.Add(0.0, 1.0);
  EXPECT_FALSE(zeros.Fit().has_value());  // all zero-byte samples
}

TEST(AlphaBetaTest, RoundTripsThroughEveryShape) {
  constexpr double kAlpha = 2.0e-5;
  constexpr double kBeta = 8.0e-10;
  for (int world : {2, 16, 64}) {
    for (std::size_t s = 0; s < kShapeCount; ++s) {
      const auto shape = static_cast<CollectiveShape>(s);
      const ShapeCoeffs c = ShapeCoefficients(shape, world);
      if (c.a <= 0.0 || c.b <= 0.0) continue;  // latency-only (barrier)
      LinearFit::Line line;
      line.intercept = c.a * kAlpha;
      line.slope = c.b * kBeta;
      line.n = 7;
      const auto ab = AlphaBetaFromLine(shape, world, line);
      ASSERT_TRUE(ab.has_value()) << ShapeName(shape);
      EXPECT_NEAR(ab->alpha_s, kAlpha, kAlpha * 1e-12) << ShapeName(shape);
      EXPECT_NEAR(ab->beta_s_per_byte, kBeta, kBeta * 1e-12)
          << ShapeName(shape);
    }
  }
}

TEST(AlphaBetaTest, NonPhysicalFitsAreRejected) {
  LinearFit::Line negative_slope;
  negative_slope.intercept = 1e-4;
  negative_slope.slope = -1e-10;
  negative_slope.n = 7;
  EXPECT_FALSE(AlphaBetaFromLine(CollectiveShape::kRingAllReduce, 16,
                                 negative_slope)
                   .has_value());
  // Barrier has b == 0: no line can yield a β.
  LinearFit::Line line;
  line.intercept = 1e-4;
  line.slope = 1e-10;
  line.n = 7;
  EXPECT_FALSE(
      AlphaBetaFromLine(CollectiveShape::kBarrier, 16, line).has_value());
}

TEST(CalibratorTest, RecoversKnownParametersFromNoisySamples) {
  constexpr double kAlpha = 3.0e-5;
  constexpr double kBeta = 7.0e-10;
  constexpr int kWorld = 16;
  Calibrator calib;
  Rng rng(42);
  const ShapeCoeffs c =
      ShapeCoefficients(CollectiveShape::kRingAllReduce, kWorld);
  for (int rep = 0; rep < 40; ++rep) {
    for (std::size_t bytes = 65536; bytes <= 4194304; bytes *= 2) {
      const double truth =
          c.a * kAlpha + c.b * kBeta * static_cast<double>(bytes);
      // ±3% multiplicative noise.
      const double noisy = truth * rng.Uniform(0.97, 1.03);
      calib.AddSample(CollectiveShape::kRingAllReduce, kWorld,
                      static_cast<double>(bytes), noisy);
    }
  }
  const auto fit = calib.FitNetwork();
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->alpha_s, kAlpha, kAlpha * 0.10);
  EXPECT_NEAR(fit->beta_s_per_byte, kBeta, kBeta * 0.05);
}

TEST(CalibratorTest, DegeneratePopulationsReportInsufficientData) {
  Calibrator calib;
  // One size only, many samples.
  for (int i = 0; i < 20; ++i) {
    calib.AddSample(CollectiveShape::kReduceScatter, 8, 1048576.0, 1e-3);
  }
  // Two samples only.
  calib.AddSample(CollectiveShape::kAllGather, 8, 1024.0, 1e-4);
  calib.AddSample(CollectiveShape::kAllGather, 8, 2048.0, 2e-4);
  // Zero-byte barriers.
  for (int i = 0; i < 5; ++i) {
    calib.AddSample(CollectiveShape::kBarrier, 8, 0.0, 5e-5);
  }
  const auto fits = calib.FitAll();
  ASSERT_EQ(fits.size(), 3u);
  for (const auto& f : fits) {
    EXPECT_FALSE(f.ok) << ShapeName(f.shape);
    EXPECT_TRUE(std::string(f.why).rfind("insufficient data", 0) == 0)
        << ShapeName(f.shape) << ": " << f.why;
  }
  EXPECT_FALSE(calib.FitNetwork().has_value());
}

TEST(CalibratorTest, IgnoresNonFiniteAndNegativeSamples) {
  Calibrator calib;
  calib.AddSample(CollectiveShape::kRingAllReduce, 4, 1024.0, -1.0);
  calib.AddSample(CollectiveShape::kRingAllReduce, 4,
                  std::numeric_limits<double>::quiet_NaN(), 1e-3);
  calib.AddSample(CollectiveShape::kRingAllReduce, 4, 1024.0,
                  std::numeric_limits<double>::infinity());
  EXPECT_EQ(calib.total_samples(), 0u);
}

TEST(CalibratorTest, ConcurrentAddSampleFromManyThreads) {
  Calibrator calib;
  constexpr int kThreads = 8;
  constexpr int kSamples = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&calib, t] {
      // Each thread feeds a different (shape, world) population.
      const auto shape = static_cast<CollectiveShape>(t % 3);
      const int world = 4 + (t / 3) * 4;
      const ShapeCoeffs c = ShapeCoefficients(shape, world);
      for (int i = 0; i < kSamples; ++i) {
        const double bytes = static_cast<double>(1024 << (i % 8));
        calib.AddSample(shape, world, bytes,
                        c.a * 1e-5 + c.b * 1e-9 * bytes);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(calib.total_samples(),
            static_cast<std::uint64_t>(kThreads * kSamples));
  EXPECT_EQ(calib.dropped(), 0u);
  for (const auto& f : calib.FitAll()) {
    EXPECT_TRUE(f.ok) << ShapeName(f.shape) << " world=" << f.world;
  }
  calib.Reset();
  EXPECT_EQ(calib.total_samples(), 0u);
  EXPECT_TRUE(calib.FitAll().empty());
}

// ---- CalibrationMonitor --------------------------------------------------

TEST(CalibrationMonitorTest, SelfConsistentSamplesShowNoDivergence) {
  auto& monitor = comm::CalibrationMonitor::Get();
  const comm::NetworkModel net = comm::NetworkModel::TenGbE();
  monitor.Enable(net, 4);
  const comm::CostModel cost(net, 4);
  for (std::size_t bytes = 65536; bytes <= 4194304; bytes *= 2) {
    monitor.OnCollective(
        0, CollectiveShape::kRingAllReduce, bytes,
        static_cast<std::uint64_t>(cost.RingAllReduce(bytes)));
  }
  monitor.Disable();
  const auto stats = monitor.Stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].shape, CollectiveShape::kRingAllReduce);
  EXPECT_EQ(stats[0].samples, 7u);
  EXPECT_LT(stats[0].divergence, 1e-3);
  EXPECT_NEAR(stats[0].mean_ratio, 1.0, 1e-3);
  EXPECT_EQ(stats[0].anomalies, 0u);
  const auto fit = monitor.calibrator().FitNetwork();
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->alpha_s, net.alpha_s, net.alpha_s * 0.01);
  EXPECT_NEAR(fit->beta_s_per_byte, net.beta_s_per_byte,
              net.beta_s_per_byte * 0.01);
}

TEST(CalibrationMonitorTest, OutlierTripsAnomalyDetectorAndFlightRecorder) {
  auto& monitor = comm::CalibrationMonitor::Get();
  const comm::NetworkModel net = comm::NetworkModel::TenGbE();
  flightrec::Recorder::Get().Reset();
  comm::CalibrationMonitor::Options opts;
  opts.warmup_samples = 8;
  monitor.Enable(net, 4, opts);
  const std::uint64_t steady = 1000000;  // 1 ms nominal duration
  for (int i = 0; i < 20; ++i) {
    monitor.OnCollective(2, CollectiveShape::kReduceScatter, 1048576,
                         steady + static_cast<std::uint64_t>(i % 3) * 1000);
  }
  // 10x the steady duration: far outside mean + 6·dev.
  monitor.OnCollective(2, CollectiveShape::kReduceScatter, 1048576,
                       steady * 10);
  monitor.Disable();

  const auto anomalies = monitor.AnomaliesByRank();
  ASSERT_EQ(anomalies.size(), 4u);
  EXPECT_EQ(anomalies[2], 1u);
  EXPECT_EQ(anomalies[0] + anomalies[1] + anomalies[3], 0u);

  bool found = false;
  const auto snapshots = flightrec::Recorder::Get().SnapshotAll();
  ASSERT_GT(snapshots.size(), 2u);
  for (const auto& rec : snapshots[2]) {
    if (static_cast<flightrec::EventKind>(rec.kind) ==
        flightrec::EventKind::kAnomaly) {
      found = true;
      EXPECT_EQ(rec.tag, static_cast<std::uint32_t>(
                             CollectiveShape::kReduceScatter));
      EXPECT_EQ(rec.payload, static_cast<std::uint32_t>(steady * 10));
    }
  }
  EXPECT_TRUE(found) << "no kAnomaly record journaled on rank 2";
}

TEST(CalibrationMonitorTest, ExportsResidualMetricsWhenTelemetryLive) {
  auto& rt = telemetry::Runtime::Get();
  rt.Enable(2);
  auto& monitor = comm::CalibrationMonitor::Get();
  const comm::NetworkModel net = comm::NetworkModel::TenGbE();
  monitor.Enable(net, 2);
  const comm::CostModel cost(net, 2);
  monitor.OnCollective(
      0, CollectiveShape::kAllGather, 262144,
      static_cast<std::uint64_t>(cost.AllGather(262144)));
  monitor.Disable();

  auto* reg = rt.rank_metrics(0);
  ASSERT_NE(reg, nullptr);
  bool have_residual = false;
  for (const auto& [name, h] : reg->Histograms()) {
    if (name == "comm.model.residual.all_gather") {
      have_residual = true;
      EXPECT_EQ(h.count(), 1u);
    }
  }
  EXPECT_TRUE(have_residual);
  bool have_divergence = false;
  for (const auto& [name, v] : reg->Gauges()) {
    if (name == "comm.model.divergence.all_gather") {
      have_divergence = true;
      EXPECT_LT(v, 1e-3);
    }
  }
  EXPECT_TRUE(have_divergence);
  const std::string prom = reg->ToPrometheus("rank=\"0\"");
  EXPECT_NE(prom.find("dear_comm_model_residual_all_gather"),
            std::string::npos);
  EXPECT_NE(prom.find("dear_comm_model_divergence_all_gather"),
            std::string::npos);
  rt.Disable();
}

// ---- Samples from the engine's collectives ------------------------------

using Submit = std::function<comm::CollectiveHandle(comm::CommEngine&,
                                                    std::span<float>)>;

/// Submits once on every rank's engine over `hub` and returns each
/// collective's status.
std::vector<Status> RunOnEngines(comm::TransportHub& hub, std::size_t elems,
                                 const Submit& submit) {
  const int world = hub.size();
  std::vector<std::unique_ptr<comm::CommEngine>> engines;
  std::vector<std::vector<float>> buffers(
      static_cast<std::size_t>(world), std::vector<float>(elems, 1.0f));
  std::vector<comm::CollectiveHandle> handles;
  for (int r = 0; r < world; ++r) {
    engines.push_back(
        std::make_unique<comm::CommEngine>(comm::Communicator(&hub, r)));
    handles.push_back(
        submit(*engines.back(), buffers[static_cast<std::size_t>(r)]));
  }
  std::vector<Status> statuses;
  for (auto& h : handles) statuses.push_back(h.Wait());
  return statuses;
}

std::size_t ResidualCount(int rank, CollectiveShape shape) {
  const std::string name =
      std::string("comm.model.residual.") + ShapeName(shape);
  for (const auto& [n, h] :
       telemetry::Runtime::Get().rank_metrics(rank)->Histograms()) {
    if (n == name) return h.count();
  }
  return 0;
}

// With the monitor armed, each engine Submit* feeds exactly one sample per
// rank, of the shape its request kind describes, priced at the request's
// wire bytes (elems × DTypeSize(dtype): fp16 halves them). The byte count
// is pinned exactly: a bystander rank no engine runs on feeds the same
// shape at the expected count, and the calibrator reports "no payload-size
// spread" only if every engine sample carried that count too.
TEST(CalibrationMonitorTest, EngineSubmitFeedsOneSamplePerRank) {
  constexpr int kWorld = 2;
  constexpr int kBystander = kWorld;
  constexpr std::size_t kElems = 256;
  using comm::CommEngine;
  using comm::DType;
  using comm::ReduceOp;
  struct Case {
    const char* what;
    CollectiveShape shape;
    std::size_t bytes;
    Submit submit;
  };
  const std::vector<Case> cases = {
      {"rs f32", CollectiveShape::kReduceScatter, kElems * 4,
       [](CommEngine& e, std::span<float> b) {
         return e.SubmitReduceScatter(b);
       }},
      {"rs f16", CollectiveShape::kReduceScatter, kElems * 2,
       [](CommEngine& e, std::span<float> b) {
         return e.SubmitReduceScatter(b, ReduceOp::kSum, DType::kF16);
       }},
      {"ag f32", CollectiveShape::kAllGather, kElems * 4,
       [](CommEngine& e, std::span<float> b) {
         return e.SubmitAllGather(b);
       }},
      {"ag bf16", CollectiveShape::kAllGather, kElems * 2,
       [](CommEngine& e, std::span<float> b) {
         return e.SubmitAllGather(b, DType::kBF16);
       }},
      {"ar f32", CollectiveShape::kRingAllReduce, kElems * 4,
       [](CommEngine& e, std::span<float> b) {
         return e.SubmitAllReduce(b);
       }},
      {"ar f16", CollectiveShape::kRingAllReduce, kElems * 2,
       [](CommEngine& e, std::span<float> b) {
         return e.SubmitAllReduce(b, ReduceOp::kAvg, DType::kF16);
       }},
      {"broadcast", CollectiveShape::kTreeBroadcast, kElems * 4,
       [](CommEngine& e, std::span<float> b) {
         return e.SubmitBroadcast(b, /*root=*/1);
       }},
      {"recursive rs", CollectiveShape::kRecursiveHalvingReduceScatter,
       kElems * 4,
       [](CommEngine& e, std::span<float> b) {
         return e.SubmitRecursiveHalvingReduceScatter(b);
       }},
      {"recursive ag f16", CollectiveShape::kRecursiveDoublingAllGather,
       kElems * 2,
       [](CommEngine& e, std::span<float> b) {
         return e.SubmitRecursiveDoublingAllGather(b, DType::kF16);
       }},
      {"barrier", CollectiveShape::kBarrier, 0,
       [](CommEngine& e, std::span<float>) { return e.SubmitBarrier(); }},
  };
  auto& rt = telemetry::Runtime::Get();
  auto& monitor = comm::CalibrationMonitor::Get();
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    // Telemetry first: per-rank residual histograms count each rank's
    // samples.
    rt.Enable(kWorld + 1);
    monitor.Enable(comm::NetworkModel::TenGbE(), kWorld + 1);
    {
      comm::TransportHub hub(kWorld);
      for (const Status& st : RunOnEngines(hub, kElems, c.submit))
        EXPECT_TRUE(st.ok()) << st.ToString();
    }
    monitor.OnCollective(kBystander, c.shape, c.bytes, 1000);
    monitor.OnCollective(kBystander, c.shape, c.bytes, 2000);
    monitor.Disable();
    rt.Disable();

    for (int r = 0; r < kWorld; ++r)
      EXPECT_EQ(ResidualCount(r, c.shape), 1u) << "rank " << r;
    const auto stats = monitor.Stats();
    ASSERT_EQ(stats.size(), 1u);
    EXPECT_EQ(stats[0].shape, c.shape);
    EXPECT_EQ(stats[0].samples, static_cast<std::uint64_t>(kWorld + 2));
    const auto fits = monitor.calibrator().FitAll();
    ASSERT_EQ(fits.size(), 1u);
    EXPECT_STREQ(fits[0].why, "insufficient data: no payload-size spread");
  }
}

// The hierarchical pair has no single α–β line, and a collective that
// fails (here: under a shut-down hub) measured nothing: neither feeds the
// monitor.
TEST(CalibrationMonitorTest, HierarchicalAndFailedCollectivesFeedNothing) {
  constexpr int kWorld = 2;
  auto& monitor = comm::CalibrationMonitor::Get();
  monitor.Enable(comm::NetworkModel::TenGbE(), kWorld);
  {
    comm::TransportHub hub(kWorld);
    const auto statuses =
        RunOnEngines(hub, 64, [](comm::CommEngine& e, std::span<float> b) {
          return e.SubmitHierarchicalReduceScatter(b, /*ranks_per_node=*/2);
        });
    for (const Status& st : statuses) EXPECT_TRUE(st.ok()) << st.ToString();
  }
  {
    comm::TransportHub hub(kWorld);
    const auto statuses =
        RunOnEngines(hub, 64, [](comm::CommEngine& e, std::span<float> b) {
          return e.SubmitHierarchicalAllGather(b, /*ranks_per_node=*/1);
        });
    for (const Status& st : statuses) EXPECT_TRUE(st.ok()) << st.ToString();
  }
  {
    comm::TransportHub hub(kWorld);
    hub.Shutdown();
    const auto statuses =
        RunOnEngines(hub, 64, [](comm::CommEngine& e, std::span<float> b) {
          return e.SubmitAllReduce(b);
        });
    for (const Status& st : statuses) EXPECT_FALSE(st.ok());
  }
  monitor.Disable();
  EXPECT_TRUE(monitor.Stats().empty());
  EXPECT_EQ(monitor.calibrator().total_samples(), 0u);
}

}  // namespace
}  // namespace dear::analysis
