// google-benchmark microbenchmarks of the in-process substrate itself:
// threaded collectives, the discrete-event engine, fusion planning, and GP
// fitting — the costs a user of this library actually pays on the host.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "comm/async.h"
#include "comm/collectives.h"
#include "comm/worker_group.h"
#include "core/trainer.h"
#include "fusion/plan.h"
#include "model/zoo.h"
#include "sched/runner.h"
#include "telemetry/telemetry.h"
#include "train/data.h"
#include "tune/gp.h"

namespace {

using namespace dear;

void BM_RingAllReduceThreaded(benchmark::State& state) {
  const int world = static_cast<int>(state.range(0));
  const auto elems = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    comm::RunOnRanks(world, [&](comm::Communicator& c) {
      std::vector<float> data(elems, static_cast<float>(c.rank()));
      benchmark::DoNotOptimize(comm::RingAllReduce(c, data));
    });
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(elems) * 4 * world);
}
BENCHMARK(BM_RingAllReduceThreaded)
    ->Args({2, 1024})
    ->Args({2, 65536})
    ->Args({4, 1024})
    ->Args({4, 65536});

void BM_DecoupledRsAgThreaded(benchmark::State& state) {
  const auto elems = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    comm::RunOnRanks(4, [&](comm::Communicator& c) {
      std::vector<float> data(elems, static_cast<float>(c.rank()));
      benchmark::DoNotOptimize(comm::RingReduceScatter(c, data));
      benchmark::DoNotOptimize(comm::RingAllGather(c, data));
    });
  }
}
BENCHMARK(BM_DecoupledRsAgThreaded)->Arg(1024)->Arg(65536);

void BM_TreeAllReduceThreaded(benchmark::State& state) {
  const auto elems = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    comm::RunOnRanks(4, [&](comm::Communicator& c) {
      std::vector<float> data(elems, 1.0f);
      benchmark::DoNotOptimize(comm::TreeAllReduce(c, data));
    });
  }
}
BENCHMARK(BM_TreeAllReduceThreaded)->Arg(1024)->Arg(65536);

// Steady-state latency of one 4 KiB collective on persistent engines, the
// way DistOptim drives them: each rank thread owns a long-lived CommEngine
// and submits + waits back to back. Rank 0 times every op after a warm-up;
// p50/p90 go out as counters (µs). The *Threaded benches above start and
// join threads inside every iteration, which buries the per-handoff wake
// cost this one isolates — and hides whether waiting threads that spin
// hurt once ranks outnumber cores.
//   microbench_collectives --benchmark_filter=PersistentEngine
// Args: world, op (0 = RS+AG pair, 1 = all-reduce).
void BM_PersistentEngineLatency(benchmark::State& state) {
  const int world = static_cast<int>(state.range(0));
  const bool pair = state.range(1) == 0;
  constexpr std::size_t kElems = 1024;  // 4 KiB of fp32
  constexpr int kWarmup = 50;
  constexpr int kTimedOps = 400;
  using Clock = std::chrono::steady_clock;
  std::vector<double> lat_us;
  bool failed = false;
  for (auto _ : state) {
    comm::TransportHub hub(world);
    std::vector<double> samples;  // written by rank 0 only
    std::vector<char> rank_failed(static_cast<std::size_t>(world), 0);
    const auto start = Clock::now();
    std::vector<std::thread> ranks;
    for (int r = 0; r < world; ++r) {
      ranks.emplace_back([&, r] {
        comm::CommEngine engine(comm::Communicator(&hub, r));
        std::vector<float> buf(kElems, 1.0f);
        bool ok = true;
        for (int i = 0; i < kWarmup + kTimedOps; ++i) {
          const auto t0 = Clock::now();
          if (pair) {
            ok &= engine.SubmitReduceScatter(buf, comm::ReduceOp::kAvg)
                      .Wait()
                      .ok();
            ok &= engine.SubmitAllGather(buf).Wait().ok();
          } else {
            ok &= engine.SubmitAllReduce(buf, comm::ReduceOp::kAvg)
                      .Wait()
                      .ok();
          }
          if (r == 0 && i >= kWarmup) {
            samples.push_back(
                std::chrono::duration<double, std::micro>(Clock::now() - t0)
                    .count());
          }
        }
        rank_failed[static_cast<std::size_t>(r)] = ok ? 0 : 1;
      });
    }
    for (auto& t : ranks) t.join();
    state.SetIterationTime(
        std::chrono::duration<double>(Clock::now() - start).count());
    failed |= std::any_of(rank_failed.begin(), rank_failed.end(),
                          [](char f) { return f != 0; });
    lat_us.insert(lat_us.end(), samples.begin(), samples.end());
  }
  if (failed || lat_us.empty()) {
    state.SkipWithError("collective failed");
    return;
  }
  std::sort(lat_us.begin(), lat_us.end());
  const auto at = [&](double q) {
    return lat_us[static_cast<std::size_t>(q * (lat_us.size() - 1))];
  };
  state.counters["p50_us"] = at(0.5);
  state.counters["p90_us"] = at(0.9);
}
BENCHMARK(BM_PersistentEngineLatency)
    ->ArgsProduct({{2, 8, 16}, {0, 1}})
    ->ArgNames({"world", "op"})
    ->Iterations(1)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// Telemetry overhead on the real runtime: Arg(0) = hooks compiled in but
// session disabled (one relaxed atomic load per hook), Arg(1) = full
// recording. The README §Observability overhead note cites the delta.
void BM_TrainDistributedTelemetry(benchmark::State& state) {
  const bool enabled = state.range(0) != 0;
  const std::vector<int> dims{16, 64, 64, 8};
  const auto data = train::MakeRegressionDataset(64, 16, 8, /*seed=*/21);
  core::DistOptimOptions options;
  options.mode = core::ScheduleMode::kDeAR;
  options.buffer_bytes = 4096;
  auto& rt = telemetry::Runtime::Get();
  for (auto _ : state) {
    if (enabled) rt.Enable(4);
    core::TrainDistributed(dims, 1, data, /*iterations=*/4, /*batch=*/8, 4,
                           options);
    rt.Disable();
  }
}
BENCHMARK(BM_TrainDistributedTelemetry)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_SimulateDeARIteration(benchmark::State& state) {
  const auto m = model::ByName("resnet50");
  sched::ClusterSpec cluster;
  cluster.world_size = 64;
  sched::PolicyConfig cfg;
  cfg.kind = sched::PolicyKind::kDeAR;
  cfg.plan = fusion::ByBufferBytes(m, 25u << 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::EvaluatePolicy(m, cluster, cfg));
  }
}
BENCHMARK(BM_SimulateDeARIteration);

void BM_FusionPlanning(benchmark::State& state) {
  const auto m = model::ByName("densenet201");  // 604 tensors
  for (auto _ : state) {
    benchmark::DoNotOptimize(fusion::ByBufferBytes(m, 25u << 20));
  }
}
BENCHMARK(BM_FusionPlanning);

void BM_GpFitPredict(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> xs(n), ys(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = static_cast<double>(i);
    ys[i] = std::sin(0.3 * static_cast<double>(i));
  }
  for (auto _ : state) {
    tune::GaussianProcess gp;
    benchmark::DoNotOptimize(gp.Fit(xs, ys));
    benchmark::DoNotOptimize(gp.Predict(0.5 * static_cast<double>(n)));
  }
}
BENCHMARK(BM_GpFitPredict)->Arg(10)->Arg(40);

}  // namespace

BENCHMARK_MAIN();
