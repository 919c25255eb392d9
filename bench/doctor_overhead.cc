// Calibration-monitor overhead on the production path. When armed, the
// monitor's OnCollective hook runs on the engine loop thread once per
// completed collective; `dearsim doctor --backend runtime` and `profile
// --network` arm it on real training runs, so its cost must be provably
// negligible. Three exact measurements (flightrec_overhead idiom):
//
//  1. ns per OnCollective call, measured as the MARGINAL cost of
//     inserting the hook into a loop of representative completion-path
//     work (a chunk copy + fold). A bare hook-only loop would serialize
//     the EWMA loads/stores against themselves and overstate the cost.
//  2. Heap allocations per call, counted EXACTLY by overriding global
//     operator new. Cells and metric pointers are pre-resolved at
//     Enable; the bar is 0.
//  3. Implied overhead on the smallest collective the engines run
//     (2 ranks, 4 KiB all-reduce): one hook per collective, so overhead
//     = ns_per_call / measured op wall time. Bar: < 1% (ISSUE 8).
//
// Exits non-zero past either bar; the quick perf suite gates
// doctor.ns_per_sample against the checked-in baseline.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "analysis/calib.h"
#include "bench/bench_util.h"
#include "comm/async.h"
#include "comm/calibration.h"
#include "comm/communicator.h"
#include "comm/cost_model.h"
#include "comm/transport.h"

namespace {

std::atomic<long> g_allocs{0};

long AllocCount() { return g_allocs.load(std::memory_order_relaxed); }

}  // namespace

// Count every heap allocation in the process (transport_path.cc idiom).
// Deallocation stays the default; only news matter for the 0-alloc bar.
void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

int main() {
  dear::bench::SuiteGuard results("doctor_overhead");
  using namespace dear;
  using Clock = std::chrono::steady_clock;

  constexpr int kWorld = 2;
  auto& monitor = comm::CalibrationMonitor::Get();
  monitor.Enable(comm::NetworkModel::TenGbE(), kWorld);

  // 1. Per-call cost of the hook, cells allocated and telemetry-free
  // (metric pointers resolved to null — the arming used in `doctor`).
  // Differential measurement: the same loop of representative completion
  // work (copy one 2 KiB chunk and fold it, the neighborhood the hook
  // sits in on the engine loop) is timed with and without the hook; the
  // hook is charged the difference. Median of 5 pairs tames noise.
  constexpr int kSampleReps = 1'000'000;
  constexpr std::size_t kChunkFloats = 512;  // 2 KiB, L1-resident
  alignas(64) static float chunk_src[kChunkFloats];
  alignas(64) static float chunk_dst[kChunkFloats];
  for (std::size_t k = 0; k < kChunkFloats; ++k) {
    chunk_src[k] = static_cast<float>(k);
  }
  float fold = 0.0f;
  const auto chunk_work = [&](int i) {
    for (std::size_t k = 0; k < kChunkFloats; ++k) {
      chunk_dst[k] = chunk_src[k];
    }
    fold += chunk_dst[static_cast<std::size_t>(i) % kChunkFloats];
    asm volatile("" : : "r"(chunk_dst), "r"(&fold) : "memory");
  };
  // A realistic sample: 4 KiB ring all-reduce near its predicted time,
  // jittered so the EWMA tracker does real update work every call.
  const auto time_loop = [&](bool with_hook) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kSampleReps; ++i) {
      chunk_work(i);
      if (with_hook) {
        monitor.OnCollective(0, analysis::CollectiveShape::kRingAllReduce,
                             4096,
                             100'000 + static_cast<std::uint64_t>(i & 1023));
      }
    }
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
               .count() /
           kSampleReps;
  };
  for (int i = 0; i < 10'000; ++i) {  // warm-up: cells, calibrator slots
    monitor.OnCollective(0, analysis::CollectiveShape::kRingAllReduce, 4096,
                         100'000);
  }
  std::vector<double> deltas;
  deltas.reserve(5);  // pre-size: the alloc window below must stay clean
  const long allocs_before = AllocCount();
  double hooked_ns = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const double base = time_loop(false);
    const double hooked = time_loop(true);
    hooked_ns = hooked;
    deltas.push_back(hooked > base ? hooked - base : 0.0);
  }
  // Allocation accounting spans all ten loops; only 5M of those
  // iterations sample, but the bar is exactly zero either way. (Median
  // copies its argument, so it runs after the window closes.)
  const long sample_allocs = AllocCount() - allocs_before;
  const double ns_per_sample = Median(deltas);

  // 2 + 3. Wall time of the smallest collective the engines run, with
  // the monitor armed end to end — the collective's CollectiveScope charges
  // exactly one hook per collective per rank.
  constexpr std::size_t kElems = 1024;  // 4 KiB
  const auto run_allreduce = [&](comm::TransportHub& hub) {
    std::vector<std::unique_ptr<comm::CommEngine>> engines;
    for (int r = 0; r < kWorld; ++r)
      engines.push_back(
          std::make_unique<comm::CommEngine>(comm::Communicator(&hub, r)));
    std::vector<std::vector<float>> buffers(kWorld,
                                            std::vector<float>(kElems, 1.0f));
    std::vector<comm::CollectiveHandle> handles;
    for (int r = 0; r < kWorld; ++r)
      handles.push_back(engines[static_cast<std::size_t>(r)]->SubmitAllReduce(
          std::span<float>(buffers[static_cast<std::size_t>(r)]),
          comm::ReduceOp::kAvg));
    for (auto& h : handles) (void)h.Wait();
    for (auto& engine : engines) engine->Shutdown();
  };
  constexpr int kOpReps = 200;
  std::vector<double> op_seconds;
  op_seconds.reserve(kOpReps);
  for (int i = 0; i < kOpReps + 5; ++i) {
    comm::TransportHub hub(kWorld);
    const auto s0 = Clock::now();
    run_allreduce(hub);
    const double s = std::chrono::duration<double>(Clock::now() - s0).count();
    if (i >= 5) op_seconds.push_back(s);  // warm-up
  }
  monitor.Disable();
  const double op_ns = Median(op_seconds) * 1e9;
  // One OnCollective per rank per collective; charge both ranks' hooks
  // against the op (they run on separate engine threads, so this is the
  // conservative serial accounting).
  const double overhead_pct =
      100.0 * ns_per_sample * static_cast<double>(kWorld) / op_ns;

  bench::PrintHeader(
      "calibration-monitor overhead, real runtime (2 ranks, 4 KiB "
      "all-reduce)");
  std::printf(
      "monitored sample (OnCollective): %.2f ns marginal (hooked loop "
      "%.2f ns/iter), %ld allocs / %d samples\n",
      ns_per_sample, hooked_ns, sample_allocs, 5 * kSampleReps);
  bench::PrintLatencySummary("allreduce, monitor armed", op_seconds);
  std::printf("implied overhead on this op: %.4f%% (acceptance: < 1%%)\n",
              overhead_pct);

  auto& sink = perflab::ResultSink::Get();
  if (sink.active()) {
    sink.Record("doctor.ns_per_sample", {}, ns_per_sample, "ns");
    sink.Record("doctor.allocs_per_sample", {},
                static_cast<double>(sample_allocs), "allocs");
    sink.Record("doctor.overhead_pct", {{"world", "2"}, {"kb", "4"}},
                overhead_pct, "%");
  }

  int rc = 0;
  if (sample_allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: %ld heap allocations across %d monitored samples "
                 "(bar: exactly 0)\n",
                 sample_allocs, 5 * kSampleReps);
    rc = 1;
  }
  if (overhead_pct >= 1.0) {
    std::fprintf(stderr,
                 "FAIL: armed monitor costs %.4f%% of a small collective "
                 "(bar: < 1%%)\n",
                 overhead_pct);
    rc = 1;
  }
  return rc;
}
