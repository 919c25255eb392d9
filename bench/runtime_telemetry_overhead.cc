// Telemetry overhead on the real threaded runtime: wall-time of identical
// DeAR training runs with the session disabled (hooks reduce to one relaxed
// atomic load) vs fully recording (metrics + trace spans). The README
// §Observability note cites this binary's output; acceptance bar is < 5%
// median overhead, and the binary exits 1 past it.
#include <chrono>
#include <cstdio>

#include "bench/bench_util.h"
#include "core/trainer.h"
#include "telemetry/telemetry.h"
#include "train/data.h"

int main() {
  dear::bench::SuiteGuard results("runtime_telemetry_overhead");
  using namespace dear;
  constexpr int kWorld = 4;
  constexpr int kRepeats = 30;
  // Layer sizes chosen so per-layer compute dwarfs a telemetry hook (as in
  // real training) without making the bench slow; the tensor count still
  // exercises every hook on every iteration.
  const std::vector<int> dims{32, 128, 128, 16};
  const auto data = train::MakeRegressionDataset(64, 32, 16, /*seed=*/21);
  core::DistOptimOptions options;
  options.mode = core::ScheduleMode::kDeAR;
  options.buffer_bytes = 4096;

  auto run_once = [&] {
    const auto t0 = std::chrono::steady_clock::now();
    core::TrainDistributed(dims, 1, data, /*iterations=*/20, /*batch=*/8,
                           kWorld, options);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };

  auto& rt = telemetry::Runtime::Get();
  std::vector<double> off, on;
  // Interleave so machine drift hits both arms equally; first pair warms up.
  for (int i = 0; i < kRepeats + 1; ++i) {
    rt.Disable();
    const double t_off = run_once();
    rt.Enable(kWorld);
    const double t_on = run_once();
    rt.Disable();
    if (i == 0) continue;
    off.push_back(t_off);
    on.push_back(t_on);
  }

  bench::PrintHeader("Telemetry overhead, real runtime (4 ranks, DeAR)");
  bench::PrintLatencySummary("telemetry off", off);
  bench::PrintLatencySummary("telemetry on", on);
  const double overhead =
      100.0 * (Median(on) - Median(off)) / Median(off);
  std::printf("median overhead: %+.2f%% (acceptance: < 5%%)\n", overhead);
  if (overhead >= 5.0) {
    std::fprintf(stderr,
                 "FAIL: telemetry recording costs %+.2f%% of a training run "
                 "(bar: < 5%%)\n",
                 overhead);
    return 1;
  }
  return 0;
}
