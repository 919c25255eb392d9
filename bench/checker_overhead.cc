// Cost of the one observer bracket every collective opens
// (comm::CollectiveScope) with every session off: the price the production
// path pays for dearcheck, telemetry and calibration being available, plus
// the always-on flight-recorder begin/end pair it journals.
//
//  1. ns per bracket as a RingAllReduce opens it: one outermost scope
//     (flightrec begin/end, three disabled-session loads) around the two
//     nested scopes of its reduce-scatter and all-gather.
//  2. The denominator: p50 of a steady-state 4 KiB world-2 all-reduce on
//     persistent engines (the op BM_PersistentEngineLatency in
//     microbench_collectives reports), observers off.
//  3. Overhead = one bracket / that p50. Each rank opens its bracket on its
//     own engine thread, in parallel with its peer, so the op's latency
//     grows by one bracket (the accounting the bar has always used). The
//     serial sum over both ranks is printed too. Bar: < 2%. Exits 1 past
//     it.
//
// Also prints, without a bar, the same op's p50 with a checker session
// armed, so the enabled price is visible on the same denominator.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "check/checker.h"
#include "comm/async.h"
#include "comm/collective_scope.h"
#include "comm/communicator.h"
#include "comm/transport.h"

namespace {

using namespace dear;
using Clock = std::chrono::steady_clock;

constexpr int kWorld = 2;
constexpr std::size_t kElems = 1024;  // 4 KiB of fp32

/// p50 (µs) of submit+wait of a 4 KiB all-reduce on persistent engines,
/// timed on rank 0 after a warm-up (BM_PersistentEngineLatency's loop).
double PersistentAllReduceP50Us() {
  constexpr int kWarmup = 50;
  constexpr int kTimedOps = 400;
  comm::TransportHub hub(kWorld);
  std::vector<double> samples;  // written by rank 0 only
  std::vector<std::thread> ranks;
  for (int r = 0; r < kWorld; ++r) {
    ranks.emplace_back([&, r] {
      comm::CommEngine engine(comm::Communicator(&hub, r));
      std::vector<float> buf(kElems, 1.0f);
      for (int i = 0; i < kWarmup + kTimedOps; ++i) {
        const auto t0 = Clock::now();
        (void)engine.SubmitAllReduce(buf, comm::ReduceOp::kAvg).Wait();
        if (r == 0 && i >= kWarmup) {
          samples.push_back(
              std::chrono::duration<double, std::micro>(Clock::now() - t0)
                  .count());
        }
      }
    });
  }
  for (auto& t : ranks) t.join();
  return Median(samples);
}

}  // namespace

int main() {
  dear::bench::SuiteGuard results("checker_overhead");

  auto& checker = check::Checker::Get();
  checker.Disable();

  // 1. Disabled bracket, shaped as one RingAllReduce opens it.
  comm::TransportHub hub(kWorld);
  const comm::Communicator comm(&hub, 0);
  constexpr int kReps = 2'000'000;
  std::vector<double> ns_per_bracket;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kReps; ++i) {
      comm::CollectiveScope outer(comm, comm::kinds::kRingAllReduce, kElems);
      {
        comm::CollectiveScope rs(comm, comm::kinds::kRingReduceScatter,
                                 kElems);
      }
      comm::CollectiveScope ag(comm, comm::kinds::kRingAllGather, kElems);
    }
    ns_per_bracket.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
        kReps);
  }
  const double bracket_ns = Median(ns_per_bracket);

  // 2. Steady-state denominator, observers off; then the same op with a
  // checker session armed (informational).
  std::vector<double> off_us, on_us;
  check::CheckerOptions copts;
  copts.watchdog_timeout_s = 30.0;  // armed but quiet during a healthy run
  for (int rep = 0; rep < 5; ++rep) {
    off_us.push_back(PersistentAllReduceP50Us());
    checker.Enable(kWorld, copts);
    on_us.push_back(PersistentAllReduceP50Us());
    checker.Disable();
  }
  const double p50_us = Median(off_us);
  const double on_p50_us = Median(on_us);

  // 3. One bracket per rank, ranks in parallel.
  const double overhead_pct = 100.0 * bracket_ns / (p50_us * 1e3);

  bench::PrintHeader(
      "collective bracket overhead, persistent engines (2 ranks, 4 KiB "
      "all-reduce)");
  std::printf("disabled bracket (1 outer + 2 nested scopes, flightrec "
              "begin/end): %.1f ns\n",
              bracket_ns);
  std::printf("all-reduce p50, observers off: %.2f us (median of 5 runs)\n",
              p50_us);
  std::printf("all-reduce p50, checker armed: %.2f us (%+.2f%%, no bar)\n",
              on_p50_us, 100.0 * (on_p50_us - p50_us) / p50_us);
  std::printf("implied disabled overhead: %.3f%% (acceptance: < 2%%; "
              "serial sum over both ranks: %.3f%%)\n",
              overhead_pct, overhead_pct * kWorld);

  auto& sink = perflab::ResultSink::Get();
  if (sink.active()) {
    sink.Record("checker.disabled_bracket_ns", {}, bracket_ns, "ns");
    sink.Record("checker.allreduce_p50_us", {{"world", "2"}, {"kb", "4"}},
                p50_us, "us");
    sink.Record("checker.overhead_pct", {{"world", "2"}, {"kb", "4"}},
                overhead_pct, "%");
  }

  if (overhead_pct >= 2.0) {
    std::fprintf(stderr,
                 "FAIL: disabled collective bracket costs %.3f%% of a "
                 "steady-state 4 KiB all-reduce (bar: < 2%%)\n",
                 overhead_pct);
    return 1;
  }
  return 0;
}
