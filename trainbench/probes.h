// Per-layer probes of the communication stack, each through public APIs
// only and at the workload's own group sizes, with no training compute
// running: the iteration's exact collective sequence replayed on
// persistent engines, single collectives, one transport hop, the reduce
// kernel, a Channel round trip, and the flight recorder's send hook.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/dist_optim.h"

namespace trainbench {

struct ProbeResult {
  double replay_iter_us{0};  // one iteration's collectives, p50
  double submit_us{0};       // CommEngine::Submit* call, p50
  double rs_us{0};           // Submit -> Wait, median group, p50
  double ag_us{0};
  double ar_us{0};
  double hop_us{0};          // TransportHub Send -> Recv, median chunk, p50
  double reduce_gbps{0};     // kernels::ReduceInto, largest chunk, p50
  double channel_rtt_us{0};  // Channel ping-pong between two threads, p50
  double on_send_ns{0};      // flightrec::Recorder::OnSend, p50 of batches
  std::vector<std::string> errors;
};

/// `group_elems`: DistOptim::plan() group sizes in floats, feed-forward
/// order. `mode` selects the replayed sequence (kDeAR: RS in backprop
/// order, wait all, AG in feed-forward order, wait all; kWFBP: AR in
/// backprop order, wait all). Spends about `seconds` in total.
[[nodiscard]] ProbeResult RunProbes(const std::vector<std::size_t>& group_elems,
                                    dear::core::ScheduleMode mode,
                                    double seconds, std::uint64_t seed);

}  // namespace trainbench
