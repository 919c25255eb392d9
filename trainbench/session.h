// Workloads and one closed-loop training session of the benchmark.
//
// A session is one job of kWorld ranks, each a thread driving Mlp +
// DistOptim exactly as core::TrainDistributed does; a rank starts its next
// iteration as soon as Step() returns. Timeline of a session:
//
//   set-up       hub, model, optimizer + engine, first (cold) iteration
//                (a set-up-only session ends here, after Synchronize())
//   prefix       iterations [0, kPrefixIters), then Synchronize() and a
//                snapshot checked against core::TrainReference
//   warm-up      kWarmupIters more iterations, not measured
//   untraced     closed-loop window, spans off (end-to-end numbers)
//   traced       closed-loop window, spans on (per-layer numbers)
//   end          Synchronize(); every rank's params must be bitwise equal
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/dist_optim.h"
#include "core/trainer.h"
#include "span_log.h"
#include "train/data.h"

namespace trainbench {

inline constexpr int kWorld = 2;
/// Samples per rank per iteration.
inline constexpr int kBatch = 1;
/// Dataset size: a multiple of kWorld * kBatch.
inline constexpr int kNumSamples = 64;
inline constexpr int kPrefixIters = 8;
inline constexpr int kWarmupIters = 16;
/// Tolerance of the prefix check, as in dist_optim_test's EquivalenceSweep.
inline constexpr float kReferenceTol = 2e-4f;

struct Workload {
  const char* name;
  std::vector<int> dims;
  std::size_t buffer_bytes;
  dear::core::ScheduleMode mode;
};

[[nodiscard]] const std::vector<Workload>& Workloads();
/// nullptr for an unknown name.
[[nodiscard]] const Workload* FindWorkload(std::string_view name);
[[nodiscard]] dear::core::DistOptimOptions OptionsFor(const Workload& w);

/// Everything the seed determines: data, model seed, reference trajectory.
struct Inputs {
  std::vector<dear::train::Dataset> shards;  // one per rank
  std::uint64_t model_seed{0};
  dear::core::ReferenceResult reference;  // kPrefixIters steps
};
[[nodiscard]] Inputs MakeInputs(const Workload& w, std::uint64_t seed);

struct SessionPlan {
  double untraced_s{0.0};
  double traced_s{0.0};
  /// Set-up only: stop after the first (cold) iteration and check that the
  /// ranks agree; no prefix check and no windows.
  bool setup_only{false};
  /// Seeded fault for the output check's self-test: perturbs one param of
  /// rank 1 after training, before the cross-rank comparison.
  bool inject_fault{false};
  /// Chrome trace of the traced window; empty = none.
  std::string trace_out;
};

struct SessionResult {
  // Set-up, rank 0.
  double hub_ms{0}, model_ms{0}, optim_ms{0}, first_iter_ms{0}, setup_s{0};
  // Untraced window, rank 0.
  std::vector<double> iter_ms;
  double window_s{0};
  std::int64_t pool_misses{0};  // both ranks (one hub pool)
  dear::core::DistOptim::Stats stats;  // rank 0, window only
  // Traced window, rank 0.
  SpanLog spans;
  // DistOptim::plan() group sizes in floats, feed-forward order.
  std::vector<std::size_t> group_elems;
  // Rank 0's iterations, and how many of them failed.
  std::int64_t attempted{0};
  std::int64_t failed{0};
  std::vector<std::string> errors;
};

[[nodiscard]] SessionResult RunSession(const Workload& w, const Inputs& in,
                                       const SessionPlan& plan);

/// Output checks, exposed for the self-test. Each returns an empty string
/// when the check passes, else what failed. CheckRanksBitwiseEqual wants
/// every rank's params bitwise equal to rank 0's, and rank 0's finite.
[[nodiscard]] std::string CheckRanksBitwiseEqual(
    const std::vector<std::vector<std::vector<float>>>& per_rank);
[[nodiscard]] std::string CheckAgainstReference(
    const std::vector<std::vector<float>>& params,
    const dear::core::ReferenceResult& reference);

}  // namespace trainbench
