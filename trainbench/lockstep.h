// Time-bounded loops that every rank of a collective group leaves at the
// same iteration.
#pragma once

#include <atomic>
#include <climits>
#include <cstdint>

#include "span_log.h"

namespace trainbench {

/// Rank 0 owns the clock: once its deadline passes it announces a stop
/// iteration a few iterations ahead. Ranks that exchange data every
/// iteration stay within one iteration of each other, so every rank still
/// reaches the announced iteration and all run the same collectives.
class StopAt {
 public:
  /// Rank 0 only: time-box the loop from now on.
  void Arm(double seconds) noexcept {
    deadline_ns_ = NowNs() + static_cast<std::int64_t>(seconds * 1e9);
  }
  /// Called by every rank at the top of iteration `iter`.
  bool Done(int rank, int iter) noexcept {
    if (rank == 0 && at_.load(std::memory_order_relaxed) == INT_MAX &&
        deadline_ns_ > 0 && NowNs() >= deadline_ns_) {
      at_.store(iter + kMargin, std::memory_order_relaxed);
    }
    return iter >= at_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr int kMargin = 4;
  std::int64_t deadline_ns_{0};  // touched by rank 0 only
  std::atomic<int> at_{INT_MAX};
};

}  // namespace trainbench
