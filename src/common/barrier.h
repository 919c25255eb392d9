// Reusable thread barrier and countdown latch.
//
// std::barrier exists in C++20 but its completion-function template parameter
// complicates storage in containers; this minimal phase-counting barrier is
// all the worker pool needs and is trivially copy-armed for tests.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <mutex>

#include "common/schedule_point.h"
#include "common/spin_wait.h"

namespace dear {

/// Cyclic barrier: Wait() blocks until `parties` threads have arrived, then
/// releases them all and re-arms for the next phase.
class CyclicBarrier {
 public:
  explicit CyclicBarrier(std::size_t parties) : parties_(parties) {}
  CyclicBarrier(const CyclicBarrier&) = delete;
  CyclicBarrier& operator=(const CyclicBarrier&) = delete;

  void Wait() {
    schedpoint::ScopedBlock block(schedpoint::Site::kBarrierWait);
    std::unique_lock<std::mutex> lock(mutex_);
    const std::size_t phase = phase_;
    if (++arrived_ == parties_) {
      arrived_ = 0;
      ++phase_;
      cv_.notify_all();
      return;
    }
    cv_.wait(lock, [&] { return phase_ != phase; });
  }

 private:
  const std::size_t parties_;
  std::size_t arrived_{0};
  std::size_t phase_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
};

/// One-shot countdown latch. Wait spins briefly on an atomic done flag
/// before it parks (common/spin_wait.h), and returns at once when the
/// latch is already done.
class Latch {
 public:
  explicit Latch(std::size_t count) : count_(count), done_(count == 0) {}
  Latch(const Latch&) = delete;
  Latch& operator=(const Latch&) = delete;

  void CountDown() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (count_ > 0 && --count_ == 0) {
      done_.store(true, std::memory_order_release);
      cv_.notify_all();
    }
  }

  void Wait() {
    schedpoint::ScopedBlock block(schedpoint::Site::kLatchWait);
    spin::SpinUntil([&] { return done(); });
    // Always finish under the lock, even when the flag is already set:
    // CountDown sets it while still holding mutex_, and taking the lock
    // here lets that CountDown release the latch before Wait returns —
    // so a caller may destroy the Latch right after Wait.
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return done(); });
  }

 private:
  [[nodiscard]] bool done() const {
    return done_.load(std::memory_order_acquire);
  }

  std::size_t count_;
  std::atomic<bool> done_;  // count_ == 0; written only under mutex_
  std::mutex mutex_;
  std::condition_variable cv_;
};

}  // namespace dear
