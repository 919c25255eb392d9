// Blocking MPMC channel for inter-thread message passing.
//
// The in-process transport (src/comm) uses one channel per (src, dst) pair,
// so in practice each instance is SPSC; the implementation is nevertheless
// safe for multiple producers/consumers, which the async comm engine relies
// on for its request queue.
//
// The queue is a power-of-two ring over default-constructed slots rather
// than a std::deque: a deque recycles a ~512-byte block every dozen
// push/pop cycles, which would count as per-message heap traffic on the
// zero-copy transport path (bench/transport_path gates steady-state sends
// at 0 allocations). Once the ring has grown to the high-water mark,
// send/recv never touch the allocator. T must be default-constructible and
// move-assignable.
//
// Close semantics follow Go channels: Send on a closed channel fails,
// Recv drains remaining items and then reports closed.
//
// Waits spin before they park (common/spin_wait.h): the item count, the
// closed flag and the close generation are atomics, written only under
// the mutex, so a receiver can poll the wake condition without the lock
// for a few microseconds before falling back to the condvar. The value
// handoff itself always happens under the mutex.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/schedule_point.h"
#include "common/spin_wait.h"

namespace dear {

/// Why a timed receive returned without an item (see Channel::RecvFor).
enum class RecvOutcome : std::uint8_t {
  kItem,     // an item was returned
  kClosed,   // channel was closed (possibly a close/reopen cycle) mid-wait
  kTimeout,  // deadline elapsed with the channel open and empty
};

template <typename T>
class Channel {
 public:
  Channel() = default;
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Enqueues an item; returns false if the channel is closed.
  bool Send(T item) {
    schedpoint::Point(schedpoint::Site::kChannelSend);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_.load(std::memory_order_relaxed)) return false;
      const std::size_t count = count_.load(std::memory_order_relaxed);
      if (count == buffer_.size()) GrowLocked();
      buffer_[(head_ + count) & (buffer_.size() - 1)] = std::move(item);
      count_.store(count + 1, std::memory_order_release);
    }
    cv_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the channel is closed and drained.
  /// Returns nullopt only in the closed-and-drained case. A close/reopen
  /// cycle that happens entirely mid-wait also wakes the receiver (the
  /// close generation is captured before sleeping), so a waiter can never
  /// sleep through a membership-epoch trip that cycles the channel.
  std::optional<T> Recv() {
    // Constructed before the lock so the block-exit hook (which may itself
    // wait on the schedlab controller) runs after the lock is released.
    schedpoint::ScopedBlock block(schedpoint::Site::kChannelRecv);
    // Captured before spinning, so a Close anywhere in the spin or the
    // park — even one already undone by Reopen — ends the wait.
    const std::uint64_t gen = close_generation();
    spin::SpinUntil([&] { return Wakeable(gen); });
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return Wakeable(gen); });
    if (count_.load(std::memory_order_relaxed) == 0) return std::nullopt;
    return PopLocked();
  }

  /// Recv with a deadline: waits up to `timeout` for an item. On success
  /// returns the item (*outcome = kItem); otherwise nullopt with *outcome
  /// telling closed-or-cycled apart from a plain timeout — the transport's
  /// failure detector treats only kTimeout as peer silence.
  ///
  /// `gen` is the close_generation() the caller read before deciding to
  /// wait. A Close after that read ends the wait with kClosed, even if it
  /// happened before this call, and leaves any queued item in place: the
  /// caller's view is stale, and the item may belong to whoever waits
  /// next. The transport reads `gen` before it checks the membership
  /// epoch, so a receiver of a doomed epoch neither sleeps through the
  /// epoch trip nor swallows the next epoch's first message.
  std::optional<T> RecvFor(std::chrono::nanoseconds timeout,
                           std::uint64_t gen, RecvOutcome* outcome) {
    schedpoint::ScopedBlock block(schedpoint::Site::kChannelRecv);
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    spin::SpinUntil([&] { return Wakeable(gen); },
                    std::min(timeout, spin::kBudget));
    std::unique_lock<std::mutex> lock(mutex_);
    const bool ready =
        cv_.wait_until(lock, deadline, [&] { return Wakeable(gen); });
    if (close_gen_.load(std::memory_order_relaxed) != gen) {
      *outcome = RecvOutcome::kClosed;
      return std::nullopt;
    }
    if (count_.load(std::memory_order_relaxed) > 0) {
      *outcome = RecvOutcome::kItem;
      return PopLocked();
    }
    *outcome = !ready ? RecvOutcome::kTimeout : RecvOutcome::kClosed;
    return std::nullopt;
  }

  /// Non-blocking receive.
  std::optional<T> TryRecv() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (count_.load(std::memory_order_relaxed) == 0) return std::nullopt;
    return PopLocked();
  }

  /// Closes the channel; wakes all blocked receivers.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_.store(true, std::memory_order_release);
      close_gen_.fetch_add(1, std::memory_order_release);
    }
    cv_.notify_all();
  }

  /// Reopens a closed channel (no-op when open). Part of a membership
  /// epoch trip's close -> Clear -> Reopen cycle; waiters that entered
  /// before the Close still observe it via the close generation.
  void Reopen() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_.store(false, std::memory_order_release);
    }
    cv_.notify_all();
  }

  /// Destroys every queued item and returns how many were discarded.
  /// Queued pooled payloads release their slabs here — the drain step of
  /// TransportHub::Shutdown.
  std::size_t Clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t dropped = count_.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < dropped; ++i) {
      buffer_[head_] = T{};
      head_ = (head_ + 1) & (buffer_.size() - 1);
    }
    count_.store(0, std::memory_order_release);
    return dropped;
  }

  [[nodiscard]] bool closed() const {
    return closed_.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::size_t size() const {
    return count_.load(std::memory_order_acquire);
  }

  /// Number of Close calls so far. A receiver that reads it before some
  /// check of its own and hands it to RecvFor cannot miss a Close that
  /// lands in between.
  [[nodiscard]] std::uint64_t close_generation() const {
    return close_gen_.load(std::memory_order_acquire);
  }

 private:
  static constexpr std::size_t kInitialCapacity = 16;

  /// The wait's wake condition, readable with or without the lock: an
  /// item is queued, the channel is closed, or it was closed (and maybe
  /// reopened) since the waiter read generation `gen`.
  [[nodiscard]] bool Wakeable(std::uint64_t gen) const {
    return count_.load(std::memory_order_acquire) > 0 ||
           closed_.load(std::memory_order_acquire) ||
           close_gen_.load(std::memory_order_acquire) != gen;
  }

  /// Doubles the ring (called full), re-packing live items from slot 0.
  void GrowLocked() {
    const std::size_t cap = buffer_.size();
    const std::size_t count = count_.load(std::memory_order_relaxed);
    std::vector<T> next(cap == 0 ? kInitialCapacity : cap * 2);
    for (std::size_t i = 0; i < count; ++i)
      next[i] = std::move(buffer_[(head_ + i) & (cap - 1)]);
    buffer_ = std::move(next);
    head_ = 0;
  }

  /// Pops the front item; the vacated slot keeps a moved-from shell that
  /// the next Send overwrites.
  T PopLocked() {
    T item = std::move(buffer_[head_]);
    head_ = (head_ + 1) & (buffer_.size() - 1);
    count_.store(count_.load(std::memory_order_relaxed) - 1,
                 std::memory_order_release);
    return item;
  }

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<T> buffer_;  // power-of-two ring; [head_, head_+count_) live
  std::size_t head_{0};
  // Written only under mutex_; atomic so spinning waiters can read them.
  std::atomic<std::size_t> count_{0};
  std::atomic<bool> closed_{false};
  std::atomic<std::uint64_t> close_gen_{0};  // bumped by Close; wakes
                                             // pre-Close waiters
};

}  // namespace dear
