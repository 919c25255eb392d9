// Bounded spin-then-park for the runtime's blocking primitives.
//
// Every collective crosses three waits on its critical path: the comm
// engine's request dequeue (Channel::Recv), each ring hop (Channel::Recv /
// RecvFor under TransportHub::Recv) and the handle completion
// (Latch::Wait). Parking on a mutex+condvar costs a futex sleep plus a
// scheduler wake on every one of them, ~10-15 µs per handoff on a 4-core
// x86 host, which is most of a small collective. Spinning on a lock-free
// mirror of the wake condition for a short, fixed budget first catches the
// common case where the peer answers within microseconds; the condvar park
// that follows is unchanged, so correctness never depends on the spin.
//
// Spinning only pays while every waiting thread can own a CPU. With more
// runtime threads than usable CPUs a spinner burns the very core its peer
// needs, so SpinAllowed() turns the spin off once the live waiting threads
// outnumber the CPUs this process may run on (sched_getaffinity). It is
// also off while a schedpoint hook is installed: under the schedlab
// controller only the turn holder may run, so spinning could only delay
// the controller's quiescence detection.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <thread>

namespace dear::spin {

/// Spin budget before parking: about one measured condvar wake handoff
/// (the channel round trip is ~15 µs), so a wait that spins out loses at
/// most ~2x of what the park alone would cost.
inline constexpr std::chrono::nanoseconds kBudget{20'000};

/// The oversubscription rule as a pure function: spinning is allowed while
/// `waiters` spinning threads fit on `cpus` CPUs. A single CPU never spins,
/// since the thread that would end the wait needs that CPU.
[[nodiscard]] constexpr bool MaySpin(std::size_t waiters,
                                     std::size_t cpus) noexcept {
  return cpus >= 2 && waiters <= cpus;
}

/// CPUs the process may run on (sched_getaffinity), read once.
[[nodiscard]] std::size_t UsableCpus() noexcept;

/// Live threads that have ever waited through SpinUntil's slow path.
[[nodiscard]] std::size_t Waiters() noexcept;

/// Counts the calling thread as a waiter (once per thread; the count drops
/// when the thread exits) and says whether it may spin right now: no
/// schedpoint hook is installed and MaySpin(Waiters(), UsableCpus()).
[[nodiscard]] bool SpinAllowed() noexcept;

/// One spin-loop pause: lets the sibling hyperthread run and keeps the
/// loop from flooding the memory system with speculative loads.
inline void CpuRelax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

/// Spins until `ready()` holds or `budget` elapses. Returns true when
/// ready() held (immediately, or within the spin); false when spinning is
/// not allowed or the budget ran out, and the caller parks. `ready` must
/// only read lock-free state; the caller re-checks under its lock.
template <typename Ready>
bool SpinUntil(Ready&& ready, std::chrono::nanoseconds budget = kBudget) {
  if (ready()) return true;
  if (budget <= std::chrono::nanoseconds::zero() || !SpinAllowed())
    return false;
  const auto deadline = std::chrono::steady_clock::now() + budget;
  for (std::uint32_t i = 1;; ++i) {
    CpuRelax();
    if (ready()) return true;
    // Every 32 pauses (~1-4 µs): check the clock, and yield the CPU in
    // case the thread that ends this wait is queued behind us on it —
    // the scheduler can stack every runtime thread on one CPU (a VM
    // guest does, for about a second after idling), and a spin that
    // never yields would then burn its whole budget on every wait.
    if ((i & 31u) == 0) {
      if (std::chrono::steady_clock::now() >= deadline) return false;
      std::this_thread::yield();
    }
  }
}

}  // namespace dear::spin
