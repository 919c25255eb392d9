// SchedulePoint — schedule-control hooks for the threaded runtime.
//
// The comm runtime's blocking primitives (channel send/recv, barrier and
// latch waits, the comm engine's request dequeue) call into an optional
// process-wide Hook at every point where the OS scheduler could make a
// visible choice. With no hook installed (production, the default) every
// call site reduces to a single relaxed-ish atomic load — the same pattern
// as comm::CollectiveScope. The schedlab controller (src/schedlab)
// installs a Hook that serializes all registered worker threads onto a
// controller-chosen total order, which is what makes schedule fuzzing
// deterministic and replayable from a seed.
//
// Threads opt in by constructing a WorkerScope; hook calls from threads
// that never registered (the main test thread, watchdog threads) are
// ignored by the controller. InstallHook() must be called from a quiescent
// point (no schedulable threads running), like telemetry::Runtime::Enable.
#pragma once

#include <atomic>
#include <cstdint>

namespace dear::schedpoint {

/// Where in the runtime a schedule decision is being offered.
enum class Site : std::uint8_t {
  kChannelSend,    // Channel<T>::Send, before publishing the item
  kChannelRecv,    // Channel<T>::Recv's potentially blocking wait
  kTransportRecv,  // TransportHub::Recv wrapping the channel wait
  kBarrierWait,    // CyclicBarrier::Wait
  kLatchWait,      // Latch::Wait (collective handles block here)
  kEngineDequeue,  // CommEngine::Loop, before executing a dequeued request
  kEngineJoin,     // CommEngine::Shutdown joining the engine thread
  kMembershipWait, // comm::Membership epoch/liveness waits (elastic runtime)
};

[[nodiscard]] const char* SiteName(Site site) noexcept;

/// Controller interface. All methods are invoked from the instrumented
/// worker threads themselves; implementations must be thread-safe.
class Hook {
 public:
  virtual ~Hook() = default;

  /// Calling thread registers as schedulable worker (role, id) — e.g.
  /// ("rank", 2) for a compute thread, ("comm", 2) for its engine thread.
  /// May block until the controller grants the thread its first turn.
  virtual void OnWorkerBegin(const char* role, int id) = 0;
  /// Calling thread is done; it will make no further hook calls.
  virtual void OnWorkerEnd() = 0;

  /// A schedule point before a visible action. May block (yield the turn
  /// and wait to be rescheduled).
  virtual void OnPoint(Site site) = 0;

  /// Brackets a potentially blocking OS-level wait: the thread must not
  /// hold its turn while blocked (the wait can only be satisfied by some
  /// other worker running). OnBlockExit may block to re-acquire a turn.
  virtual void OnBlockEnter(Site site) = 0;
  virtual void OnBlockExit(Site site) = 0;
};

namespace internal {
extern std::atomic<Hook*> g_hook;
}  // namespace internal

/// Installs (or, with nullptr, removes) the process-wide hook. Call only
/// from a quiescent point: no instrumented thread may be between a
/// WorkerScope's construction and destruction during the switch.
void InstallHook(Hook* hook);

[[nodiscard]] inline Hook* ActiveHook() noexcept {
  return internal::g_hook.load(std::memory_order_acquire);
}

/// Hot-path schedule point: one atomic load when no hook is installed.
inline void Point(Site site) {
  Hook* hook = ActiveHook();
  if (hook != nullptr) hook->OnPoint(site);
}

/// RAII bracket around a potentially blocking wait. Construct *before*
/// taking the lock the wait releases, so OnBlockExit (which may itself
/// block on the controller) runs after the lock is dropped — otherwise the
/// next scheduled worker could block on that lock while holding its turn.
class ScopedBlock {
 public:
  explicit ScopedBlock(Site site) noexcept : hook_(ActiveHook()), site_(site) {
    if (hook_ != nullptr) hook_->OnBlockEnter(site_);
  }
  ~ScopedBlock() {
    if (hook_ != nullptr) hook_->OnBlockExit(site_);
  }
  ScopedBlock(const ScopedBlock&) = delete;
  ScopedBlock& operator=(const ScopedBlock&) = delete;

 private:
  Hook* hook_;
  Site site_;
};

/// RAII worker registration for the calling thread's lifetime (or the
/// schedulable portion of it).
class WorkerScope {
 public:
  WorkerScope(const char* role, int id) noexcept : hook_(ActiveHook()) {
    if (hook_ != nullptr) hook_->OnWorkerBegin(role, id);
  }
  ~WorkerScope() {
    if (hook_ != nullptr) hook_->OnWorkerEnd();
  }
  WorkerScope(const WorkerScope&) = delete;
  WorkerScope& operator=(const WorkerScope&) = delete;

 private:
  Hook* hook_;
};

}  // namespace dear::schedpoint
