// dearcheck — collective-protocol verifier and deadlock diagnosis for the
// threaded comm runtime.
//
// DeAR's correctness rests on every rank issuing the *same* sequence of
// collectives with the *same* sizes (the no-negotiation SPMD contract,
// paper §III-B), and on the FeedPipe dependency that group l's all-gather
// completes before FF_l consumes it. A single divergent rank — wrong order,
// wrong size, skipped or duplicated participation — deadlocks the ring
// silently. The transport's per-message tag check catches pairing bugs
// *inside* one collective; this subsystem catches divergence *between*
// collectives, and turns the remaining hangs into attributed diagnoses:
//
//  1. Protocol verifier: each collective's comm::CollectiveScope records
//     a per-rank ledger of (kind, element count, sequence index). Because
//     all ranks share one process, an online matcher compares each rank's
//     ledger entry against the other ranks' entry at the same index the
//     moment it is recorded, and trips on the first divergence — naming
//     the divergent rank and operation instead of hanging.
//  2. Deadlock detector: TransportHub::Recv registers a waiter (who is
//     blocked, on whom, expecting which decoded tag) building a wait-for
//     graph; a watchdog thread trips on stable cycles and on waiters
//     exceeding the timeout, dumping a per-rank diagnosis — which
//     collective, ring round, and chunk each rank is blocked in.
//  3. Fault injection: CommEngine consults ConsumeEngineFault() per
//     request, so tests can skip, shrink, or reorder one rank's collective
//     and prove each detector class fires before ctest would hang.
//
// The checker follows the telemetry Runtime enable pattern: a process-wide
// singleton whose hooks reduce to one relaxed atomic load when disabled
// (the default), so they stay compiled into the hot paths. On detection
// the checker "trips": it freezes a report and invokes the registered trip
// handler (typically TransportHub::Shutdown) so every blocked rank is
// released with Status::Unavailable instead of hanging forever.
//
// Enable()/Disable() must be called from a quiescent point (no in-flight
// collectives), like telemetry::Runtime.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "comm/types.h"
#include "flightrec/recorder.h"

namespace dear::check {

/// Injected divergence, applied by CommEngine to one rank's request stream.
enum class FaultKind : std::uint8_t {
  kNone,
  kSkip,     // drop the collective: complete its handle without running it
  kShrink,   // run it on half the buffer: a size divergence
  kReorder,  // defer it past the next request: a sequence divergence
};

struct FaultSpec {
  int rank{-1};      // which rank's comm engine
  int op_index{-1};  // 0-based request index on that engine
  FaultKind kind{FaultKind::kNone};
};

struct CheckerOptions {
  /// A Recv blocked longer than this trips the watchdog with a full
  /// per-rank diagnosis. <= 0 disables the watchdog thread (the online
  /// matcher still runs).
  double watchdog_timeout_s{2.0};
};

class Checker {
 public:
  /// Process-wide instance (leaked, like telemetry::Runtime — it must
  /// outlive every comm thread).
  static Checker& Get();

  /// Starts a checking session for `world_size` ranks: fresh ledgers,
  /// fresh wait-for graph, un-tripped. Starts the watchdog thread if the
  /// timeout is positive.
  void Enable(int world_size, CheckerOptions options = {});
  /// Stops checking (and the watchdog). The last session's report stays
  /// readable until the next Enable().
  void Disable();

  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] int world_size() const noexcept { return world_size_; }

  /// Invoked (once, on the detecting thread) when the checker trips.
  /// Typically `[&hub] { hub.Shutdown(); }` so blocked ranks unwind with
  /// Status::Unavailable instead of hanging.
  void SetTripHandler(std::function<void()> handler);

  /// Arms one injected fault for the next matching engine request.
  void ArmFault(const FaultSpec& fault);

  // ---- Hooks (call through the free helpers below; they are no-ops
  // ---- unless a session is enabled) -------------------------------------

  /// Protocol verifier: rank begins / ends a top-level collective.
  void OnCollectiveBegin(int rank, std::string_view kind, std::size_t elems);
  void OnCollectiveEnd(int rank);

  /// Deadlock detector: rank `dst` blocks on / returns from a Recv.
  void OnRecvBlocked(int dst, int src, std::uint32_t expected_tag);
  void OnRecvDone(int dst);

  /// Transport progress accounting (diagnosis context only). `bytes` is
  /// the *wire* payload size of the message — a 2-byte wire dtype halves
  /// it relative to the fp32 buffer — so the ledger dump can distinguish
  /// "many tiny control rounds" from "bulk data stalled mid-transfer".
  /// The collective ledger above matches on element counts, which are
  /// dtype-invariant: ranks disagreeing only on wire dtype still trip,
  /// because their per-message byte streams (and thus tags/ordering)
  /// diverge at the transport layer, not here. Counts only inside an
  /// enabled session, the report's only reader (Enable() resets them).
  void OnTransportSend(std::size_t bytes) noexcept {
    if (!enabled()) return;
    sends_.fetch_add(1, std::memory_order_relaxed);
    send_bytes_.fetch_add(static_cast<std::int64_t>(bytes),
                          std::memory_order_relaxed);
  }

  /// Fault interposition: CommEngine calls this once per dequeued request
  /// with its 0-based index; an armed matching fault is consumed.
  FaultKind ConsumeEngineFault(int rank, int op_index);

  // ---- Elastic-membership epoch machine (DESIGN.md §13) ------------------
  //
  // Three failure modes of the epoch protocol, each with its own detector:
  //  - a collective spanning an epoch boundary that was never quiesced
  //    (OnCrossEpochOp, fed by comm::CollectiveScope's epoch stamps);
  //  - a stale-epoch message older than the bounded-staleness window, or
  //    from the future (OnStaleMessage, fed by TransportHub::Recv);
  //  - a survivor that skips an epoch it lived through (OnEpochObserved
  //    against the live masks recorded by OnEpochTransition).

  /// Registers the live membership epoch counter (nullptr detaches). Called
  /// by comm::Membership's ctor/dtor; independent of Enable() sessions so
  /// comm::CollectiveScope can stamp epochs without a Membership pointer.
  void SetEpochCounter(const std::atomic<std::uint32_t>* counter) noexcept {
    epoch_counter_.store(counter, std::memory_order_release);
  }
  [[nodiscard]] const std::atomic<std::uint32_t>* epoch_counter()
      const noexcept {
    return epoch_counter_.load(std::memory_order_acquire);
  }

  /// Membership transition committed (kind = comm::TransitionKind's value;
  /// `live_mask` is the live set AFTER the transition). A trip transition
  /// (kind 2) resets the protocol-verifier state: the quiesce doomed every
  /// in-flight collective, so per-rank ledgers restart at the new epoch.
  void OnEpochTransition(std::uint32_t epoch, int kind, int subject,
                         std::uint64_t live_mask);

  /// Rank has adopted `epoch` (rebuilt its communicator over its live set).
  /// Trips when the rank skips past a transition whose live mask includes
  /// it — a survivor missing a transition — or observes epochs backwards.
  void OnEpochObserved(int rank, std::uint32_t epoch);

  /// Transport rejected a wrong-epoch message on `dst` from `src`. Exactly
  /// one transition stale is the tolerated bounded-staleness window (the
  /// sender raced a trip; counted, not tripped). Older, or from the
  /// future, is a protocol violation.
  void OnStaleMessage(int dst, int src, std::uint32_t msg_epoch,
                      std::uint32_t cur_epoch);

  /// A top-level collective observed different membership epochs at begin
  /// and end. Excused when a trip transition lies in (begin, end] — the op
  /// was doomed by the quiesce and unwound with Unavailable. Trips
  /// otherwise: the op genuinely spanned a boundary (e.g. a readmission
  /// commit, whose contract is full quiescence).
  void OnCrossEpochOp(int rank, const char* kind, std::uint32_t begin,
                      std::uint32_t end);

  /// Stale-epoch messages observed inside the bounded-staleness window
  /// during this session (the silently dropped kind).
  [[nodiscard]] std::int64_t stale_messages_seen() const;

  /// DistOptim schedule verifier: per-(rank, group) state machine over the
  /// decoupled pair. kUnpack from a state other than RsDone/AgDone is a
  /// FeedPipe violation; kAgLaunch before kRsComplete is a BackPipe one.
  enum class GroupEvent : std::uint8_t {
    kRsLaunch,    // OP1 (reduce-scatter or fused all-reduce) submitted
    kRsComplete,  // OP1 handle waited
    kAgLaunch,    // OP2 all-gather submitted
    kAgComplete,  // OP2 handle waited
    kUnpack,      // averaged gradients / gathered params consumed
  };
  void OnGroupEvent(int rank, int group, GroupEvent event);

  // ---- Results -----------------------------------------------------------

  /// True once any detector fired. First trip wins; later ones are ignored.
  [[nodiscard]] bool tripped() const noexcept {
    return tripped_.load(std::memory_order_acquire);
  }
  /// The frozen first-trip report: one-line verdict naming the divergent
  /// rank and operation, followed by the per-rank diagnosis dump.
  [[nodiscard]] std::string report() const;
  /// Current per-rank diagnosis (ledger position, in-flight collective,
  /// blocked-on edge with decoded tag) — callable any time.
  [[nodiscard]] std::string Dump() const;

  /// Runs one watchdog analysis pass synchronously, treating every waiter
  /// as stable (tests and the CLI use this to avoid sleeping).
  void CheckNow();

  /// Number of currently registered blocked receivers (leak detector for
  /// shutdown tests: must be 0 once all workers joined).
  [[nodiscard]] std::size_t blocked_waiters() const;
  /// Ledger entries whose (kind, size) matched across all ranks.
  [[nodiscard]] std::int64_t verified_ops() const;
  [[nodiscard]] std::int64_t ledger_size(int rank) const;

 private:
  Checker() = default;

  struct LedgerEntry {
    std::string_view kind;  // static-storage names from comm::kinds
    std::size_t elems;
  };
  struct Current {
    std::string_view kind;
    std::size_t elems{0};
    int seq{-1};
    std::uint32_t gen{0};
  };
  struct Waiter {
    int src{-1};
    std::uint32_t tag{0};
    std::chrono::steady_clock::time_point since{};
    int ticks{0};  // watchdog passes this waiter has survived
  };
  enum class GroupPhase : std::uint8_t {
    kIdle, kRsInFlight, kRsDone, kAgInFlight, kAgDone,
  };
  struct EpochTransition {
    std::uint32_t epoch{0};
    int kind{0};  // comm::TransitionKind value (2 = trip)
    int subject{-1};
    std::uint64_t live_mask{0};
  };

  [[nodiscard]] static std::string_view PhaseName(GroupPhase phase) noexcept;
  /// First rank whose generation-`gen` ledger entry at `seq` disagrees with
  /// the majority.
  [[nodiscard]] int DivergentLocked(std::uint32_t gen, int seq,
                                    int newcomer) const;
  /// Composes the report, flips tripped_, and returns the handler to run
  /// after the caller drops the lock (empty if already tripped).
  [[nodiscard]] std::function<void()> TripLocked(const std::string& verdict);
  [[nodiscard]] std::string DumpLocked() const;
  /// One watchdog pass; `force` treats all waiters as stable and ignores
  /// the timeout floor. Returns the handler to invoke, if it tripped.
  [[nodiscard]] std::function<void()> AnalyzeLocked(bool force);
  void WatchdogLoop();

  std::atomic<bool> enabled_{false};
  std::atomic<bool> tripped_{false};
  std::atomic<std::int64_t> sends_{0};
  std::atomic<std::int64_t> send_bytes_{0};
  std::atomic<const std::atomic<std::uint32_t>*> epoch_counter_{nullptr};

  mutable std::mutex mutex_;
  CheckerOptions options_;
  int world_size_{0};
  // Ledgers are sharded by *generation* — the membership epoch the rank had
  // adopted when it issued the op (always 0 in fixed-world runs, where the
  // maps hold a single key). The SPMD contract holds within a generation:
  // two ranks' entries are compared only at matching (gen, seq), so a
  // doomed straggler op that one survivor launched just before an epoch
  // trip is never cross-compared against another survivor's post-recovery
  // resync ops.
  std::vector<std::map<std::uint32_t, std::vector<LedgerEntry>>> ledgers_;
  std::vector<std::optional<Current>> current_;
  std::vector<std::optional<Waiter>> waiters_;
  // Ranks that recorded entry #i of a generation so far.
  std::map<std::uint32_t, std::vector<int>> seq_arrivals_;
  std::vector<std::vector<GroupPhase>> group_phase_;  // [rank][group]
  std::vector<EpochTransition> epoch_transitions_;
  std::vector<std::uint32_t> rank_epoch_;  // last epoch each rank observed
  std::int64_t stale_seen_{0};
  FaultSpec fault_;
  bool fault_consumed_{false};
  std::function<void()> trip_handler_;
  std::string report_;
  std::int64_t verified_ops_{0};

  std::thread watchdog_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_{false};
};

/// Wait-for-graph registration around a potentially blocking channel Recv
/// (one relaxed load when checking is off).
class ScopedRecvWait {
 public:
  ScopedRecvWait(int dst, int src, std::uint32_t expected_tag) noexcept;
  ~ScopedRecvWait();
  ScopedRecvWait(const ScopedRecvWait&) = delete;
  ScopedRecvWait& operator=(const ScopedRecvWait&) = delete;

 private:
  bool active_;
  int dst_;
};

/// Terse call-site helper for DistOptim's schedule hooks. The checker's
/// state machine only runs inside an enabled session; the flight-recorder
/// journal entry is unconditional, so a post-mortem dump always shows
/// where each group's decoupled RS/AG pair stood.
inline void OnGroup(int rank, int group, Checker::GroupEvent event) {
  flightrec::EventKind kind = flightrec::EventKind::kUnpack;
  switch (event) {
    case Checker::GroupEvent::kRsLaunch:
      kind = flightrec::EventKind::kRsLaunch;
      break;
    case Checker::GroupEvent::kRsComplete:
      kind = flightrec::EventKind::kRsComplete;
      break;
    case Checker::GroupEvent::kAgLaunch:
      kind = flightrec::EventKind::kAgLaunch;
      break;
    case Checker::GroupEvent::kAgComplete:
      kind = flightrec::EventKind::kAgComplete;
      break;
    case Checker::GroupEvent::kUnpack:
      kind = flightrec::EventKind::kUnpack;
      break;
  }
  flightrec::Recorder::Get().OnGroupEvent(rank, group, kind);
  Checker& checker = Checker::Get();
  if (checker.enabled()) checker.OnGroupEvent(rank, group, event);
}

}  // namespace dear::check
