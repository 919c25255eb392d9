// Elastic membership for the threaded runtime: a monotonically increasing
// membership epoch over the ranks of one TransportHub, with timeout-based
// failure suspicion, degrade-and-continue trips, and epoch-boundary
// readmission.
//
// DeAR's collectives assume a fixed world (the paper's synchronous SPMD
// contract); the epoch protocol relaxes that to *piecewise-fixed*: within
// one epoch the live set is frozen and every collective runs the unchanged
// algorithms over a ring of survivors, and membership only changes at an
// epoch transition that first quiesces all in-flight traffic (the dearcheck
// trip path generalized into TransportHub::TripEpoch's close -> drain ->
// reopen cycle). Messages carry the sender's epoch; the receiver drops
// traffic that is exactly one transition stale (the Pipe-SGD-inspired
// bounded-staleness window — a sender that raced the trip) and trips the
// checker on anything older or newer. See DESIGN.md §13.
//
// Suspicion: every received message refreshes the sender's last-activity
// timestamp; a receiver that waits longer than the liveness deadline —
// derived from the calibrated α–β cost model and scaled by
// DEAR_TIMEOUT_MULT, the same knob that stretches test waits under
// sanitizers — suspects the *stalest silent* live peer (not necessarily the
// one it is blocked on, which may itself be a victim of the real failure).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "comm/cost_model.h"
#include "comm/types.h"

namespace dear::comm {

class TransportHub;

/// One entry of the epoch-transition log. The log is the protocol's ground
/// truth: the golden-trace regression replays its (kind, epoch, subject)
/// sequence, and dearcheck's epoch machine receives a copy of every entry.
enum class TransitionKind : std::uint8_t {
  kSuspect = 1,  // subject declared dead; epoch is about to turn
  kTrip = 2,     // in-flight traffic quiesced (channels cycled)
  kReform = 3,   // survivors re-formed the ring at this epoch
  kReadmit = 4,  // subject readmitted at this epoch boundary
};
[[nodiscard]] const char* TransitionKindName(TransitionKind kind) noexcept;

struct Transition {
  std::uint32_t epoch{0};
  TransitionKind kind{TransitionKind::kSuspect};
  Rank subject{-1};             // suspected/readmitted rank; -1 otherwise
  std::uint64_t live_mask{0};   // live set AFTER this transition
};

struct MembershipOptions {
  /// α–β model the liveness deadline is derived from.
  NetworkModel model{NetworkModel::TenGbE()};
  /// Payload size the deadline budget assumes per blocking hop.
  std::size_t deadline_payload_bytes{1 << 20};
  /// Rounds of α–β slack before a silent peer is suspected.
  double deadline_slack_rounds{64.0};
  /// Lower bound on the deadline, before the DEAR_TIMEOUT_MULT scaling.
  double deadline_floor_s{0.05};
  /// Extra multiplier on top of DEAR_TIMEOUT_MULT (tests shrink or, for
  /// cooperative-only chaos runs under the schedlab controller, effectively
  /// disable the detector by pushing the deadline out of reach).
  double deadline_mult{1.0};
  /// Mutation knob for the dearcheck self-test: false stops Send/Recv from
  /// rejecting wrong-epoch traffic, so a collective can genuinely complete
  /// across an epoch commit — which the cross-epoch-op detector must flag.
  bool enforce_epoch{true};
};

/// Membership epoch service for one TransportHub. Construct after the hub
/// (it attaches itself) and destroy before it. All methods are thread-safe.
class Membership {
 public:
  explicit Membership(TransportHub* hub, MembershipOptions options = {});
  ~Membership();

  Membership(const Membership&) = delete;
  Membership& operator=(const Membership&) = delete;

  [[nodiscard]] int world() const noexcept { return world_; }

  /// Current epoch / settled epoch. The epoch turns at the *start* of a
  /// transition (so in-flight traffic becomes rejectable immediately); the
  /// settled epoch catches up once the channel cycle has completed and the
  /// hub is safe to use at the new epoch.
  [[nodiscard]] std::uint32_t epoch() const noexcept {
    return epoch_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint32_t settled_epoch() const noexcept {
    return settled_.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::uint64_t live_mask() const noexcept {
    return live_mask_.load(std::memory_order_acquire);
  }
  [[nodiscard]] bool IsLive(Rank rank) const noexcept {
    return rank >= 0 && rank < world_ &&
           (live_mask() >> static_cast<unsigned>(rank)) & 1u;
  }
  [[nodiscard]] int live_count() const noexcept;
  /// Sorted live physical ranks — the survivor ring, shared so Communicator
  /// copies stay cheap.
  [[nodiscard]] std::shared_ptr<const std::vector<Rank>> LiveGroup() const;

  // ---- Failure path ------------------------------------------------------

  /// Declares `rank` dead: logs kSuspect + kTrip, turns the epoch, cycles
  /// every hub channel (in-flight collectives unwind with Unavailable), and
  /// marks the new epoch settled. Idempotent per rank — only the first
  /// caller commits the transition; returns whether this call did.
  /// `why` names the detector for the flight recorder / transition log.
  bool Suspect(Rank rank, const char* why, Rank detector);

  /// Survivors' re-form acknowledgement: logs kReform for `epoch` exactly
  /// once (the recovery root calls it after the survivor ring is rebuilt
  /// and state-synced).
  void NoteReform(std::uint32_t epoch);

  // ---- Readmission -------------------------------------------------------

  /// A dead rank asks to rejoin at the next epoch boundary.
  void RequestReadmit(Rank rank);
  [[nodiscard]] bool has_pending_readmits() const;

  /// Rendezvous: the recovery root publishes the iteration at which every
  /// survivor will pause and commit pending readmissions. First proposal
  /// wins; cleared by CommitReadmits.
  void ProposeCommitAt(std::int64_t iteration);
  [[nodiscard]] std::int64_t commit_at() const noexcept {
    return commit_at_.load(std::memory_order_acquire);
  }

  /// Commits all pending readmissions, turning the epoch once. The caller
  /// barriers the survivors first, but the barrier's own tail messages may
  /// still be in flight, so the commit cycles the channels like Suspect
  /// does (logging a kTrip) — otherwise a straggler's blocked Recv would
  /// sleep to its liveness deadline. Idempotent: only commits if the epoch
  /// still equals `expected_epoch`. Returns the (possibly unchanged)
  /// current epoch.
  std::uint32_t CommitReadmits(std::uint32_t expected_epoch);

  // ---- Waits (all are schedlab-visible blocking sites) -------------------

  /// Parks a dead rank until a CommitReadmits makes it live again.
  void WaitLive(Rank rank);
  /// Blocks until the settled epoch reaches `epoch` (recovery gate: the
  /// channel cycle of the transition that produced `epoch` has finished).
  void WaitSettled(std::uint32_t epoch);

  /// Records that `rank` has adopted `epoch` (rebuilt its communicator over
  /// the epoch's live set). Feeds the dearcheck missed-transition detector
  /// and the flight recorder.
  void ObserveEpoch(Rank rank, std::uint32_t epoch);

  // ---- Liveness tracking (transport hot path) ----------------------------

  /// Message from `rank` arrived — refresh its last-activity stamp.
  /// Relaxed single store; this is on the per-message path that
  /// bench/epoch_overhead holds under the 1% bar.
  void NoteActivity(Rank rank) noexcept {
    if (rank >= 0 && rank < world_) {
      last_active_[static_cast<std::size_t>(rank)].store(
          Membership::NowNs(), std::memory_order_relaxed);
    }
  }

  /// Liveness deadline in ns: max(floor, slack_rounds x (α + β·payload)),
  /// scaled by DEAR_TIMEOUT_MULT x options.deadline_mult.
  [[nodiscard]] std::uint64_t deadline_ns() const noexcept {
    return deadline_ns_;
  }

  /// The live rank (excluding `self`) with the oldest last-activity stamp
  /// older than the deadline, or -1 when every live peer is fresh enough.
  /// Deliberately not "the rank I'm blocked on": the blocked-on peer may be
  /// stuck waiting on the true victim itself.
  [[nodiscard]] Rank StalestSilent(Rank self, std::uint64_t now_ns) const;

  [[nodiscard]] bool enforce_epoch() const noexcept {
    return options_.enforce_epoch;
  }

  // ---- Introspection -----------------------------------------------------

  [[nodiscard]] std::vector<Transition> transitions() const;
  /// Bitmask of ranks readmitted by the transition that produced `epoch`
  /// (empty for suspect epochs). The recovery root must be a *survivor*,
  /// not a fresh readmit whose parameters are stale — callers subtract
  /// this mask when picking the state-sync root.
  [[nodiscard]] std::uint64_t ReadmittedAt(std::uint32_t epoch) const;
  /// One line per transition: "e<epoch> <kind> rank=<subject> live=<set>",
  /// the format the golden-trace regression pins.
  [[nodiscard]] std::string FormatTransitions() const;

 private:
  static std::uint64_t NowNs() noexcept;  // flightrec clock (lint: no
                                          // steady_clock in src/comm)
  /// Appends to the log and feeds dearcheck + flightrec. Caller holds
  /// mutex_.
  void LogTransitionLocked(std::uint32_t epoch, TransitionKind kind,
                           Rank subject, Rank detector);

  TransportHub* hub_;
  MembershipOptions options_;
  int world_;
  std::uint64_t deadline_ns_;

  std::atomic<std::uint32_t> epoch_{0};
  std::atomic<std::uint32_t> settled_{0};
  std::atomic<std::uint64_t> live_mask_{0};
  std::atomic<std::int64_t> commit_at_{-1};
  std::unique_ptr<std::atomic<std::uint64_t>[]> last_active_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Transition> log_;
  std::uint64_t pending_readmits_{0};     // bitmask
  std::uint32_t last_reform_epoch_{~0u};  // NoteReform once per epoch
};

}  // namespace dear::comm
