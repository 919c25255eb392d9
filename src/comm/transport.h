// In-process point-to-point transport connecting worker threads.
//
// A TransportHub owns one FIFO channel per directed (src, dst) rank pair.
// Collectives on top of it are deterministic: every rank executes the same
// algorithm, so each directed channel sees messages in a fixed order; tags
// are carried only to detect protocol bugs (mismatched send/recv pairing
// fails a DEAR_CHECK rather than deadlocking silently).
//
// Payloads ride pooled slabs (comm/buffer_pool.h): the span-based Send
// acquires a recycled slab and writes the data straight into it, the
// receiver consumes it in place, and the slab returns to the hub's pool
// when the Message dies — zero heap allocations per steady-state message,
// the in-process analogue of NCCL's registered buffers.
//
// This plays the role NCCL's bootstrap + ring/tree transports play on a real
// cluster; see DESIGN.md §1 and §10 for the substitution rationale.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "comm/buffer_pool.h"
#include "common/channel.h"
#include "common/status.h"
#include "comm/types.h"

namespace dear::comm {

class Membership;

/// One point-to-point payload. Tags are packed with tags::MakeTag from
/// comm/types.h — kind(8) | round(12) | chunk(12) — so a mismatched or
/// blocked message can be decoded back to the collective that produced it
/// (tags::Describe; used by the dearcheck diagnosis in src/check).
/// Move-only: the payload is a pooled slab, not a copyable vector.
///
/// `causal` and `lamport` are the flight-recorder's cross-rank tracing
/// headers, stamped by TransportHub::Send: causal is the 64-bit
/// (src_rank, send_seq) message identity (flightrec::causal::Make, with
/// the sequence striped per destination so it is unique per channel) that
/// lets the receiver journal a matching happens-before edge, and lamport
/// is the sender's logical clock, max-merged into the receiver's on Recv.
/// `epoch` is the sender's membership epoch (0 when no Membership is
/// attached). Receivers at a different epoch reject the message: exactly
/// one transition stale is dropped silently (bounded staleness — the
/// sender raced an epoch trip), anything further from the receiver's epoch
/// trips dearcheck. Either way the drop is journaled with the message's
/// causal ID (flightrec kStaleDrop).
struct Message {
  std::uint32_t tag{0};
  std::uint32_t lamport{0};
  std::uint32_t epoch{0};
  std::uint64_t causal{0};
  PooledBuffer payload;
};

struct TransportOptions {
  /// false = every payload is a fresh heap allocation (the pre-pool
  /// reference path; schedlab proves digests match either way).
  bool use_pool{true};
};

class TransportHub {
 public:
  /// Creates a hub for `size` ranks. size >= 1.
  explicit TransportHub(int size, TransportOptions options = {});
  /// Drains and asserts pool quiescence: every PooledBuffer this hub
  /// handed out must be released by now (all worker threads joined).
  ~TransportHub();

  TransportHub(const TransportHub&) = delete;
  TransportHub& operator=(const TransportHub&) = delete;

  [[nodiscard]] int size() const noexcept { return size_; }

  /// The slab pool payloads are acquired from (exposed for stats and for
  /// staged zero-copy writes).
  [[nodiscard]] BufferPool& pool() noexcept { return pool_; }

  /// Enqueues `msg` on the (src, dst) channel. Returns false if shut down.
  /// With a Membership attached, `msg.epoch` must already carry the
  /// sender's epoch; sends to dead peers or from a stale epoch are dropped
  /// (returns false) instead of poisoning the survivor ring.
  bool Send(Rank src, Rank dst, Message msg);

  /// Pooled-payload send: acquires a slab from the hub's pool, writes
  /// `data` into it once — converting to `dtype`'s wire encoding in the
  /// same pass (kernels::Pack) — and enqueues. Returns false if shut
  /// down. `epoch` is stamped into the message (ignored with no
  /// Membership). kF32 is a plain memcpy, bitwise identical to the
  /// pre-dtype path; kF16/kBF16 send 2 bytes per element.
  bool Send(Rank src, Rank dst, std::uint32_t tag,
            std::span<const float> data, std::uint32_t epoch = 0,
            DType dtype = DType::kF32);

  /// Blocks for the next message on the (src, dst) channel; verifies the tag
  /// matches `expected_tag`. Returns Unavailable after Shutdown().
  ///
  /// With a Membership attached the wait becomes epoch-aware and bounded:
  /// `epoch` is the receiver's membership epoch (ops at a superseded epoch
  /// fail fast with Unavailable), wrong-epoch arrivals are rejected per the
  /// Message contract above, and a wait longer than the liveness deadline
  /// suspects the stalest silent peer — tripping the epoch so every
  /// in-flight collective unwinds instead of hanging on a dead rank.
  StatusOr<Message> Recv(Rank src, Rank dst, std::uint32_t expected_tag,
                         std::uint32_t epoch = 0);

  /// Closes every channel (releasing any blocked receiver), then drains
  /// queued messages so their slabs return to the pool even when no
  /// receiver will ever claim them (e.g. a dearcheck trip mid-collective).
  void Shutdown();

  /// Membership epoch trip: close -> drain -> reopen every channel. Blocked
  /// receivers unwind with Unavailable (their close generation moved even
  /// if they only wake after the reopen), queued stale-epoch payloads go
  /// back to the pool, and the hub is immediately usable by the survivor
  /// ring at the new epoch — unlike Shutdown, which retires the hub.
  void TripEpoch();

  /// Registers (or, with nullptr, detaches) the membership service that
  /// makes this hub epoch-aware. Called by Membership's ctor/dtor.
  void AttachMembership(Membership* membership) noexcept;
  [[nodiscard]] Membership* membership() const noexcept {
    return membership_.load(std::memory_order_acquire);
  }

  /// Wrong-epoch messages rejected by Recv since construction.
  [[nodiscard]] std::uint64_t stale_drops() const noexcept {
    return stale_drops_.load(std::memory_order_relaxed);
  }

  /// True once Shutdown() retired the hub — the elastic recovery loop's
  /// exit condition (a tripped checker shuts the hub down; recovery must
  /// stop retrying instead of spinning on closed channels).
  [[nodiscard]] bool shut_down() const noexcept {
    return shut_down_.load(std::memory_order_acquire);
  }

 private:
  Channel<Message>& ChannelFor(Rank src, Rank dst);

  int size_;
  BufferPool pool_;
  std::vector<std::unique_ptr<Channel<Message>>> channels_;  // size*size
  std::atomic<Membership*> membership_{nullptr};
  std::atomic<std::uint64_t> stale_drops_{0};
  std::atomic<bool> shut_down_{false};
};

}  // namespace dear::comm
