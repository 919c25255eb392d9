#include "comm/transport.h"

#include <chrono>
#include <cstring>
#include <optional>
#include <utility>

#include "check/checker.h"
#include "comm/kernels.h"
#include "comm/membership.h"
#include "common/logging.h"
#include "common/schedule_point.h"
#include "flightrec/recorder.h"
#include "telemetry/telemetry.h"

namespace dear::comm {

TransportHub::TransportHub(int size, TransportOptions options)
    : size_(size), pool_(options.use_pool) {
  DEAR_CHECK_MSG(size >= 1, "TransportHub needs at least one rank");
  // The flight recorder journals every rank of every hub; rings persist
  // across hubs so a post-mortem dump spans the whole process lifetime.
  flightrec::Recorder::Get().EnsureRanks(size);
  channels_.reserve(static_cast<std::size_t>(size) * size);
  for (int i = 0; i < size * size; ++i)
    channels_.push_back(std::make_unique<Channel<Message>>());
}

TransportHub::~TransportHub() {
  Shutdown();
  // Quiescence: by now every worker using this hub must have joined, so
  // every acquired slab has been released (in-channel ones by Shutdown's
  // drain, in-hand ones by the owning Message's destructor). A nonzero
  // count means a PooledBuffer escaped its collective — a lifetime bug
  // that would otherwise surface as silent memory growth.
  DEAR_CHECK_MSG(pool_.stats().in_flight_buffers == 0,
                 "TransportHub destroyed with pooled buffers still in flight");
}

Channel<Message>& TransportHub::ChannelFor(Rank src, Rank dst) {
  DEAR_CHECK(src >= 0 && src < size_ && dst >= 0 && dst < size_);
  return *channels_[static_cast<std::size_t>(src) * size_ + dst];
}

bool TransportHub::Send(Rank src, Rank dst, Message msg) {
  if (Membership* m = membership()) {
    // Elastic guard rails, applied at the source so a failed or superseded
    // sender cannot poison the survivor ring: both cases drop the message
    // (collectives discover the failure through their own Recvs).
    if (m->enforce_epoch() &&
        (!m->IsLive(dst) || msg.epoch != m->epoch())) {
      return false;
    }
  }
  // Wire accounting uses the payload's *wire* bytes (2 per element for
  // fp16/bf16), so telemetry, the checker ledger, and the flight recorder
  // all see the bandwidth the dtype actually buys.
  const std::size_t bytes = msg.payload.wire_bytes();
  telemetry::OnMessageSent(src, bytes,
                           static_cast<int>(msg.payload.dtype()));
  check::Checker::Get().OnTransportSend(bytes);
  // Always-on black box: assigns the message's causal ID (src, send_seq)
  // and Lamport stamp, then journals the send edge endpoint.
  flightrec::Recorder::Get().OnSend(src, dst, msg.tag, bytes, &msg.causal,
                                    &msg.lamport);
  // The schedule point for the send is the channel's own kChannelSend.
  return ChannelFor(src, dst).Send(std::move(msg));
}

bool TransportHub::Send(Rank src, Rank dst, std::uint32_t tag,
                        std::span<const float> data, std::uint32_t epoch,
                        DType dtype) {
  Message msg;
  msg.tag = tag;
  msg.epoch = epoch;
  msg.payload = pool_.Acquire(data.size(), dtype);
  if (!data.empty()) {
    // Convert-on-pack: one pass from the fp32 source straight into the
    // pooled slab — for 2-byte dtypes this is where the downconvert
    // happens, replacing DistOptim's old separate quantize sweep.
    kernels::Pack(dtype, msg.payload.wire_data(), data);
  }
  return Send(src, dst, std::move(msg));
}

StatusOr<Message> TransportHub::Recv(Rank src, Rank dst,
                                     std::uint32_t expected_tag,
                                     std::uint32_t epoch) {
  Membership* m = membership();
  std::optional<Message> msg;
  {
    // Outermost schedule-block bracket: labels the wait with the
    // transport-level site (the nested one inside Channel::Recv is
    // suppressed by the controller's per-thread depth counter).
    schedpoint::ScopedBlock block(schedpoint::Site::kTransportRecv);
    // Register as a blocked receiver for the wait-for graph while inside
    // the (potentially blocking) channel Recv.
    check::ScopedRecvWait wait(dst, src, expected_tag);
    if (m == nullptr) {
      msg = ChannelFor(src, dst).Recv();
    } else {
      // Epoch-aware bounded wait. One RecvFor per deadline period — no
      // polling: every epoch transition cycles the channels, so a waiter
      // is always woken (kClosed) when its op is doomed.
      const auto deadline = std::chrono::nanoseconds(m->deadline_ns());
      Channel<Message>& channel = ChannelFor(src, dst);
      for (;;) {
        // Read the close generation before the epoch: a trip turns the
        // epoch before it closes the channels, so either this check sees
        // the new epoch or RecvFor sees the close. Read after the check,
        // a trip landing in between would leave this receiver asleep
        // until its liveness deadline, waiting for a message the trip's
        // drain already discarded — or, if the peer had already re-formed,
        // taking and rejecting that peer's first message of the new epoch,
        // which deadlocks the peer's re-form barrier.
        const std::uint64_t gen = channel.close_generation();
        if (m->enforce_epoch() && m->epoch() != epoch) {
          return Status::Unavailable(
              "membership epoch moved past this collective");
        }
        RecvOutcome outcome = RecvOutcome::kClosed;
        msg = channel.RecvFor(deadline, gen, &outcome);
        if (outcome == RecvOutcome::kItem) {
          m->NoteActivity(src);
          if (msg->epoch == epoch || !m->enforce_epoch()) break;
          // Wrong-epoch arrival: journal the rejection under the dropped
          // message's causal ID, then apply the bounded-staleness rule.
          stale_drops_.fetch_add(1, std::memory_order_relaxed);
          flightrec::Recorder::Get().OnStaleDrop(
              dst, src, msg->tag, msg->causal, msg->epoch, epoch);
          check::Checker& checker = check::Checker::Get();
          if (checker.enabled())
            checker.OnStaleMessage(dst, src, msg->epoch, epoch);
          if (msg->epoch + 1 == epoch) {
            // One transition stale: the sender raced a trip. Drop
            // silently and keep waiting.
            msg.reset();
            continue;
          }
          return Status::Unavailable("stale-epoch message rejected");
        }
        if (outcome == RecvOutcome::kClosed) {
          msg.reset();
          break;  // shutdown or epoch trip; diagnosed below
        }
        // Timeout: the liveness deadline elapsed with the channel open.
        // Suspect the stalest silent live peer, if any peer actually
        // breached the deadline (otherwise re-arm: activity raced us).
        const Rank victim = m->StalestSilent(dst, flightrec::NowNs());
        if (victim >= 0) {
          m->Suspect(victim, "liveness deadline", dst);
          return Status::Unavailable("peer suspected after liveness timeout");
        }
      }
    }
  }
  if (!msg.has_value()) {
    if (m != nullptr && m->enforce_epoch() && m->epoch() != epoch) {
      return Status::Unavailable(
          "membership epoch moved past this collective");
    }
    return Status::Unavailable("transport shut down while receiving");
  }
  telemetry::OnMessageReceived(dst, msg->payload.wire_bytes());
  // Journal the matching edge endpoint even on a tag mismatch — the
  // message did arrive, and the causal edge is what diagnoses the bug.
  flightrec::Recorder::Get().OnRecv(dst, src, msg->tag,
                                    msg->payload.wire_bytes(), msg->causal,
                                    msg->lamport);
  if (msg->tag != expected_tag) {
    return Status::Internal("tag mismatch: expected [" +
                            tags::Describe(expected_tag) + "] got [" +
                            tags::Describe(msg->tag) + "]");
  }
  return std::move(*msg);
}

void TransportHub::AttachMembership(Membership* membership) noexcept {
  membership_.store(membership, std::memory_order_release);
}

void TransportHub::TripEpoch() {
  // Close first: every blocked receiver's close generation moves, so even
  // a waiter that only runs after the Reopen below still unwinds with
  // Unavailable instead of sleeping into the new epoch.
  for (auto& ch : channels_) ch->Close();
  // Drain stale-epoch payloads back to the pool (no receiver will ever
  // claim them), then reopen for the survivor ring. The pool itself is
  // NOT drained: its slabs are the steady-state zero-alloc reserve.
  for (auto& ch : channels_) ch->Clear();
  for (auto& ch : channels_) ch->Reopen();
}

void TransportHub::Shutdown() {
  shut_down_.store(true, std::memory_order_release);
  // Black-box checkpoint: journal the shutdown on every rank and, when
  // DEAR_FLIGHTREC_DUMP is set, persist the last-N records per rank so a
  // trip-initiated teardown leaves a post-mortem timeline on disk.
  flightrec::Recorder::Get().OnShutdown(size_);
  // Close first so no sender can slip a message in behind the drain.
  for (auto& ch : channels_) ch->Close();
  for (auto& ch : channels_) ch->Clear();
  pool_.Drain();
}

}  // namespace dear::comm
