#include "comm/membership.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "check/checker.h"
#include "comm/transport.h"
#include "common/logging.h"
#include "common/schedule_point.h"
#include "flightrec/recorder.h"

namespace dear::comm {

namespace {

/// DEAR_TIMEOUT_MULT, the process-wide wait stretcher (tests/test_env.h
/// applies the same variable to every test-side wait, so the detector and
/// the waits it races scale together under the sanitizer matrix).
double TimeoutMultFromEnv() {
  const char* env = std::getenv("DEAR_TIMEOUT_MULT");
  if (env == nullptr) return 1.0;
  const double v = std::atof(env);
  return v > 0.0 ? v : 1.0;
}

}  // namespace

const char* TransitionKindName(TransitionKind kind) noexcept {
  switch (kind) {
    case TransitionKind::kSuspect: return "suspect";
    case TransitionKind::kTrip: return "trip";
    case TransitionKind::kReform: return "reform";
    case TransitionKind::kReadmit: return "readmit";
  }
  return "unknown";
}

Membership::Membership(TransportHub* hub, MembershipOptions options)
    : hub_(hub), options_(options), world_(hub->size()) {
  DEAR_CHECK_MSG(world_ <= 64,
                 "membership tracks liveness in a 64-bit mask");
  const double hop_s =
      options_.model.alpha_s +
      options_.model.beta_s_per_byte *
          static_cast<double>(options_.deadline_payload_bytes);
  const double deadline_s =
      std::max(options_.deadline_floor_s,
               options_.deadline_slack_rounds * hop_s) *
      TimeoutMultFromEnv() * options_.deadline_mult;
  deadline_ns_ = static_cast<std::uint64_t>(deadline_s * 1e9);
  live_mask_.store(world_ == 64 ? ~0ull : (1ull << world_) - 1,
                   std::memory_order_release);
  last_active_ = std::make_unique<std::atomic<std::uint64_t>[]>(
      static_cast<std::size_t>(world_));
  const std::uint64_t now = NowNs();
  for (int r = 0; r < world_; ++r)
    last_active_[static_cast<std::size_t>(r)].store(
        now, std::memory_order_relaxed);
  check::Checker::Get().SetEpochCounter(&epoch_);
  hub_->AttachMembership(this);
}

Membership::~Membership() {
  hub_->AttachMembership(nullptr);
  check::Checker::Get().SetEpochCounter(nullptr);
}

std::uint64_t Membership::NowNs() noexcept { return flightrec::NowNs(); }

int Membership::live_count() const noexcept {
  return __builtin_popcountll(live_mask());
}

std::shared_ptr<const std::vector<Rank>> Membership::LiveGroup() const {
  auto group = std::make_shared<std::vector<Rank>>();
  const std::uint64_t mask = live_mask();
  for (int r = 0; r < world_; ++r)
    if ((mask >> static_cast<unsigned>(r)) & 1u) group->push_back(r);
  return group;
}

void Membership::LogTransitionLocked(std::uint32_t epoch, TransitionKind kind,
                                     Rank subject, Rank detector) {
  Transition t;
  t.epoch = epoch;
  t.kind = kind;
  t.subject = subject;
  t.live_mask = live_mask_.load(std::memory_order_relaxed);
  log_.push_back(t);
  flightrec::Recorder::Get().OnEpoch(detector, epoch,
                                     static_cast<std::uint16_t>(kind),
                                     subject);
  check::Checker& checker = check::Checker::Get();
  if (checker.enabled()) {
    checker.OnEpochTransition(epoch, static_cast<int>(kind), subject,
                              t.live_mask);
  }
}

bool Membership::Suspect(Rank rank, const char* why, Rank detector) {
  DEAR_CHECK(rank >= 0 && rank < world_);
  (void)why;  // carried for call-site readability; the log names the kind
  std::uint32_t new_epoch = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t mask = live_mask_.load(std::memory_order_relaxed);
    const std::uint64_t bit = 1ull << static_cast<unsigned>(rank);
    if ((mask & bit) == 0) return false;  // already dead: first caller won
    DEAR_CHECK_MSG(__builtin_popcountll(mask) > 1,
                   "cannot suspect the last live rank");
    live_mask_.store(mask & ~bit, std::memory_order_release);
    new_epoch = epoch_.load(std::memory_order_relaxed) + 1;
    // Epoch turns before the channel cycle: from this instant on, traffic
    // stamped with the old epoch is rejectable everywhere.
    epoch_.store(new_epoch, std::memory_order_release);
    LogTransitionLocked(new_epoch, TransitionKind::kSuspect, rank, detector);
    // kTrip is logged BEFORE the channels cycle so a doomed in-flight op
    // whose CollectiveScope unwinds across the bump finds the excusing
    // trip already in dearcheck's transition log.
    LogTransitionLocked(new_epoch, TransitionKind::kTrip, -1, detector);
  }
  // Quiesce outside the lock: closing wakes every blocked receiver (their
  // collectives unwind with Unavailable), Clear drains stale-epoch
  // payloads back to the pool, Reopen readies the channels for the
  // survivor ring.
  hub_->TripEpoch();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    settled_.store(new_epoch, std::memory_order_release);
  }
  cv_.notify_all();
  return true;
}

void Membership::NoteReform(std::uint32_t epoch) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (last_reform_epoch_ == epoch) return;
  last_reform_epoch_ = epoch;
  LogTransitionLocked(epoch, TransitionKind::kReform, -1, -1);
}

void Membership::RequestReadmit(Rank rank) {
  DEAR_CHECK(rank >= 0 && rank < world_);
  std::lock_guard<std::mutex> lock(mutex_);
  pending_readmits_ |= 1ull << static_cast<unsigned>(rank);
}

bool Membership::has_pending_readmits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pending_readmits_ != 0;
}

void Membership::ProposeCommitAt(std::int64_t iteration) {
  std::int64_t expected = -1;
  commit_at_.compare_exchange_strong(expected, iteration,
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire);
}

std::uint32_t Membership::CommitReadmits(std::uint32_t expected_epoch) {
  std::uint32_t new_epoch = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::uint32_t cur = epoch_.load(std::memory_order_relaxed);
    if (cur != expected_epoch || pending_readmits_ == 0) return cur;
    new_epoch = cur + 1;
    std::uint64_t mask = live_mask_.load(std::memory_order_relaxed);
    std::uint64_t pending = pending_readmits_;
    pending_readmits_ = 0;
    commit_at_.store(-1, std::memory_order_release);
    live_mask_.store(mask | pending, std::memory_order_release);
    epoch_.store(new_epoch, std::memory_order_release);
    for (int r = 0; r < world_; ++r) {
      if ((pending >> static_cast<unsigned>(r)) & 1u)
        LogTransitionLocked(new_epoch, TransitionKind::kReadmit, r, -1);
    }
    // Even a readmission must quiesce: the rendezvous barrier that precedes
    // this commit guarantees every survivor *applied* the previous
    // iteration, but the barrier's own final messages can still be in
    // flight on a straggler's engine — and post-commit they would be
    // dropped at the send gate, leaving that receiver parked until its
    // liveness deadline. Tripping the channels wakes it immediately, and
    // the kTrip excuses its doomed barrier guard in dearcheck.
    LogTransitionLocked(new_epoch, TransitionKind::kTrip, -1, -1);
  }
  hub_->TripEpoch();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    settled_.store(new_epoch, std::memory_order_release);
  }
  cv_.notify_all();
  return new_epoch;
}

void Membership::WaitLive(Rank rank) {
  schedpoint::ScopedBlock block(schedpoint::Site::kMembershipWait);
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] {
    return (live_mask_.load(std::memory_order_relaxed) >>
            static_cast<unsigned>(rank)) &
           1u;
  });
}

void Membership::WaitSettled(std::uint32_t epoch) {
  schedpoint::ScopedBlock block(schedpoint::Site::kMembershipWait);
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] {
    return settled_.load(std::memory_order_relaxed) >= epoch;
  });
}

void Membership::ObserveEpoch(Rank rank, std::uint32_t epoch) {
  flightrec::Recorder::Get().OnEpoch(rank, epoch, /*kind=*/0, /*subject=*/-1);
  check::Checker& checker = check::Checker::Get();
  if (checker.enabled()) checker.OnEpochObserved(rank, epoch);
}

Rank Membership::StalestSilent(Rank self, std::uint64_t now_ns) const {
  const std::uint64_t mask = live_mask();
  Rank stalest = -1;
  std::uint64_t oldest = now_ns;
  for (int r = 0; r < world_; ++r) {
    if (r == self || ((mask >> static_cast<unsigned>(r)) & 1u) == 0) continue;
    const std::uint64_t seen =
        last_active_[static_cast<std::size_t>(r)].load(
            std::memory_order_relaxed);
    if (now_ns >= seen + deadline_ns_ && seen < oldest) {
      oldest = seen;
      stalest = r;
    }
  }
  return stalest;
}

std::uint64_t Membership::ReadmittedAt(std::uint32_t epoch) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t mask = 0;
  for (const Transition& t : log_) {
    if (t.epoch == epoch && t.kind == TransitionKind::kReadmit &&
        t.subject >= 0) {
      mask |= 1ull << static_cast<unsigned>(t.subject);
    }
  }
  return mask;
}

std::vector<Transition> Membership::transitions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return log_;
}

std::string Membership::FormatTransitions() const {
  const auto log = transitions();
  std::string out;
  for (const Transition& t : log) {
    out += "e" + std::to_string(t.epoch) + " " + TransitionKindName(t.kind);
    if (t.subject >= 0) out += " rank=" + std::to_string(t.subject);
    out += " live=";
    bool first = true;
    for (int r = 0; r < world_; ++r) {
      if ((t.live_mask >> static_cast<unsigned>(r)) & 1u) {
        if (!first) out += ",";
        out += std::to_string(r);
        first = false;
      }
    }
    out += "\n";
  }
  return out;
}

}  // namespace dear::comm
