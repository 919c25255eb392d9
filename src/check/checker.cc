#include "check/checker.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/logging.h"
#include "telemetry/telemetry.h"

namespace dear::check {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point since, Clock::time_point now) {
  return std::chrono::duration<double>(now - since).count();
}

/// Flight-recorder records appended to every diagnosis dump, per rank.
constexpr std::size_t kDumpTailRecords = 8;

/// Total ops a rank has recorded across every ledger generation.
template <typename GenLedger>
std::size_t TotalOps(const GenLedger& gens) {
  std::size_t n = 0;
  for (const auto& [gen, entries] : gens) n += entries.size();
  return n;
}

}  // namespace

Checker& Checker::Get() {
  static Checker* instance = new Checker();  // leaked: outlives comm threads
  return *instance;
}

void Checker::Enable(int world_size, CheckerOptions options) {
  Disable();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    options_ = options;
    world_size_ = std::max(0, world_size);
    const auto n = static_cast<std::size_t>(world_size_);
    ledgers_.assign(n, {});
    current_.assign(n, std::nullopt);
    waiters_.assign(n, std::nullopt);
    seq_arrivals_.clear();
    group_phase_.assign(n, {});
    epoch_transitions_.clear();
    rank_epoch_.assign(n, 0);
    stale_seen_ = 0;
    fault_ = FaultSpec{};
    fault_consumed_ = false;
    trip_handler_ = nullptr;  // per-session: re-register after Enable()
    report_.clear();
    verified_ops_ = 0;
    watchdog_stop_ = false;
  }
  sends_.store(0, std::memory_order_relaxed);
  send_bytes_.store(0, std::memory_order_relaxed);
  tripped_.store(false, std::memory_order_release);
  enabled_.store(true, std::memory_order_release);
  if (options.watchdog_timeout_s > 0) {
    watchdog_ = std::thread([this] { WatchdogLoop(); });
  }
}

void Checker::Disable() {
  enabled_.store(false, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
}

void Checker::SetTripHandler(std::function<void()> handler) {
  std::lock_guard<std::mutex> lock(mutex_);
  trip_handler_ = std::move(handler);
}

void Checker::ArmFault(const FaultSpec& fault) {
  std::lock_guard<std::mutex> lock(mutex_);
  fault_ = fault;
  fault_consumed_ = false;
}

FaultKind Checker::ConsumeEngineFault(int rank, int op_index) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fault_consumed_ || fault_.kind == FaultKind::kNone) {
    return FaultKind::kNone;
  }
  if (fault_.rank != rank || fault_.op_index != op_index) {
    return FaultKind::kNone;
  }
  fault_consumed_ = true;
  return fault_.kind;
}

void Checker::OnEpochTransition(std::uint32_t epoch, int kind, int subject,
                                std::uint64_t live_mask) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (tripped_.load(std::memory_order_relaxed)) return;
  epoch_transitions_.push_back(EpochTransition{epoch, kind, subject,
                                               live_mask});
  // No verifier state is cleared here: ledgers are sharded by the issuing
  // rank's *adopted* epoch (see OnCollectiveBegin), so post-recovery ops
  // land in a fresh generation and are never cross-compared with a doomed
  // straggler that another rank launched just before the trip. Per-rank
  // state resets when that rank adopts the new epoch (OnEpochObserved).
}

void Checker::OnEpochObserved(int rank, std::uint32_t epoch) {
  std::function<void()> pending;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (rank < 0 || rank >= world_size_ ||
        tripped_.load(std::memory_order_relaxed)) {
      return;
    }
    std::uint32_t& prev = rank_epoch_[static_cast<std::size_t>(rank)];
    if (epoch < prev) {
      pending = TripLocked("epoch regression: rank " + std::to_string(rank) +
                           " adopted e" + std::to_string(epoch) +
                           " after already observing e" +
                           std::to_string(prev));
    } else {
      // Survivor-missing-a-transition rule: every transition strictly
      // between the rank's last observation and this one whose live mask
      // includes the rank is an epoch it lived through but never adopted.
      for (const EpochTransition& t : epoch_transitions_) {
        if (t.epoch > prev && t.epoch < epoch &&
            ((t.live_mask >> static_cast<unsigned>(rank)) & 1u)) {
          pending = TripLocked(
              "survivor missed an epoch transition: rank " +
              std::to_string(rank) + " jumped from e" + std::to_string(prev) +
              " to e" + std::to_string(epoch) + " but was live at e" +
              std::to_string(t.epoch));
          break;
        }
      }
      if (!pending && epoch != prev) {
        prev = epoch;
        // Adopting a new epoch restarts this rank's protocol state: its
        // in-flight groups died with the quiesce and subsequent ops land in
        // the new ledger generation. (The owner joins its engine before
        // adopting, so no op of this rank is still in flight here.)
        current_[static_cast<std::size_t>(rank)].reset();
        group_phase_[static_cast<std::size_t>(rank)].clear();
      }
    }
  }
  if (pending) pending();
}

void Checker::OnStaleMessage(int dst, int src, std::uint32_t msg_epoch,
                             std::uint32_t cur_epoch) {
  std::function<void()> pending;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (tripped_.load(std::memory_order_relaxed)) return;
    if (msg_epoch + 1 == cur_epoch) {
      // Bounded-staleness window: the sender raced the trip. Tolerated.
      ++stale_seen_;
    } else if (msg_epoch > cur_epoch) {
      pending = TripLocked(
          "future-epoch message: rank " + std::to_string(dst) +
          " at e" + std::to_string(cur_epoch) + " received e" +
          std::to_string(msg_epoch) + " traffic from rank " +
          std::to_string(src) + " (receiver missed a transition?)");
    } else {
      pending = TripLocked(
          "stale-epoch message beyond the bounded-staleness window: rank " +
          std::to_string(dst) + " at e" + std::to_string(cur_epoch) +
          " received e" + std::to_string(msg_epoch) + " traffic from rank " +
          std::to_string(src));
    }
  }
  if (pending) pending();
}

void Checker::OnCrossEpochOp(int rank, const char* kind, std::uint32_t begin,
                             std::uint32_t end) {
  std::function<void()> pending;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (tripped_.load(std::memory_order_relaxed)) return;
    // A trip transition inside (begin, end] quiesced the op: it unwound
    // with Unavailable and is excused. (Suspect logs the trip BEFORE the
    // channel cycle, so the excuse is always visible here by the time a
    // doomed guard unwinds.)
    for (const EpochTransition& t : epoch_transitions_) {
      if (t.kind == 2 && t.epoch > begin && t.epoch <= end) return;
    }
    pending = TripLocked(
        "collective spanned an epoch boundary without a quiesce: rank " +
        std::to_string(rank) + " ran " + std::string(kind) + " from e" +
        std::to_string(begin) + " to e" + std::to_string(end));
  }
  if (pending) pending();
}

std::int64_t Checker::stale_messages_seen() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stale_seen_;
}

void Checker::OnCollectiveBegin(int rank, std::string_view kind,
                                std::size_t elems) {
  std::function<void()> pending;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (rank < 0 || rank >= world_size_ ||
        tripped_.load(std::memory_order_relaxed)) {
      return;
    }
    // Ops are compared only against entries of the same generation — the
    // membership epoch this rank had adopted when it issued the op. In a
    // fixed-world run every entry lands in generation 0 and this is the
    // classic flat ledger.
    const std::uint32_t gen = rank_epoch_[static_cast<std::size_t>(rank)];
    auto& ledger = ledgers_[static_cast<std::size_t>(rank)][gen];
    const int seq = static_cast<int>(ledger.size());
    if (current_[static_cast<std::size_t>(rank)]) {
      const Current& cur = *current_[static_cast<std::size_t>(rank)];
      pending = TripLocked(
          "duplicate participation: rank " + std::to_string(rank) +
          " began " + std::string(kind) + " (op#" + std::to_string(seq) +
          ") while its " + std::string(cur.kind) + " (op#" +
          std::to_string(cur.seq) + ") is still in flight");
    } else {
      ledger.push_back(LedgerEntry{kind, elems});
      current_[static_cast<std::size_t>(rank)] =
          Current{kind, elems, seq, gen};
      auto& arrivals = seq_arrivals_[gen];
      if (static_cast<std::size_t>(seq) >= arrivals.size()) {
        arrivals.resize(static_cast<std::size_t>(seq) + 1, 0);
      }
      ++arrivals[static_cast<std::size_t>(seq)];
      for (int r = 0; r < world_size_ && !pending; ++r) {
        if (r == rank) continue;
        const auto& other_gens = ledgers_[static_cast<std::size_t>(r)];
        const auto it = other_gens.find(gen);
        if (it == other_gens.end() ||
            it->second.size() <= static_cast<std::size_t>(seq)) {
          continue;
        }
        const LedgerEntry& other = it->second[static_cast<std::size_t>(seq)];
        if (other.kind != kind) {
          pending = TripLocked(
              "collective sequence mismatch at op#" + std::to_string(seq) +
              ": rank " + std::to_string(rank) + " issued " +
              std::string(kind) + " but rank " + std::to_string(r) +
              " issued " + std::string(other.kind) +
              " — first divergent rank: " +
              std::to_string(DivergentLocked(gen, seq, rank)));
        } else if (other.elems != elems) {
          pending = TripLocked(
              "collective size mismatch at op#" + std::to_string(seq) + " (" +
              std::string(kind) + "): rank " + std::to_string(rank) + " has " +
              std::to_string(elems) + " elems but rank " + std::to_string(r) +
              " has " + std::to_string(other.elems) +
              " — diverged re-bucketing? first divergent rank: " +
              std::to_string(DivergentLocked(gen, seq, rank)));
        }
      }
      if (!pending &&
          arrivals[static_cast<std::size_t>(seq)] == world_size_) {
        ++verified_ops_;
      }
    }
  }
  if (pending) pending();
}

void Checker::OnCollectiveEnd(int rank) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (rank < 0 || rank >= world_size_) return;
  current_[static_cast<std::size_t>(rank)].reset();
}

void Checker::OnRecvBlocked(int dst, int src, std::uint32_t expected_tag) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (dst < 0 || dst >= world_size_) return;
  waiters_[static_cast<std::size_t>(dst)] =
      Waiter{src, expected_tag, Clock::now(), 0};
}

void Checker::OnRecvDone(int dst) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (dst < 0 || dst >= world_size_) return;
  waiters_[static_cast<std::size_t>(dst)].reset();
}

void Checker::OnGroupEvent(int rank, int group, GroupEvent event) {
  std::function<void()> pending;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (rank < 0 || rank >= world_size_ || group < 0 ||
        tripped_.load(std::memory_order_relaxed)) {
      return;
    }
    auto& phases = group_phase_[static_cast<std::size_t>(rank)];
    if (static_cast<std::size_t>(group) >= phases.size()) {
      phases.resize(static_cast<std::size_t>(group) + 1, GroupPhase::kIdle);
    }
    GroupPhase& phase = phases[static_cast<std::size_t>(group)];
    const GroupPhase before = phase;
    bool ok = false;
    const char* violation = "schedule violation";
    switch (event) {
      case GroupEvent::kRsLaunch:
        ok = before == GroupPhase::kIdle;
        if (ok) phase = GroupPhase::kRsInFlight;
        violation = "BackPipe violation: reduce-scatter relaunched";
        break;
      case GroupEvent::kRsComplete:
        ok = before == GroupPhase::kRsInFlight;
        if (ok) phase = GroupPhase::kRsDone;
        violation = "BackPipe violation: reduce-scatter completed twice "
                    "or without a launch";
        break;
      case GroupEvent::kAgLaunch:
        ok = before == GroupPhase::kRsDone;
        if (ok) phase = GroupPhase::kAgInFlight;
        violation = "BackPipe/FeedPipe ordering violation: all-gather "
                    "launched before its reduce-scatter completed "
                    "(paper R2 dependency)";
        break;
      case GroupEvent::kAgComplete:
        ok = before == GroupPhase::kAgInFlight;
        if (ok) phase = GroupPhase::kAgDone;
        violation = "FeedPipe violation: all-gather completed twice or "
                    "without a launch";
        break;
      case GroupEvent::kUnpack:
        // Valid from AgDone (decoupled pair) or RsDone (fused all-reduce /
        // local-SGD path, where one collective plays both halves).
        ok = before == GroupPhase::kAgDone || before == GroupPhase::kRsDone;
        if (ok) phase = GroupPhase::kIdle;
        violation = "FeedPipe violation: group consumed before its "
                    "all-gather completed";
        break;
    }
    if (!ok) {
      pending = TripLocked(
          std::string(violation) + " — rank " + std::to_string(rank) +
          ", group " + std::to_string(group) + ", phase " +
          std::string(PhaseName(before)));
    }
  }
  if (pending) pending();
}

std::string_view Checker::PhaseName(GroupPhase phase) noexcept {
  switch (phase) {
    case GroupPhase::kIdle: return "idle";
    case GroupPhase::kRsInFlight: return "rs-in-flight";
    case GroupPhase::kRsDone: return "rs-done";
    case GroupPhase::kAgInFlight: return "ag-in-flight";
    case GroupPhase::kAgDone: return "ag-done";
  }
  return "?";
}

int Checker::DivergentLocked(std::uint32_t gen, int seq, int newcomer) const {
  // Majority vote over the (kind, elems) recorded at generation `gen`,
  // entry `seq`: the divergent rank is the first whose entry disagrees
  // with the most common one. A tied vote blames `newcomer` — the rank
  // whose arrival exposed the divergence (e.g. two ranks in, one each way).
  using Value = std::pair<std::string_view, std::size_t>;
  auto entry_at = [&](int r) -> const LedgerEntry* {
    const auto& gens = ledgers_[static_cast<std::size_t>(r)];
    const auto it = gens.find(gen);
    if (it == gens.end() ||
        it->second.size() <= static_cast<std::size_t>(seq)) {
      return nullptr;
    }
    return &it->second[static_cast<std::size_t>(seq)];
  };
  std::map<Value, int> votes;
  for (int r = 0; r < world_size_; ++r) {
    if (const LedgerEntry* e = entry_at(r)) ++votes[{e->kind, e->elems}];
  }
  int best = 0;
  for (const auto& [value, count] : votes) best = std::max(best, count);
  Value newcomer_value{};
  if (newcomer >= 0 && newcomer < world_size_) {
    if (const LedgerEntry* e = entry_at(newcomer)) {
      newcomer_value = {e->kind, e->elems};
    }
  }
  Value majority{};
  bool found = false;
  for (const auto& [value, count] : votes) {
    if (count == best && value != newcomer_value) {
      majority = value;
      found = true;
      break;
    }
  }
  if (!found) {
    // Every top-voted value is the newcomer's own — it is the majority.
    for (const auto& [value, count] : votes) {
      if (count == best) majority = value;
    }
  }
  for (int r = 0; r < world_size_; ++r) {
    const LedgerEntry* e = entry_at(r);
    if (e == nullptr) continue;
    if (Value{e->kind, e->elems} != majority) return r;
  }
  return -1;
}

std::function<void()> Checker::TripLocked(const std::string& verdict) {
  if (tripped_.exchange(true, std::memory_order_acq_rel)) return {};
  report_ = verdict + "\n" + DumpLocked();
  DEAR_LOG(kError) << "dearcheck tripped: " << verdict;
  // Persist the black box next to the report when DEAR_FLIGHTREC_DUMP is
  // set (CI uploads these as artifacts alongside the replay log).
  const std::string dump = flightrec::Recorder::Get().MaybeWriteDump("trip");
  if (!dump.empty()) {
    DEAR_LOG(kError) << "flight-recorder dump written to " << dump;
  }
  return trip_handler_;
}

std::string Checker::DumpLocked() const {
  const auto now = Clock::now();
  std::size_t max_ledger = 0;
  for (const auto& gens : ledgers_) {
    max_ledger = std::max(max_ledger, TotalOps(gens));
  }
  // Span context: last comm-lane trace span per rank, when a telemetry
  // session is live alongside the checker.
  std::vector<std::string> last_span(static_cast<std::size_t>(world_size_));
  telemetry::Runtime& rt = telemetry::Runtime::Get();
  if (rt.enabled()) {
    for (const TraceEvent& ev : rt.trace().Events()) {
      if (ev.tid != telemetry::kCommLane) continue;
      if (ev.pid < 0 || ev.pid >= world_size_) continue;
      last_span[static_cast<std::size_t>(ev.pid)] = ev.name;
    }
  }
  std::string out;
  for (int r = 0; r < world_size_; ++r) {
    const auto idx = static_cast<std::size_t>(r);
    out += "  rank " + std::to_string(r) + ": " +
           std::to_string(TotalOps(ledgers_[idx])) + " ops recorded";
    if (current_[idx]) {
      out += ", in " + std::string(current_[idx]->kind) + " op#" +
             std::to_string(current_[idx]->seq) + " (" +
             std::to_string(current_[idx]->elems) + " elems)";
    }
    if (waiters_[idx]) {
      const Waiter& w = *waiters_[idx];
      out += ", blocked " +
             std::to_string(
                 static_cast<long long>(SecondsSince(w.since, now) * 1e3)) +
             " ms on rank " + std::to_string(w.src) + " for [" +
             comm::tags::Describe(w.tag) + "]";
    } else if (!current_[idx] && TotalOps(ledgers_[idx]) < max_ledger) {
      out += ", idle — ledger ended early (missing participant?)";
    }
    if (!last_span[idx].empty()) {
      out += ", last comm span: " + last_span[idx];
    }
    out += "\n";
  }
  out += "  transport sends so far: " +
         std::to_string(sends_.load(std::memory_order_relaxed)) + " (" +
         std::to_string(send_bytes_.load(std::memory_order_relaxed)) +
         " payload bytes)";
  // Black-box appendix: the last few flight-recorder events per rank put
  // the wait-for graph above in message-level context (which send/recv
  // each rank last completed, with causal IDs a timeline can follow).
  out += "\n" + flightrec::Recorder::Get().DumpTail(kDumpTailRecords);
  return out;
}

std::function<void()> Checker::AnalyzeLocked(bool force) {
  if (tripped_.load(std::memory_order_relaxed)) return {};
  const auto now = Clock::now();
  double oldest_age = -1.0;
  int oldest_rank = -1;
  for (int r = 0; r < world_size_; ++r) {
    auto& slot = waiters_[static_cast<std::size_t>(r)];
    if (!slot) continue;
    if (!force) ++slot->ticks;
    const double age = SecondsSince(slot->since, now);
    if (age > oldest_age) {
      oldest_age = age;
      oldest_rank = r;
    }
  }
  if (oldest_rank < 0) return {};

  // Wait-for cycle detection, restricted to waiters that survived at least
  // two watchdog passes (or all of them, under force): a waiter observed
  // only once may be a transient registration racing an in-flight message.
  auto stable = [&](int r) {
    const auto& slot = waiters_[static_cast<std::size_t>(r)];
    return slot && (force || slot->ticks >= 2);
  };
  for (int start = 0; start < world_size_; ++start) {
    if (!stable(start)) continue;
    std::string path = std::to_string(start);
    int cur = waiters_[static_cast<std::size_t>(start)]->src;
    int steps = 0;
    while (cur >= 0 && cur < world_size_ && stable(cur) &&
           steps++ <= world_size_) {
      path += " -> " + std::to_string(cur);
      if (cur == start) {
        const Waiter& w = *waiters_[static_cast<std::size_t>(start)];
        return TripLocked("deadlock: wait-for cycle " + path + " (rank " +
                          std::to_string(start) + " expects [" +
                          comm::tags::Describe(w.tag) + "] from rank " +
                          std::to_string(w.src) + ")");
      }
      cur = waiters_[static_cast<std::size_t>(cur)]->src;
    }
  }

  const double timeout = options_.watchdog_timeout_s;
  if (!force && (timeout <= 0 || oldest_age < timeout)) return {};

  // Timeout (or forced) diagnosis: name what the oldest waiter is stuck in
  // and which ranks stopped participating.
  const auto oidx = static_cast<std::size_t>(oldest_rank);
  const Waiter& w = *waiters_[oidx];
  std::string verdict = "watchdog timeout: rank " +
                        std::to_string(oldest_rank) + " blocked " +
                        std::to_string(static_cast<long long>(oldest_age * 1e3)) +
                        " ms";
  if (current_[oidx]) {
    verdict += " in " + std::string(current_[oidx]->kind) + " op#" +
               std::to_string(current_[oidx]->seq);
  }
  verdict += " waiting on rank " + std::to_string(w.src) + " for [" +
             comm::tags::Describe(w.tag) + "]";
  std::size_t max_ledger = 0;
  for (const auto& gens : ledgers_) {
    max_ledger = std::max(max_ledger, TotalOps(gens));
  }
  for (int r = 0; r < world_size_; ++r) {
    const auto idx = static_cast<std::size_t>(r);
    const std::size_t total = TotalOps(ledgers_[idx]);
    if (!waiters_[idx] && !current_[idx] && total < max_ledger) {
      verdict += "; rank " + std::to_string(r) + " is missing from op#" +
                 std::to_string(total) + " onward (skipped collective?)";
    }
  }
  return TripLocked(verdict);
}

void Checker::WatchdogLoop() {
  std::function<void()> pending;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    const double timeout = options_.watchdog_timeout_s;
    const auto tick = std::chrono::microseconds(static_cast<std::int64_t>(
        std::clamp(timeout / 4.0, 0.002, 0.25) * 1e6));
    while (!watchdog_stop_) {
      watchdog_cv_.wait_for(lock, tick, [this] { return watchdog_stop_; });
      if (watchdog_stop_) return;
      if (tripped_.load(std::memory_order_relaxed)) continue;
      pending = AnalyzeLocked(/*force=*/false);
      if (pending) break;
    }
  }
  if (pending) pending();
  // Tripped: nothing left to analyze, but stay joinable until Disable().
  std::unique_lock<std::mutex> lock(mutex_);
  watchdog_cv_.wait(lock, [this] { return watchdog_stop_; });
}

void Checker::CheckNow() {
  std::function<void()> pending;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    pending = AnalyzeLocked(/*force=*/true);
  }
  if (pending) pending();
}

std::string Checker::report() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return report_;
}

std::string Checker::Dump() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return DumpLocked();
}

std::size_t Checker::blocked_waiters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& slot : waiters_) {
    if (slot) ++n;
  }
  return n;
}

std::int64_t Checker::verified_ops() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return verified_ops_;
}

std::int64_t Checker::ledger_size(int rank) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (rank < 0 || rank >= world_size_) return 0;
  return static_cast<std::int64_t>(
      TotalOps(ledgers_[static_cast<std::size_t>(rank)]));
}

ScopedRecvWait::ScopedRecvWait(int dst, int src,
                               std::uint32_t expected_tag) noexcept
    : active_(Checker::Get().enabled()), dst_(dst) {
  if (active_) Checker::Get().OnRecvBlocked(dst, src, expected_tag);
}

ScopedRecvWait::~ScopedRecvWait() {
  if (active_) Checker::Get().OnRecvDone(dst_);
}

}  // namespace dear::check
