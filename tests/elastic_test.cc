// Elastic membership under churn (DESIGN.md §13): failure detection,
// epoch bookkeeping, the dearcheck epoch machine's own detectors
// (mutation-style self-checks — each new failure mode must demonstrably
// fire), the degrade-and-continue training loop against the sequential
// gradient oracle, and the shrunken-ring renormalization property.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "check/checker.h"
#include "comm/collective_scope.h"
#include "comm/membership.h"
#include "comm/transport.h"
#include "comm/types.h"
#include "core/elastic.h"
#include "common/schedule_point.h"
#include "recording_hook.h"
#include "schedlab/chaos.h"

namespace {

using dear::comm::Membership;
using dear::comm::MembershipOptions;
using dear::comm::TransitionKind;
using dear::comm::TransportHub;

/// Membership options for tests that exercise the *protocol*, not the
/// wall-clock detector: the liveness deadline is pushed far out so a
/// loaded CI machine cannot fire it spuriously mid-test.
MembershipOptions QuietDetector() {
  MembershipOptions options;
  options.deadline_mult = 1000.0;
  return options;
}

TEST(Membership, SuspectTurnsEpochAndCommitReadmits) {
  TransportHub hub(3);
  Membership m(&hub, QuietDetector());
  EXPECT_EQ(m.epoch(), 0u);
  EXPECT_EQ(m.live_count(), 3);

  EXPECT_TRUE(m.Suspect(1, "test", 0));
  EXPECT_EQ(m.epoch(), 1u);
  EXPECT_EQ(m.settled_epoch(), 1u);
  EXPECT_FALSE(m.IsLive(1));
  EXPECT_EQ(m.live_count(), 2);
  // First suspecter wins; the second call is a no-op.
  EXPECT_FALSE(m.Suspect(1, "again", 2));
  EXPECT_EQ(m.epoch(), 1u);

  m.RequestReadmit(1);
  EXPECT_TRUE(m.has_pending_readmits());
  m.ProposeCommitAt(4);
  EXPECT_EQ(m.commit_at(), 4);
  // Commit against a stale epoch is rejected.
  EXPECT_EQ(m.CommitReadmits(0), 1u);
  EXPECT_FALSE(m.IsLive(1));

  EXPECT_EQ(m.CommitReadmits(1), 2u);
  EXPECT_TRUE(m.IsLive(1));
  EXPECT_EQ(m.live_count(), 3);
  EXPECT_FALSE(m.has_pending_readmits());
  EXPECT_EQ(m.commit_at(), -1);
  // The recovery root uses this to exclude fresh readmits (their
  // parameters are stale) when picking the state-sync source.
  EXPECT_EQ(m.ReadmittedAt(2), 1ull << 1);
  EXPECT_EQ(m.ReadmittedAt(1), 0u);

  // Transition log: suspect + quiesce at e1, readmit + quiesce at e2.
  const auto log = m.transitions();
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[0].kind, TransitionKind::kSuspect);
  EXPECT_EQ(log[0].subject, 1);
  EXPECT_EQ(log[1].kind, TransitionKind::kTrip);
  EXPECT_EQ(log[2].kind, TransitionKind::kReadmit);
  EXPECT_EQ(log[2].subject, 1);
  EXPECT_EQ(log[3].kind, TransitionKind::kTrip);
}

TEST(Membership, StaleOrDeadSenderDroppedAtSource) {
  TransportHub hub(3);
  Membership m(&hub, QuietDetector());
  ASSERT_TRUE(m.Suspect(2, "test", 0));

  const std::vector<float> payload{1.0f, 2.0f};
  // Sender still stamping the pre-trip epoch: dropped deterministically.
  EXPECT_FALSE(hub.Send(0, 1, /*tag=*/7, payload, /*epoch=*/0));
  // Sends to the dead rank are dropped too.
  EXPECT_FALSE(hub.Send(0, 2, /*tag=*/7, payload, /*epoch=*/1));
  // Current-epoch traffic between survivors flows.
  EXPECT_TRUE(hub.Send(0, 1, /*tag=*/7, payload, /*epoch=*/1));
  auto msg = hub.Recv(0, 1, /*expected_tag=*/7, /*epoch=*/1);
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg->payload.size(), payload.size());
}

TEST(Membership, TimeoutDetectorSuspectsSilentPeer) {
  // Real-time path, NO schedlab controller: a 2-rank hub where rank 1
  // never sends. Rank 0's Recv must give up at the liveness deadline,
  // suspect the silent peer, and unwind — not hang.
  TransportHub hub(2);
  MembershipOptions options;
  options.deadline_payload_bytes = 0;
  options.deadline_slack_rounds = 1.0;  // deadline == floor
  options.deadline_floor_s = 0.05;      // scaled by DEAR_TIMEOUT_MULT inside
  Membership m(&hub, options);

  auto msg = hub.Recv(/*src=*/1, /*dst=*/0, /*expected_tag=*/3, /*epoch=*/0);
  EXPECT_FALSE(msg.ok());
  EXPECT_FALSE(m.IsLive(1));
  EXPECT_EQ(m.epoch(), 1u);
  const auto log = m.transitions();
  ASSERT_GE(log.size(), 1u);
  EXPECT_EQ(log[0].kind, TransitionKind::kSuspect);
  EXPECT_EQ(log[0].subject, 1);
}

/// Parks the thread that called PauseThisThread at its next channel wait
/// (the kChannelRecv block-enter inside Channel::RecvFor) until Release.
/// TransportHub::Recv has checked the membership epoch by then, so this
/// pins the interleaving where an epoch trip lands between that check and
/// the wait.
class PauseAtChannelWait : public dear::schedpoint::Hook {
 public:
  void PauseThisThread() {
    std::lock_guard<std::mutex> lock(mutex_);
    target_ = std::this_thread::get_id();
  }
  void WaitPaused() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return paused_; });
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      released_ = true;
    }
    cv_.notify_all();
  }

  void OnWorkerBegin(const char*, int) override {}
  void OnWorkerEnd() override {}
  void OnPoint(dear::schedpoint::Site) override {}
  void OnBlockEnter(dear::schedpoint::Site site) override {
    if (site != dear::schedpoint::Site::kChannelRecv) return;
    std::unique_lock<std::mutex> lock(mutex_);
    if (paused_ || std::this_thread::get_id() != target_) return;
    paused_ = true;
    cv_.notify_all();
    cv_.wait(lock, [&] { return released_; });
  }
  void OnBlockExit(dear::schedpoint::Site) override {}

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::thread::id target_;
  bool paused_{false};
  bool released_{false};
};

/// Rank 0 receives from rank 2 at epoch 0; the pinned trip (rank 1
/// suspected) lands after Recv's epoch check. With `peer_reformed`, rank 2
/// has already re-formed and sent its first epoch-1 message by the time
/// rank 0 reaches the wait. Returns rank 0's Recv status.
dear::Status RecvAcrossPinnedTrip(TransportHub& hub, Membership& m,
                                  bool peer_reformed) {
  PauseAtChannelWait hook;
  dear::testenv::ScopedHook scoped(&hook);
  dear::Status status;
  std::thread receiver([&] {
    hook.PauseThisThread();
    status = hub.Recv(/*src=*/2, /*dst=*/0, /*expected_tag=*/5, /*epoch=*/0)
                 .status();
  });
  hook.WaitPaused();
  EXPECT_TRUE(m.Suspect(1, "test", 1));
  if (peer_reformed) {
    const std::vector<float> payload{1.0f};
    EXPECT_TRUE(hub.Send(2, 0, /*tag=*/5, payload, /*epoch=*/1));
  }
  hook.Release();
  receiver.join();
  return status;
}

/// Membership options whose liveness deadline (~2 s, scaled by
/// DEAR_TIMEOUT_MULT) turns a missed trip wakeup into a prompt test
/// failure rather than a long hang.
MembershipOptions ShortDetector() {
  MembershipOptions options;
  options.deadline_mult = 40.0;
  return options;
}

// Regression: an epoch trip between TransportHub::Recv's epoch check and
// its channel wait used to go unnoticed — the wait began after the
// close/reopen cycle, so the doomed receiver slept to its liveness
// deadline and then suspected an innocent peer. This is what hung
// golden_epoch_test, about once in ten runs under load.
TEST(Membership, TripBetweenEpochCheckAndWaitWakesReceiver) {
  TransportHub hub(3);
  Membership m(&hub, ShortDetector());
  const auto t0 = std::chrono::steady_clock::now();
  const dear::Status status = RecvAcrossPinnedTrip(hub, m, false);
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(status.message(), "membership epoch moved past this collective");
  EXPECT_LT(waited, std::chrono::nanoseconds(m.deadline_ns()));
  // Only the pinned suspect + trip: no liveness suspicion followed.
  EXPECT_EQ(m.transitions().size(), 2u);
}

// Same pinned trip, but the peer re-formed first: the doomed epoch-0
// receiver must leave the peer's first epoch-1 message in the channel for
// rank 0's own re-formed ring, instead of taking and rejecting it — that
// lost message deadlocked the survivors' re-form barrier.
TEST(Membership, DoomedReceiverLeavesNextEpochMessage) {
  TransportHub hub(3);
  Membership m(&hub, ShortDetector());
  const dear::Status status = RecvAcrossPinnedTrip(hub, m, true);
  EXPECT_EQ(status.message(), "membership epoch moved past this collective");
  EXPECT_EQ(hub.stale_drops(), 0u);
  auto msg = hub.Recv(/*src=*/2, /*dst=*/0, /*expected_tag=*/5, /*epoch=*/1);
  ASSERT_TRUE(msg.ok()) << msg.status().ToString();
  EXPECT_EQ(msg->epoch, 1u);
  EXPECT_EQ(m.transitions().size(), 2u);
}

// ---- dearcheck epoch-machine self-checks: every detector the elastic
// ---- protocol added must demonstrably fire on its failure mode. ---------

class CheckerEpochMachine : public ::testing::Test {
 protected:
  void SetUp() override {
    dear::check::CheckerOptions options;
    options.watchdog_timeout_s = 0.0;  // detectors under test are synchronous
    checker().Enable(2, options);
  }
  void TearDown() override {
    checker().SetEpochCounter(nullptr);
    checker().Disable();
  }
  static dear::check::Checker& checker() {
    return dear::check::Checker::Get();
  }
};

TEST_F(CheckerEpochMachine, OneStaleMessageIsToleratedTwoTrip) {
  checker().OnStaleMessage(/*dst=*/0, /*src=*/1, /*msg_epoch=*/1,
                           /*cur_epoch=*/2);
  EXPECT_FALSE(checker().tripped());
  EXPECT_EQ(checker().stale_messages_seen(), 1);
  checker().OnStaleMessage(/*dst=*/0, /*src=*/1, /*msg_epoch=*/0,
                           /*cur_epoch=*/2);
  EXPECT_TRUE(checker().tripped()) << "two-transitions-stale must trip";
}

TEST_F(CheckerEpochMachine, FutureEpochMessageTrips) {
  checker().OnStaleMessage(/*dst=*/1, /*src=*/0, /*msg_epoch=*/3,
                           /*cur_epoch=*/2);
  EXPECT_TRUE(checker().tripped()) << "future-epoch message must trip";
}

TEST_F(CheckerEpochMachine, SurvivorMissingTransitionTrips) {
  // e1: rank 1 suspected, live = {0}. e2: rank 1 readmitted, live = {0,1}.
  checker().OnEpochTransition(1, /*kind=kSuspect*/ 1, /*subject=*/1,
                              /*live_mask=*/0b01);
  checker().OnEpochTransition(2, /*kind=kReadmit*/ 4, /*subject=*/1,
                              /*live_mask=*/0b11);
  // The victim jumping 0 -> 2 is legal: it was dead for e1.
  checker().OnEpochObserved(/*rank=*/1, 2);
  EXPECT_FALSE(checker().tripped());
  // A survivor jumping 0 -> 2 skipped e1, which its live mask includes.
  checker().OnEpochObserved(/*rank=*/0, 2);
  EXPECT_TRUE(checker().tripped()) << "skipped transition must trip";
}

TEST_F(CheckerEpochMachine, EpochObservedBackwardsTrips) {
  checker().OnEpochTransition(1, /*kind=kSuspect*/ 1, 1, 0b01);
  checker().OnEpochObserved(0, 1);
  EXPECT_FALSE(checker().tripped());
  checker().OnEpochObserved(0, 0);
  EXPECT_TRUE(checker().tripped()) << "backwards epoch must trip";
}

TEST_F(CheckerEpochMachine, CrossEpochOpWithoutQuiesceTrips) {
  std::atomic<std::uint32_t> epoch{0};
  checker().SetEpochCounter(&epoch);
  {
    dear::comm::TransportHub hub(2);
    const dear::comm::Communicator comm(&hub, /*rank=*/0);
    dear::comm::CollectiveScope scope(
        comm, dear::comm::kinds::kRingAllReduce, 16);
    epoch.store(1, std::memory_order_release);
    // No kTrip transition logged in (0, 1]: the op genuinely spanned an
    // un-quiesced boundary.
  }
  EXPECT_TRUE(checker().tripped()) << "cross-epoch op must trip";
}

TEST_F(CheckerEpochMachine, CrossEpochOpExcusedByQuiesce) {
  std::atomic<std::uint32_t> epoch{0};
  checker().SetEpochCounter(&epoch);
  {
    dear::comm::TransportHub hub(2);
    const dear::comm::Communicator comm(&hub, /*rank=*/0);
    dear::comm::CollectiveScope scope(
        comm, dear::comm::kinds::kRingAllReduce, 16);
    epoch.store(1, std::memory_order_release);
    checker().OnEpochTransition(1, /*kind=kTrip*/ 2, -1, 0b11);
  }
  EXPECT_FALSE(checker().tripped())
      << "an op doomed by the quiesce is excused: " << checker().report();
}

// ---- Elastic training loop vs the sequential gradient oracle ------------

void ExpectNearParams(const std::vector<float>& got,
                      const std::vector<float>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_NEAR(got[i], want[i], 1e-4 * (1.0 + std::abs(want[i])))
        << what << " at element " << i;
  }
}

TEST(Elastic, FixedWorldMatchesSequentialOracle) {
  dear::core::ElasticOptions options;
  options.world = 2;
  options.iterations = 4;
  options.membership = QuietDetector();
  const auto report = dear::core::RunElasticTraining(options);
  ASSERT_TRUE(report.ok) << report.failure;
  ASSERT_EQ(report.segments.size(), 1u);
  EXPECT_EQ(report.segments[0].epoch, 0u);
  EXPECT_EQ(report.segments[0].live.size(), 2u);
  ASSERT_FALSE(report.final_params[0].empty());
  EXPECT_EQ(report.final_params[0], report.final_params[1]);
  const auto oracle = dear::core::SequentialOracle(
      options, report.segments[0], options.iterations);
  ExpectNearParams(report.final_params[0], oracle, "fixed world final");
}

TEST(Elastic, CrashWithoutRejoinDegradesToSurvivors) {
  dear::core::ElasticOptions options;
  options.world = 3;
  options.iterations = 5;
  options.victim = 2;
  options.kill_iteration = 2;
  options.rejoin_delay = -1;  // stays dead
  options.membership = QuietDetector();
  const auto report = dear::core::RunElasticTraining(options);
  ASSERT_TRUE(report.ok) << report.failure;
  ASSERT_EQ(report.segments.size(), 2u);
  EXPECT_EQ(report.segments[1].epoch, 1u);
  ASSERT_EQ(report.segments[1].live.size(), 2u);
  EXPECT_EQ(report.segments[1].live[0], 0);
  EXPECT_EQ(report.segments[1].live[1], 1);
  EXPECT_TRUE(report.final_params[2].empty()) << "victim must stay dead";
  ASSERT_FALSE(report.final_params[0].empty());
  EXPECT_EQ(report.final_params[0], report.final_params[1]);

  // Segment 1's base must be the sequential replay of segment 0 over all
  // three ranks, and the finals the replay of segment 1 over the
  // survivors — kAvg renormalized to 2 ranks.
  const auto mid = dear::core::SequentialOracle(
      options, report.segments[0], report.segments[1].first_iteration);
  ExpectNearParams(report.segments[1].base_params, mid, "reform base");
  const auto fin = dear::core::SequentialOracle(options, report.segments[1],
                                                options.iterations);
  ExpectNearParams(report.final_params[0], fin, "survivor final");
}

TEST(Elastic, CrashAndRejoinMatchesSequentialOracle) {
  dear::core::ElasticOptions options;
  options.world = 3;
  options.iterations = 6;
  options.victim = 1;
  options.kill_iteration = 2;
  options.rejoin_delay = 2;
  options.membership = QuietDetector();
  const auto report = dear::core::RunElasticTraining(options);
  ASSERT_TRUE(report.ok) << report.failure;
  ASSERT_EQ(report.segments.size(), 3u) << report.transition_log;
  EXPECT_EQ(report.segments[1].live.size(), 2u);
  EXPECT_EQ(report.segments[2].live.size(), 3u);
  for (int r = 0; r < 3; ++r) {
    ASSERT_FALSE(report.final_params[static_cast<std::size_t>(r)].empty())
        << "rank " << r << " (rejoined ranks finish the run)";
    EXPECT_EQ(report.final_params[static_cast<std::size_t>(r)],
              report.final_params[0]);
  }
  for (std::size_t k = 0; k + 1 < report.segments.size(); ++k) {
    const auto replay = dear::core::SequentialOracle(
        options, report.segments[k], report.segments[k + 1].first_iteration);
    ExpectNearParams(report.segments[k + 1].base_params, replay,
                     "segment base");
  }
  const auto fin = dear::core::SequentialOracle(options, report.segments[2],
                                                options.iterations);
  ExpectNearParams(report.final_params[0], fin, "rejoined final");
}

// ---- Shrunken-ring renormalization property -----------------------------

TEST(ShrunkenRing, BitwiseEqualToFreshFixedWorld) {
  // All reducing collectives x worlds x a killed rank: the survivor-group
  // run must be bitwise identical to a fresh (world-1)-rank run.
  const int worlds[] = {2, 3, 5, 8};
  for (const int world : worlds) {
    const dear::comm::Rank victims[] = {0, static_cast<dear::comm::Rank>(world - 1)};
    for (const auto victim : victims) {
      const auto report = dear::schedlab::CheckShrunkenRing(
          world, victim, /*payload_seed=*/0xD00Du + static_cast<unsigned>(world));
      EXPECT_TRUE(report.ok)
          << "world " << world << " victim " << victim << ": " << report.failure;
    }
  }
}

}  // namespace
