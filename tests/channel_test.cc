#include "common/channel.h"

#include <gtest/gtest.h>

#include "common/spin_wait.h"
#include "recording_hook.h"
#include "test_env.h"

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

namespace dear {
namespace {

TEST(ChannelTest, SendThenRecv) {
  Channel<int> ch;
  EXPECT_TRUE(ch.Send(7));
  auto v = ch.Recv();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 7);
}

TEST(ChannelTest, FifoOrder) {
  Channel<int> ch;
  for (int i = 0; i < 10; ++i) ch.Send(i);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(*ch.Recv(), i);
}

TEST(ChannelTest, TryRecvEmptyReturnsNullopt) {
  Channel<int> ch;
  EXPECT_FALSE(ch.TryRecv().has_value());
  ch.Send(1);
  EXPECT_TRUE(ch.TryRecv().has_value());
  EXPECT_FALSE(ch.TryRecv().has_value());
}

TEST(ChannelTest, SendAfterCloseFails) {
  Channel<int> ch;
  ch.Close();
  EXPECT_FALSE(ch.Send(1));
  EXPECT_TRUE(ch.closed());
}

TEST(ChannelTest, RecvDrainsAfterClose) {
  Channel<int> ch;
  ch.Send(1);
  ch.Send(2);
  ch.Close();
  EXPECT_EQ(*ch.Recv(), 1);
  EXPECT_EQ(*ch.Recv(), 2);
  EXPECT_FALSE(ch.Recv().has_value());
}

TEST(ChannelTest, CloseWakesBlockedReceiver) {
  Channel<int> ch;
  std::atomic<bool> woke{false};
  std::thread receiver([&] {
    const auto v = ch.Recv();
    EXPECT_FALSE(v.has_value());
    woke.store(true, std::memory_order_relaxed);
  });
  // Give the receiver a moment to block, then close.
  testenv::SleepMs(10);
  ch.Close();
  receiver.join();
  EXPECT_TRUE(woke.load(std::memory_order_relaxed));
}

TEST(ChannelTest, BlockingRecvGetsLaterSend) {
  Channel<int> ch;
  std::thread sender([&] {
    testenv::SleepMs(5);
    ch.Send(99);
  });
  EXPECT_EQ(*ch.Recv(), 99);
  sender.join();
}

TEST(ChannelTest, ManyProducersOneConsumerDeliversEverything) {
  Channel<int> ch;
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 250;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ch, p] {
      for (int i = 0; i < kPerProducer; ++i) ch.Send(p * kPerProducer + i);
    });
  }
  std::vector<bool> seen(kProducers * kPerProducer, false);
  for (int i = 0; i < kProducers * kPerProducer; ++i) {
    const auto v = ch.Recv();
    ASSERT_TRUE(v.has_value());
    ASSERT_GE(*v, 0);
    ASSERT_LT(*v, kProducers * kPerProducer);
    EXPECT_FALSE(seen[static_cast<std::size_t>(*v)]);
    seen[static_cast<std::size_t>(*v)] = true;
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(ch.size(), 0u);
}

// Close() racing a crowd of blocked receivers: every one must wake with
// nullopt — the transport relies on this to release all ranks on Shutdown.
TEST(ChannelTest, CloseWakesEveryBlockedReceiver) {
  Channel<int> ch;
  constexpr int kReceivers = 8;
  std::atomic<int> woken{0};
  std::vector<std::thread> receivers;
  receivers.reserve(kReceivers);
  for (int i = 0; i < kReceivers; ++i) {
    receivers.emplace_back([&] {
      if (!ch.Recv().has_value()) woken.fetch_add(1, std::memory_order_relaxed);
    });
  }
  testenv::SleepMs(10);
  ch.Close();
  for (auto& t : receivers) t.join();
  EXPECT_EQ(woken.load(std::memory_order_relaxed), kReceivers);
  EXPECT_FALSE(ch.Send(1));
}

// Concurrent Send / Close / draining Recv: no interleaving may hang, and
// the receiver sees a prefix of the sent values followed by nullopt.
TEST(ChannelTest, SendCloseRecvRaceNeverHangs) {
  for (int iter = 0; iter < 50; ++iter) {
    Channel<int> ch;
    std::thread sender([&] {
      for (int i = 0; i < 4; ++i) {
        if (!ch.Send(i)) break;  // close won the race
      }
    });
    std::thread closer([&] { ch.Close(); });
    int expected = 0;
    while (const auto v = ch.Recv()) {
      EXPECT_EQ(*v, expected);  // FIFO prefix, no gaps
      ++expected;
    }
    EXPECT_LE(expected, 4);
    sender.join();
    closer.join();
  }
}

TEST(ChannelTest, MoveOnlyPayload) {
  Channel<std::unique_ptr<int>> ch;
  ch.Send(std::make_unique<int>(5));
  auto v = ch.Recv();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(**v, 5);
}

TEST(ChannelTest, ClearDropsQueuedItemsAndReportsCount) {
  Channel<int> ch;
  for (int i = 0; i < 5; ++i) ch.Send(i);
  EXPECT_EQ(ch.Clear(), 5u);
  EXPECT_EQ(ch.size(), 0u);
  EXPECT_EQ(ch.Clear(), 0u);
  // The channel is still usable after a Clear (Shutdown Closes first; a
  // bare Clear only empties the queue).
  ch.Send(42);
  EXPECT_EQ(*ch.Recv(), 42);
}

// Clear must run queued items' destructors — the transport relies on this
// to return stranded pooled slabs on Shutdown.
TEST(ChannelTest, ClearDestroysQueuedItems) {
  auto counter = std::make_shared<int>(0);
  struct Probe {
    std::shared_ptr<int> count;
    Probe() = default;
    explicit Probe(std::shared_ptr<int> c) : count(std::move(c)) {}
    Probe(Probe&&) = default;
    Probe& operator=(Probe&& other) {
      if (count) ++*count;
      count = std::move(other.count);
      return *this;
    }
    ~Probe() {
      if (count) ++*count;
    }
  };
  Channel<Probe> ch;
  ch.Send(Probe(counter));
  ch.Send(Probe(counter));
  ASSERT_EQ(counter.use_count(), 3);
  ch.Clear();
  EXPECT_EQ(counter.use_count(), 1);  // both queued probes released
}

// FIFO order must survive ring-buffer growth, including growth from a
// wrapped state (head mid-buffer when the capacity doubles).
TEST(ChannelTest, FifoSurvivesGrowthWhileWrapped) {
  Channel<int> ch;
  int next_send = 0, next_recv = 0;
  // Offset the head so the ring is wrapped when it fills.
  for (int i = 0; i < 11; ++i) ch.Send(next_send++);
  for (int i = 0; i < 11; ++i) EXPECT_EQ(*ch.Recv(), next_recv++);
  for (int i = 0; i < 100; ++i) ch.Send(next_send++);  // forces regrowth
  for (int i = 0; i < 100; ++i) EXPECT_EQ(*ch.Recv(), next_recv++);
  EXPECT_EQ(ch.size(), 0u);
}

// ---- Spin-then-park (common/spin_wait.h) -------------------------------

// Repetitions of each spin-phase race. The disturbing action fires the
// moment the receiver announces itself, well inside the 20 µs spin budget
// in most repetitions; the result must not depend on where it lands.
constexpr int kSpinRaceReps = 200;

/// Runs `disturb` on the main thread just as a receiver thread enters
/// Recv, and returns what that Recv produced.
template <typename Disturb>
std::optional<int> RecvRacing(Channel<int>& ch, Disturb disturb) {
  std::atomic<bool> entering{false};
  std::optional<int> got;
  std::thread receiver([&] {
    entering.store(true, std::memory_order_release);
    got = ch.Recv();
  });
  while (!entering.load(std::memory_order_acquire)) spin::CpuRelax();
  disturb();
  receiver.join();
  return got;
}

TEST(ChannelSpinTest, SendDuringSpinIsReceived) {
  for (int rep = 0; rep < kSpinRaceReps; ++rep) {
    Channel<int> ch;
    const auto got = RecvRacing(ch, [&] { ch.Send(rep); });
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, rep);
  }
}

TEST(ChannelSpinTest, CloseDuringSpinReturnsNullopt) {
  for (int rep = 0; rep < kSpinRaceReps; ++rep) {
    Channel<int> ch;
    EXPECT_FALSE(RecvRacing(ch, [&] { ch.Close(); }).has_value());
  }
}

// A full epoch-trip cycle (Close -> Clear -> Reopen) while the receiver
// spins: the channel is open and empty again when the receiver next
// looks, so only the close generation read before the wait can wake it.
// The receiver reads it itself before announcing, as the transport does
// (plain Recv reads it on entry, which the announcement cannot order).
TEST(ChannelSpinTest, CloseClearReopenDuringSpinWakesReceiver) {
  for (int rep = 0; rep < kSpinRaceReps; ++rep) {
    Channel<int> ch;
    std::atomic<bool> entering{false};
    RecvOutcome outcome = RecvOutcome::kItem;
    std::optional<int> got;
    std::thread receiver([&] {
      const std::uint64_t gen = ch.close_generation();
      entering.store(true, std::memory_order_release);
      got = ch.RecvFor(std::chrono::seconds(2), gen, &outcome);
    });
    while (!entering.load(std::memory_order_acquire)) spin::CpuRelax();
    ch.Close();
    ch.Clear();
    ch.Reopen();
    receiver.join();
    EXPECT_FALSE(got.has_value());
    EXPECT_EQ(outcome, RecvOutcome::kClosed);
    EXPECT_FALSE(ch.closed());
    EXPECT_TRUE(ch.Send(1));  // usable again after the cycle
  }
}

// RecvFor with a generation read before a completed cycle: kClosed at
// once, and the item queued after the Reopen stays for the next receiver.
TEST(ChannelSpinTest, RecvForWithStaleGenerationLeavesItemQueued) {
  Channel<int> ch;
  const std::uint64_t gen = ch.close_generation();
  ch.Close();
  ch.Clear();
  ch.Reopen();
  ASSERT_TRUE(ch.Send(7));
  RecvOutcome outcome = RecvOutcome::kItem;
  EXPECT_FALSE(ch.RecvFor(std::chrono::seconds(2), gen, &outcome));
  EXPECT_EQ(outcome, RecvOutcome::kClosed);
  EXPECT_EQ(ch.size(), 1u);
  const auto v =
      ch.RecvFor(std::chrono::seconds(2), ch.close_generation(), &outcome);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 7);
  EXPECT_EQ(outcome, RecvOutcome::kItem);
}

// Timeouts below, at and above the spin budget all report kTimeout, and
// none returns before its deadline.
TEST(ChannelSpinTest, RecvForTimeoutReportsTimeout) {
  for (const auto timeout :
       {std::chrono::nanoseconds(0), std::chrono::nanoseconds(1'000),
        spin::kBudget, std::chrono::nanoseconds(5'000'000)}) {
    Channel<int> ch;
    RecvOutcome outcome = RecvOutcome::kItem;
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_FALSE(ch.RecvFor(timeout, ch.close_generation(), &outcome));
    EXPECT_GE(std::chrono::steady_clock::now() - t0, timeout);
    EXPECT_EQ(outcome, RecvOutcome::kTimeout) << timeout.count() << " ns";
  }
}

// Schedlab fingerprints are built from the hook calls, so spinning must
// not add, drop or reorder any: this is the sequence the park-only
// channel emitted.
TEST(ChannelSpinTest, HookSequenceIsUnchanged) {
  testenv::RecordingHook hook;
  {
    testenv::ScopedHook scoped(&hook);
    EXPECT_FALSE(spin::SpinAllowed());  // the controller owns scheduling
    Channel<int> ch;
    RecvOutcome outcome = RecvOutcome::kItem;
    ch.Send(1);
    ch.Recv();
    ch.RecvFor(std::chrono::milliseconds(1), ch.close_generation(), &outcome);
    ch.Send(2);
    ch.RecvFor(std::chrono::seconds(2), ch.close_generation(), &outcome);
    EXPECT_FALSE(ch.TryRecv().has_value());
    // A receiver that really parks: the sender fires only once the
    // receiver's block-enter is on record.
    std::thread sender([&] {
      while (hook.events().size() < 9) std::this_thread::yield();
      testenv::SleepMs(1);
      ch.Send(3);
    });
    ch.Recv();
    sender.join();
    ch.Close();
    ch.Recv();
  }
  const std::vector<std::string> expected{
      "point:channel_send",  "enter:channel_recv", "exit:channel_recv",
      "enter:channel_recv",  "exit:channel_recv",  "point:channel_send",
      "enter:channel_recv",  "exit:channel_recv",  "enter:channel_recv",
      "point:channel_send",  "exit:channel_recv",  "enter:channel_recv",
      "exit:channel_recv",
  };
  EXPECT_EQ(hook.events(), expected);
}

TEST(SpinPolicyTest, MaySpinIsPureInWaitersAndCpus) {
  static_assert(spin::MaySpin(4, 4));   // every waiter owns a CPU
  static_assert(!spin::MaySpin(5, 4));  // one more waiter than CPUs
  static_assert(spin::MaySpin(0, 2));
  static_assert(spin::MaySpin(2, 2));
  static_assert(!spin::MaySpin(3, 2));
  static_assert(!spin::MaySpin(1, 1));  // one CPU: the waker needs it
  static_assert(!spin::MaySpin(0, 1));
  for (std::size_t cpus = 2; cpus <= 64; ++cpus) {
    EXPECT_TRUE(spin::MaySpin(cpus, cpus)) << cpus;
    EXPECT_FALSE(spin::MaySpin(cpus + 1, cpus)) << cpus;
  }
  EXPECT_GE(spin::UsableCpus(), 1u);
}

// Each thread counts once however many primitive types it waits on, and
// stops counting when it exits.
TEST(SpinPolicyTest, WaitersCountThreadsOnceUntilExit) {
  const std::size_t before = spin::Waiters();
  std::size_t during = 0;
  std::thread waiter([&] {
    Channel<int> ints;
    Channel<std::string> strings;
    RecvOutcome outcome = RecvOutcome::kItem;
    ints.RecvFor(std::chrono::microseconds(50), ints.close_generation(),
                 &outcome);
    strings.RecvFor(std::chrono::microseconds(50),
                    strings.close_generation(), &outcome);
    ints.RecvFor(std::chrono::microseconds(50), ints.close_generation(),
                 &outcome);
    during = spin::Waiters();
  });
  waiter.join();
  EXPECT_EQ(during, before + 1);
  EXPECT_EQ(spin::Waiters(), before);
}

}  // namespace
}  // namespace dear
