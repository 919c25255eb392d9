#include "common/barrier.h"

#include <gtest/gtest.h>

#include "common/spin_wait.h"
#include "recording_hook.h"
#include "test_env.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace dear {
namespace {

TEST(CyclicBarrierTest, SinglePartyNeverBlocks) {
  CyclicBarrier barrier(1);
  barrier.Wait();
  barrier.Wait();
}

TEST(CyclicBarrierTest, AllThreadsObservePhaseTogether) {
  constexpr int kThreads = 4;
  constexpr int kPhases = 50;
  CyclicBarrier barrier(kThreads);
  std::atomic<int> counter{0};
  std::atomic<bool> violation{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int phase = 0; phase < kPhases; ++phase) {
        counter.fetch_add(1, std::memory_order_relaxed);
        barrier.Wait();
        // After the barrier, all increments of this phase must be visible.
        if (counter.load(std::memory_order_relaxed) < (phase + 1) * kThreads)
          violation.store(true, std::memory_order_relaxed);
        barrier.Wait();  // keep phases separated
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(violation.load(std::memory_order_relaxed));
  EXPECT_EQ(counter.load(std::memory_order_relaxed), kThreads * kPhases);
}

TEST(LatchTest, WaitReturnsAfterCountDown) {
  Latch latch(3);
  std::thread worker([&] {
    latch.CountDown();
    latch.CountDown();
    latch.CountDown();
  });
  latch.Wait();  // must not hang
  worker.join();
}

TEST(LatchTest, ExtraCountDownIsHarmless) {
  Latch latch(1);
  latch.CountDown();
  latch.CountDown();
  latch.Wait();
}

TEST(LatchTest, MultipleWaitersAllReleased) {
  Latch latch(1);
  std::atomic<int> released{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < 4; ++i) {
    waiters.emplace_back([&] {
      latch.Wait();
      released.fetch_add(1, std::memory_order_relaxed);
    });
  }
  testenv::SleepMs(5);
  latch.CountDown();
  for (auto& t : waiters) t.join();
  EXPECT_EQ(released.load(std::memory_order_relaxed), 4);
}

// ---- Spin-then-park (common/spin_wait.h) -------------------------------

TEST(LatchSpinTest, WaitAfterCountDownReturnsWithoutBlocking) {
  Latch zero(0);
  zero.Wait();
  Latch one(1);
  one.CountDown();
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 1000; ++i) one.Wait();
  // 1000 fast-path waits; one park would already cost ~10 µs.
  EXPECT_LT(std::chrono::steady_clock::now() - t0, testenv::ScaledMs(100));
}

TEST(LatchSpinTest, CountDownDuringSpinReleasesWaiter) {
  for (int rep = 0; rep < 200; ++rep) {
    Latch latch(1);
    std::atomic<bool> entering{false};
    std::thread waiter([&] {
      entering.store(true, std::memory_order_release);
      latch.Wait();
    });
    while (!entering.load(std::memory_order_acquire)) spin::CpuRelax();
    latch.CountDown();
    waiter.join();
  }
}

// Wait returns only after CountDown has let go of the latch, so a waiter
// may free it at once — the collective-handle pattern. ASan and TSan turn
// a violation into a report.
TEST(LatchSpinTest, LatchMayBeDestroyedRightAfterWait) {
  for (int rep = 0; rep < 500; ++rep) {
    auto latch = std::make_unique<Latch>(1);
    Latch* raw = latch.get();
    std::thread counter([raw] { raw->CountDown(); });
    latch->Wait();
    latch.reset();
    counter.join();
  }
}

// Same contract as the channel: spinning adds no hook call, and the
// already-done fast path still brackets the wait.
TEST(LatchSpinTest, HookSequenceIsUnchanged) {
  testenv::RecordingHook hook;
  {
    testenv::ScopedHook scoped(&hook);
    EXPECT_FALSE(spin::SpinAllowed());
    Latch done(1);
    done.CountDown();
    done.Wait();
    Latch parked(1);
    std::thread counter([&] {
      while (hook.events().size() < 3) std::this_thread::yield();
      testenv::SleepMs(1);
      parked.CountDown();
    });
    parked.Wait();
    counter.join();
  }
  const std::vector<std::string> expected{
      "enter:latch_wait", "exit:latch_wait", "enter:latch_wait",
      "exit:latch_wait"};
  EXPECT_EQ(hook.events(), expected);
}

}  // namespace
}  // namespace dear
