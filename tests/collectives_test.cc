// Numerical correctness of every collective, swept over world sizes and
// payload sizes (property: result equals the sequential reference on every
// rank), plus the decoupling identity RS;AG == AllReduce that DeAR rests on.
#include "comm/collectives.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "check/checker.h"
#include "comm/calibration.h"
#include "comm/worker_group.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "flightrec/recorder.h"
#include "telemetry/telemetry.h"

#include "test_env.h"

namespace dear::comm {
namespace {

// Per-rank deterministic input: value depends on (rank, index).
std::vector<float> MakeInput(Rank rank, std::size_t n) {
  Rng rng(1000 + static_cast<std::uint64_t>(rank));
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<float>(rng.Uniform(-2.0, 2.0));
  return v;
}

std::vector<float> Reference(int world, std::size_t n, ReduceOp op) {
  std::vector<float> ref(n, 0.0f);
  for (Rank r = 0; r < world; ++r) {
    const auto input = MakeInput(r, n);
    for (std::size_t i = 0; i < n; ++i) {
      if (r == 0) {
        ref[i] = input[i];
      } else {
        ApplyOp(op == ReduceOp::kAvg ? ReduceOp::kSum : op, ref[i], input[i]);
      }
    }
  }
  if (op == ReduceOp::kAvg)
    for (auto& v : ref) v /= static_cast<float>(world);
  return ref;
}

void ExpectNear(const std::vector<float>& got, const std::vector<float>& want,
                float tol = 1e-4f) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_NEAR(got[i], want[i], tol) << "at index " << i;
}

struct Case {
  int world;
  std::size_t elems;
};

class AllReduceSweep : public ::testing::TestWithParam<Case> {};

TEST_P(AllReduceSweep, RingAllReduceMatchesReference) {
  const auto [world, elems] = GetParam();
  const auto ref = Reference(world, elems, ReduceOp::kSum);
  RunOnRanks(world, [&](Communicator& comm) {
    auto data = MakeInput(comm.rank(), elems);
    ASSERT_TRUE(RingAllReduce(comm, data).ok());
    ExpectNear(data, ref);
  });
}

TEST_P(AllReduceSweep, DecoupledRsAgEqualsAllReduce) {
  const auto [world, elems] = GetParam();
  const auto ref = Reference(world, elems, ReduceOp::kSum);
  RunOnRanks(world, [&](Communicator& comm) {
    auto data = MakeInput(comm.rank(), elems);
    ASSERT_TRUE(RingReduceScatter(comm, data).ok());
    ASSERT_TRUE(RingAllGather(comm, data).ok());
    ExpectNear(data, ref);
  });
}

TEST_P(AllReduceSweep, TreeAllReduceMatchesReference) {
  const auto [world, elems] = GetParam();
  const auto ref = Reference(world, elems, ReduceOp::kSum);
  RunOnRanks(world, [&](Communicator& comm) {
    auto data = MakeInput(comm.rank(), elems);
    ASSERT_TRUE(TreeAllReduce(comm, data).ok());
    ExpectNear(data, ref);
  });
}

TEST_P(AllReduceSweep, DoubleBinaryTreeMatchesReference) {
  const auto [world, elems] = GetParam();
  const auto ref = Reference(world, elems, ReduceOp::kSum);
  RunOnRanks(world, [&](Communicator& comm) {
    auto data = MakeInput(comm.rank(), elems);
    ASSERT_TRUE(DoubleBinaryTreeAllReduce(comm, data).ok());
    ExpectNear(data, ref);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllReduceSweep,
    ::testing::Values(Case{1, 16}, Case{2, 0}, Case{2, 1}, Case{2, 64},
                      Case{3, 7}, Case{3, 1000}, Case{4, 5}, Case{4, 4096},
                      Case{5, 33}, Case{7, 129}, Case{8, 2048}),
    [](const auto& info) {
      return "p" + std::to_string(info.param.world) + "_n" +
             std::to_string(info.param.elems);
    });

// ---- Table-driven property sweep across every ReduceOp -------------------
//
// world x elems x op, with zero-element, one-element, and non-rank-divisible
// payloads. kMax/kMin are order-insensitive so they compare exactly;
// float sums compare against the sequential reference within tolerance.
// The decoupled-pair test is the strong one: RS;AG must equal the fused
// ring all-reduce to the bit, for every op (the ring fixes the reduction
// order — DeAR's Eq. 3-5 rests on exactly this).

struct OpCase {
  int world;
  std::size_t elems;
  ReduceOp op;
  /// Each case runs with the slab pool on and off: recycled buffers must be
  /// arithmetically invisible (same bits either way).
  bool use_pool;
};

class ReduceOpSweep : public ::testing::TestWithParam<OpCase> {};

TEST_P(ReduceOpSweep, RingAllReduceMatchesReference) {
  const auto [world, elems, op, use_pool] = GetParam();
  const auto ref = Reference(world, elems, op);
  const bool exact = op == ReduceOp::kMax || op == ReduceOp::kMin;
  RunOnRanks(
      world,
      [&, n = elems, o = op](Communicator& comm) {
        auto data = MakeInput(comm.rank(), n);
        ASSERT_TRUE(RingAllReduce(comm, data, o).ok());
        ExpectNear(data, ref, exact ? 0.0f : 1e-4f);
      },
      {.use_pool = use_pool});
}

TEST_P(ReduceOpSweep, ReduceScatterOwnChunkMatchesReference) {
  const auto [world, elems, op, use_pool] = GetParam();
  const auto ref = Reference(world, elems, op);
  const bool exact = op == ReduceOp::kMax || op == ReduceOp::kMin;
  RunOnRanks(
      world,
      [&, w = world, n = elems, o = op](Communicator& comm) {
        auto data = MakeInput(comm.rank(), n);
        ASSERT_TRUE(RingReduceScatter(comm, data, o).ok());
        const Range own = ChunkRange(n, static_cast<std::size_t>(w),
                                     static_cast<std::size_t>(comm.rank()));
        for (std::size_t i = own.begin; i < own.end; ++i) {
          if (exact) {
            ASSERT_EQ(data[i], ref[i]) << "at index " << i;
          } else {
            ASSERT_NEAR(data[i], ref[i], 1e-4f) << "at index " << i;
          }
        }
      },
      {.use_pool = use_pool});
}

TEST_P(ReduceOpSweep, DecoupledPairMatchesFusedBitwise) {
  const auto [world, elems, op, use_pool] = GetParam();
  // Fused reference per rank, computed first on its own cluster. It always
  // runs pooled, so the pool-off pair cases also prove pooled == unpooled
  // bitwise, not just RS;AG == fused.
  std::vector<std::vector<float>> fused(static_cast<std::size_t>(world));
  RunOnRanks(world, [&, n = elems, o = op](Communicator& comm) {
    auto data = MakeInput(comm.rank(), n);
    ASSERT_TRUE(RingAllReduce(comm, data, o).ok());
    fused[static_cast<std::size_t>(comm.rank())] = std::move(data);
  });
  RunOnRanks(
      world,
      [&, n = elems, o = op](Communicator& comm) {
        auto data = MakeInput(comm.rank(), n);
        ASSERT_TRUE(RingReduceScatter(comm, data, o).ok());
        ASSERT_TRUE(RingAllGather(comm, data).ok());
        const auto& want = fused[static_cast<std::size_t>(comm.rank())];
        ASSERT_EQ(data.size(), want.size());
        for (std::size_t i = 0; i < data.size(); ++i)
          ASSERT_EQ(data[i], want[i]) << "bit divergence at index " << i;
      },
      {.use_pool = use_pool});
}

std::vector<OpCase> AllOpCases() {
  std::vector<OpCase> cases;
  for (const int world : {2, 3, 5, 8})
    for (const std::size_t elems : {std::size_t{0}, std::size_t{1},
                                    std::size_t{13}, std::size_t{48}})
      for (const ReduceOp op : {ReduceOp::kSum, ReduceOp::kAvg,
                                ReduceOp::kMax, ReduceOp::kMin})
        for (const bool use_pool : {true, false})
          cases.push_back({world, elems, op, use_pool});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(OpSweep, ReduceOpSweep,
                         ::testing::ValuesIn(AllOpCases()),
                         [](const auto& info) {
                           return "p" + std::to_string(info.param.world) +
                                  "_n" + std::to_string(info.param.elems) +
                                  "_" + std::string(ReduceOpName(info.param.op)) +
                                  (info.param.use_pool ? "_pool" : "_nopool");
                         });

TEST(ReduceScatterTest, OwnChunkIsFullyReduced) {
  constexpr int kWorld = 4;
  constexpr std::size_t kElems = 22;  // uneven chunks
  const auto ref = Reference(kWorld, kElems, ReduceOp::kSum);
  RunOnRanks(kWorld, [&](Communicator& comm) {
    auto data = MakeInput(comm.rank(), kElems);
    ASSERT_TRUE(RingReduceScatter(comm, data).ok());
    const Range own = ChunkRange(kElems, kWorld,
                                 static_cast<std::size_t>(comm.rank()));
    for (std::size_t i = own.begin; i < own.end; ++i)
      ASSERT_NEAR(data[i], ref[i], 1e-4f) << "rank " << comm.rank();
  });
}

TEST(AllGatherTest, DistributesEveryChunk) {
  constexpr int kWorld = 5;
  constexpr std::size_t kElems = 23;
  RunOnRanks(kWorld, [&](Communicator& comm) {
    // Start with our chunk holding rank-stamped values, rest garbage.
    std::vector<float> data(kElems, -1000.0f);
    const Range own = ChunkRange(kElems, kWorld,
                                 static_cast<std::size_t>(comm.rank()));
    for (std::size_t i = own.begin; i < own.end; ++i)
      data[i] = static_cast<float>(comm.rank()) * 100.0f +
                static_cast<float>(i);
    ASSERT_TRUE(RingAllGather(comm, data).ok());
    for (int r = 0; r < kWorld; ++r) {
      const Range rr = ChunkRange(kElems, kWorld, static_cast<std::size_t>(r));
      for (std::size_t i = rr.begin; i < rr.end; ++i)
        ASSERT_EQ(data[i],
                  static_cast<float>(r) * 100.0f + static_cast<float>(i));
    }
  });
}

TEST(TreeCollectivesTest, ReduceToEveryPossibleRoot) {
  constexpr int kWorld = 6;
  constexpr std::size_t kElems = 40;
  const auto ref = Reference(kWorld, kElems, ReduceOp::kSum);
  for (Rank root = 0; root < kWorld; ++root) {
    RunOnRanks(kWorld, [&](Communicator& comm) {
      auto data = MakeInput(comm.rank(), kElems);
      ASSERT_TRUE(TreeReduce(comm, data, root).ok());
      if (comm.rank() == root) ExpectNear(data, ref);
    });
  }
}

TEST(TreeCollectivesTest, BroadcastFromEveryPossibleRoot) {
  constexpr int kWorld = 6;
  constexpr std::size_t kElems = 17;
  for (Rank root = 0; root < kWorld; ++root) {
    RunOnRanks(kWorld, [&](Communicator& comm) {
      std::vector<float> data(kElems);
      if (comm.rank() == root) {
        for (std::size_t i = 0; i < kElems; ++i)
          data[i] = static_cast<float>(i) + 0.5f;
      }
      ASSERT_TRUE(TreeBroadcast(comm, data, root).ok());
      for (std::size_t i = 0; i < kElems; ++i)
        ASSERT_EQ(data[i], static_cast<float>(i) + 0.5f);
    });
  }
}

struct HierCase {
  int world;
  int rpn;
};

class HierarchicalSweep : public ::testing::TestWithParam<HierCase> {};

TEST_P(HierarchicalSweep, MatchesReference) {
  const auto [world, rpn] = GetParam();
  constexpr std::size_t kElems = 130;
  const auto ref = Reference(world, kElems, ReduceOp::kSum);
  RunOnRanks(world, [&](Communicator& comm) {
    auto data = MakeInput(comm.rank(), kElems);
    ASSERT_TRUE(HierarchicalAllReduce(comm, data, rpn).ok());
    ExpectNear(data, ref);
  });
}

INSTANTIATE_TEST_SUITE_P(Sweep, HierarchicalSweep,
                         ::testing::Values(HierCase{4, 2}, HierCase{6, 3},
                                           HierCase{8, 4}, HierCase{8, 2},
                                           HierCase{4, 1}, HierCase{4, 4}),
                         [](const auto& info) {
                           return "p" + std::to_string(info.param.world) +
                                  "_rpn" + std::to_string(info.param.rpn);
                         });

TEST(HierarchicalTest, DecoupledPairEqualsFused) {
  // The §VII-A decoupling: HierRS ; HierAG == HierAllReduce, bit for bit.
  constexpr int kWorld = 8;
  constexpr int kRpn = 4;
  constexpr std::size_t kElems = 230;
  RunOnRanks(kWorld, [&](Communicator& comm) {
    auto fused = MakeInput(comm.rank(), kElems);
    auto split = fused;
    ASSERT_TRUE(HierarchicalAllReduce(comm, fused, kRpn).ok());
    ASSERT_TRUE(HierarchicalReduceScatter(comm, split, kRpn).ok());
    ASSERT_TRUE(HierarchicalAllGather(comm, split, kRpn).ok());
    ASSERT_EQ(split, fused);
  });
}

TEST(HierarchicalTest, DecoupledPairWithAvg) {
  constexpr int kWorld = 6;
  constexpr std::size_t kElems = 64;
  const auto ref = Reference(kWorld, kElems, ReduceOp::kAvg);
  RunOnRanks(kWorld, [&](Communicator& comm) {
    auto data = MakeInput(comm.rank(), kElems);
    ASSERT_TRUE(
        HierarchicalReduceScatter(comm, data, 2, ReduceOp::kAvg).ok());
    ASSERT_TRUE(HierarchicalAllGather(comm, data, 2).ok());
    ExpectNear(data, ref);
  });
}

TEST(HierarchicalTest, RejectsNonDividingRanksPerNode) {
  RunOnRanks(4, [&](Communicator& comm) {
    std::vector<float> data(8, 1.0f);
    const Status st = HierarchicalAllReduce(comm, data, 3);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  });
}

TEST(HierarchicalTest, AvgAcrossNodes) {
  constexpr int kWorld = 6;
  constexpr std::size_t kElems = 50;
  const auto ref = Reference(kWorld, kElems, ReduceOp::kAvg);
  RunOnRanks(kWorld, [&](Communicator& comm) {
    auto data = MakeInput(comm.rank(), kElems);
    ASSERT_TRUE(HierarchicalAllReduce(comm, data, 3, ReduceOp::kAvg).ok());
    ExpectNear(data, ref);
  });
}

TEST(BarrierTest, CompletesOnAllWorldSizes) {
  for (int world : {1, 2, 3, 5, 8}) {
    RunOnRanks(world, [&](Communicator& comm) {
      for (int i = 0; i < 3; ++i) ASSERT_TRUE(Barrier(comm).ok());
    });
  }
}

TEST(DispatchTest, AllAlgorithmsAgree) {
  constexpr int kWorld = 4;
  constexpr std::size_t kElems = 64;
  const auto ref = Reference(kWorld, kElems, ReduceOp::kSum);
  for (Algorithm alg :
       {Algorithm::kRing, Algorithm::kReduceScatterAllGather, Algorithm::kTree,
        Algorithm::kDoubleBinaryTree, Algorithm::kHierarchical}) {
    RunOnRanks(kWorld, [&](Communicator& comm) {
      auto data = MakeInput(comm.rank(), kElems);
      AllReduceOptions opts;
      opts.algorithm = alg;
      opts.ranks_per_node = 2;
      ASSERT_TRUE(AllReduce(comm, data, opts).ok());
      ExpectNear(data, ref);
    });
  }
}

TEST(CollectivesTest, BackToBackCollectivesDoNotInterfere) {
  constexpr int kWorld = 3;
  RunOnRanks(kWorld, [&](Communicator& comm) {
    for (int round = 0; round < 10; ++round) {
      auto data = MakeInput(comm.rank(), 37);
      ASSERT_TRUE(RingAllReduce(comm, data).ok());
      auto ref = Reference(kWorld, 37, ReduceOp::kSum);
      ExpectNear(data, ref);
    }
  });
}

TEST(GatherTest, CollectsRankOrderedChunks) {
  constexpr int kWorld = 5;
  constexpr std::size_t kElems = 6;
  for (Rank root = 0; root < kWorld; ++root) {
    RunOnRanks(kWorld, [&](Communicator& comm) {
      std::vector<float> mine(kElems);
      for (std::size_t i = 0; i < kElems; ++i)
        mine[i] = static_cast<float>(comm.rank() * 100 + static_cast<int>(i));
      std::vector<float> out;
      ASSERT_TRUE(Gather(comm, mine, &out, root).ok());
      if (comm.rank() == root) {
        ASSERT_EQ(out.size(), kElems * kWorld);
        for (int r = 0; r < kWorld; ++r)
          for (std::size_t i = 0; i < kElems; ++i)
            ASSERT_EQ(out[static_cast<std::size_t>(r) * kElems + i],
                      static_cast<float>(r * 100 + static_cast<int>(i)));
      }
    });
  }
}

TEST(ScatterTest, DistributesChunksFromRoot) {
  constexpr int kWorld = 4;
  constexpr std::size_t kTotal = 22;  // uneven chunks
  RunOnRanks(kWorld, [&](Communicator& comm) {
    std::vector<float> in;
    if (comm.rank() == 1) {
      in.resize(kTotal);
      for (std::size_t i = 0; i < kTotal; ++i)
        in[i] = static_cast<float>(i) * 2.0f;
    }
    std::vector<float> out;
    ASSERT_TRUE(Scatter(comm, in, &out, /*root=*/1).ok());
    const Range r = ChunkRange(kTotal, kWorld,
                               static_cast<std::size_t>(comm.rank()));
    ASSERT_EQ(out.size(), r.size());
    for (std::size_t i = 0; i < r.size(); ++i)
      ASSERT_EQ(out[i], static_cast<float>(r.begin + i) * 2.0f);
  });
}

TEST(ScatterGatherTest, ScatterThenGatherIsIdentity) {
  constexpr int kWorld = 4;
  constexpr std::size_t kPerRank = 8;
  RunOnRanks(kWorld, [&](Communicator& comm) {
    std::vector<float> in;
    if (comm.rank() == 0) {
      in.resize(kPerRank * kWorld);
      for (std::size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<float>(i) + 0.25f;
    }
    std::vector<float> mine, out;
    ASSERT_TRUE(Scatter(comm, in, &mine, 0).ok());
    ASSERT_TRUE(Gather(comm, mine, &out, 0).ok());
    if (comm.rank() == 0) {
      ASSERT_EQ(out, in);
    }
  });
}

TEST(AllToAllTest, TransposesChunksAcrossRanks) {
  constexpr int kWorld = 4;
  constexpr std::size_t kChunk = 3;
  RunOnRanks(kWorld, [&](Communicator& comm) {
    std::vector<float> data(kChunk * kWorld);
    // Element j of chunk d on rank r encodes (r, d, j).
    for (int d = 0; d < kWorld; ++d)
      for (std::size_t j = 0; j < kChunk; ++j)
        data[static_cast<std::size_t>(d) * kChunk + j] =
            static_cast<float>(comm.rank() * 100 + d * 10 +
                               static_cast<int>(j));
    ASSERT_TRUE(AllToAll(comm, data).ok());
    // After: chunk s holds rank s's chunk destined for us.
    for (int s = 0; s < kWorld; ++s)
      for (std::size_t j = 0; j < kChunk; ++j)
        ASSERT_EQ(data[static_cast<std::size_t>(s) * kChunk + j],
                  static_cast<float>(s * 100 + comm.rank() * 10 +
                                     static_cast<int>(j)));
  });
}

TEST(AllToAllTest, RejectsIndivisiblePayload) {
  RunOnRanks(3, [&](Communicator& comm) {
    std::vector<float> data(7, 0.0f);
    EXPECT_EQ(AllToAll(comm, data).code(), StatusCode::kInvalidArgument);
  });
}

TEST(SegmentedAllReduceTest, MatchesUnsegmented) {
  constexpr int kWorld = 4;
  constexpr std::size_t kElems = 1000;
  const auto ref = Reference(kWorld, kElems, ReduceOp::kSum);
  for (std::size_t seg_bytes : {16u, 256u, 4096u, 1u << 20}) {
    RunOnRanks(kWorld, [&](Communicator& comm) {
      auto data = MakeInput(comm.rank(), kElems);
      ASSERT_TRUE(RingAllReduceSegmented(comm, data, seg_bytes).ok());
      ExpectNear(data, ref);
    });
  }
}

TEST(SegmentedAllReduceTest, RejectsSubElementSegment) {
  RunOnRanks(2, [&](Communicator& comm) {
    std::vector<float> data(4, 1.0f);
    EXPECT_EQ(RingAllReduceSegmented(comm, data, 2).code(),
              StatusCode::kInvalidArgument);
  });
}

class RecursiveHalvingSweep : public ::testing::TestWithParam<Case> {};

TEST_P(RecursiveHalvingSweep, MatchesReference) {
  const auto [world, elems] = GetParam();
  const auto ref = Reference(world, elems, ReduceOp::kSum);
  RunOnRanks(world, [&](Communicator& comm) {
    auto data = MakeInput(comm.rank(), elems);
    ASSERT_TRUE(RecursiveHalvingDoublingAllReduce(comm, data).ok());
    ExpectNear(data, ref);
  });
}

INSTANTIATE_TEST_SUITE_P(Sweep, RecursiveHalvingSweep,
                         ::testing::Values(Case{1, 16}, Case{2, 1},
                                           Case{2, 64}, Case{4, 5},
                                           Case{4, 1000}, Case{8, 77},
                                           Case{8, 4096}, Case{16, 333}),
                         [](const auto& info) {
                           return "p" + std::to_string(info.param.world) +
                                  "_n" + std::to_string(info.param.elems);
                         });

TEST(RecursiveHalvingTest, DecoupledPairEqualsFusedRing) {
  // The pair must agree with the ring all-reduce bit-for-bit? Not quite —
  // reduction order differs — but it must match the reference within fp
  // tolerance and its decoupled halves must compose.
  constexpr int kWorld = 8;
  constexpr std::size_t kElems = 250;
  const auto ref = Reference(kWorld, kElems, ReduceOp::kSum);
  RunOnRanks(kWorld, [&](Communicator& comm) {
    auto data = MakeInput(comm.rank(), kElems);
    ASSERT_TRUE(RecursiveHalvingReduceScatter(comm, data).ok());
    ASSERT_TRUE(RecursiveDoublingAllGather(comm, data).ok());
    ExpectNear(data, ref);
  });
}

TEST(RecursiveHalvingTest, AvgSupported) {
  constexpr int kWorld = 4;
  constexpr std::size_t kElems = 90;
  const auto ref = Reference(kWorld, kElems, ReduceOp::kAvg);
  RunOnRanks(kWorld, [&](Communicator& comm) {
    auto data = MakeInput(comm.rank(), kElems);
    ASSERT_TRUE(RecursiveHalvingReduceScatter(comm, data, ReduceOp::kAvg).ok());
    ASSERT_TRUE(RecursiveDoublingAllGather(comm, data).ok());
    ExpectNear(data, ref);
  });
}

TEST(RecursiveHalvingTest, RejectsNonPowerOfTwo) {
  RunOnRanks(3, [&](Communicator& comm) {
    std::vector<float> data(8, 1.0f);
    EXPECT_EQ(RecursiveHalvingDoublingAllReduce(comm, data).code(),
              StatusCode::kInvalidArgument);
  });
}

TEST(RecursiveHalvingTest, DispatchRoutesToIt) {
  constexpr int kWorld = 4;
  const auto ref = Reference(kWorld, 64, ReduceOp::kSum);
  RunOnRanks(kWorld, [&](Communicator& comm) {
    auto data = MakeInput(comm.rank(), 64);
    AllReduceOptions opts;
    opts.algorithm = Algorithm::kRecursiveHalvingDoubling;
    ASSERT_TRUE(AllReduce(comm, data, opts).ok());
    ExpectNear(data, ref);
  });
}

TEST(FaultInjectionTest, ShutdownMidCollectiveReleasesAllRanksWithError) {
  // Rank 1 never participates, so rank 0's all-reduce blocks forever; a
  // watchdog shuts the hub down. The blocked rank must come back with
  // Unavailable — fail-stop, never deadlock.
  TransportHub hub(2);
  std::thread worker([&] {
    Communicator comm(&hub, 0);
    std::vector<float> data(64, 1.0f);
    const Status st = RingAllReduce(comm, data);
    EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  });
  testenv::SleepMs(10);
  hub.Shutdown();
  worker.join();
}

TEST(FaultInjectionTest, ShutdownMidHierarchicalReleasesRanks) {
  TransportHub hub(4);
  std::vector<std::thread> workers;
  // Ranks 0..2 start; rank 3 (a tree child whose send unblocks rank 2)
  // never arrives.
  for (int r = 0; r < 3; ++r) {
    workers.emplace_back([&hub, r] {
      Communicator comm(&hub, r);
      std::vector<float> data(16, 1.0f);
      const Status st = HierarchicalAllReduce(comm, data, 2);
      EXPECT_FALSE(st.ok());
    });
  }
  testenv::SleepMs(10);
  hub.Shutdown();
  for (auto& w : workers) w.join();
}

// ---- Shutdown racing a blocked Recv, across every collective kind --------
//
// Rank 0 never arrives, so the remaining ranks block inside the collective.
// Shutdown() must release every one of them with Unavailable (a collective
// may also legitimately finish Ok if it never needed rank 0's data before
// the close — e.g. gather senders), never hang and never crash. The
// dearcheck waiter registry must end empty: a leaked waiter means a Recv
// path returned without unregistering from the wait-for graph.
struct NamedCollective {
  const char* name;
  std::function<Status(Communicator&, std::span<float>)> run;
};

const NamedCollective kShutdownSweep[] = {
    {"ring_all_reduce",
     [](Communicator& c, std::span<float> d) { return RingAllReduce(c, d); }},
    {"ring_reduce_scatter",
     [](Communicator& c, std::span<float> d) {
       return RingReduceScatter(c, d);
     }},
    {"ring_all_gather",
     [](Communicator& c, std::span<float> d) { return RingAllGather(c, d); }},
    {"tree_all_reduce",
     [](Communicator& c, std::span<float> d) { return TreeAllReduce(c, d); }},
    {"dbt_all_reduce",
     [](Communicator& c, std::span<float> d) {
       return DoubleBinaryTreeAllReduce(c, d);
     }},
    {"hierarchical_all_reduce",
     [](Communicator& c, std::span<float> d) {
       return HierarchicalAllReduce(c, d, /*ranks_per_node=*/2);
     }},
    {"recursive_all_reduce",
     [](Communicator& c, std::span<float> d) {
       return RecursiveHalvingDoublingAllReduce(c, d);
     }},
    {"barrier",
     [](Communicator& c, std::span<float>) { return Barrier(c); }},
    {"all_to_all",
     [](Communicator& c, std::span<float> d) { return AllToAll(c, d); }},
    {"gather",
     [](Communicator& c, std::span<float> d) {
       std::vector<float> out;
       return Gather(c, d, &out, /*root=*/0);
     }},
    {"scatter",
     [](Communicator& c, std::span<float> d) {
       std::vector<float> out;
       return Scatter(c, d, &out, /*root=*/0);
     }},
};

class ShutdownRaceSweep : public ::testing::TestWithParam<NamedCollective> {};

TEST_P(ShutdownRaceSweep, ReleasesBlockedRanksWithoutLeakedWaiters) {
  const NamedCollective& param = GetParam();
  auto& checker = check::Checker::Get();
  check::CheckerOptions copts;
  copts.watchdog_timeout_s = 0;  // waiter-leak accounting only, no watchdog
  checker.Enable(4, copts);
  {
    TransportHub hub(4);
    std::vector<std::thread> workers;
    for (int r = 1; r < 4; ++r) {
      workers.emplace_back([&hub, r, &param] {
        Communicator comm(&hub, r);
        std::vector<float> data(16, static_cast<float>(r));
        const Status st = param.run(comm, std::span<float>(data));
        EXPECT_TRUE(st.ok() || st.code() == StatusCode::kUnavailable)
            << param.name << ": " << st.ToString();
      });
    }
    testenv::SleepMs(20);
    hub.Shutdown();
    for (auto& w : workers) w.join();
    EXPECT_EQ(checker.blocked_waiters(), 0u) << param.name;
  }
  checker.Disable();
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, ShutdownRaceSweep, ::testing::ValuesIn(kShutdownSweep),
    [](const ::testing::TestParamInfo<NamedCollective>& info) {
      return std::string(info.param.name);
    });

// The ring is the strict case: with rank 0 absent every participating rank
// eventually needs a message that transits rank 0, so all of them must come
// back Unavailable — none may complete.
TEST(ShutdownRaceTest, RingAllReduceWithAbsentRankAllUnavailable) {
  TransportHub hub(4);
  std::vector<std::thread> workers;
  std::vector<Status> statuses(4, Status::Ok());
  for (int r = 1; r < 4; ++r) {
    workers.emplace_back([&hub, &statuses, r] {
      Communicator comm(&hub, r);
      std::vector<float> data(16, 1.0f);
      statuses[static_cast<std::size_t>(r)] = RingAllReduce(comm, data);
    });
  }
  testenv::SleepMs(20);
  hub.Shutdown();
  for (auto& w : workers) w.join();
  for (int r = 1; r < 4; ++r) {
    EXPECT_EQ(statuses[static_cast<std::size_t>(r)].code(),
              StatusCode::kUnavailable)
        << "rank " << r;
  }
}

// A peer whose buffer size diverged (a re-bucketing bug, or dearcheck's
// injected kShrink fault) makes the collective fail with Internal; it must
// not reach the reduce or unpack kernel, whose size check aborts.
TEST(FaultInjectionTest, MismatchedPeerSizeFailsInsteadOfAborting) {
  for (const bool reduce : {true, false}) {
    TransportHub hub(2);
    std::vector<Status> statuses(2, Status::Ok());
    std::vector<std::thread> workers;
    for (int r = 0; r < 2; ++r) {
      workers.emplace_back([&, r] {
        Communicator comm(&hub, r);
        std::vector<float> data(r == 0 ? 16 : 8, 1.0f);
        statuses[static_cast<std::size_t>(r)] =
            reduce ? RingReduceScatter(comm, data) : RingAllGather(comm, data);
      });
    }
    for (auto& w : workers) w.join();
    for (int r = 0; r < 2; ++r) {
      EXPECT_EQ(statuses[static_cast<std::size_t>(r)].code(),
                StatusCode::kInternal)
          << (reduce ? "reduce-scatter" : "all-gather") << " rank " << r;
    }
  }
}

TEST(CollectivesTest, NamesAreHuman) {
  EXPECT_EQ(AlgorithmName(Algorithm::kRing), "ring");
  EXPECT_EQ(AlgorithmName(Algorithm::kDoubleBinaryTree),
            "double-binary-tree");
  EXPECT_EQ(ReduceOpName(ReduceOp::kAvg), "avg");
}

// ---- One observer bracket per collective ---------------------------------

/// Interned names of rank's flight-recorder records of `kind`.
std::vector<std::string> FlightNames(int rank, flightrec::EventKind kind) {
  const auto& recorder = flightrec::Recorder::Get();
  const auto snapshots = recorder.SnapshotAll();
  std::vector<std::string> names;
  for (const auto& rec : snapshots[static_cast<std::size_t>(rank)]) {
    if (static_cast<flightrec::EventKind>(rec.kind) == kind)
      names.emplace_back(
          recorder.InternedName(static_cast<std::uint16_t>(rec.tag)));
  }
  return names;
}

Histogram TelemetryHistogram(int rank, const std::string& name) {
  for (const auto& [n, h] :
       telemetry::Runtime::Get().rank_metrics(rank)->Histograms()) {
    if (n == name) return h;
  }
  ADD_FAILURE() << "no histogram " << name << " on rank " << rank;
  return Histogram{};
}

// RingAllReduce runs a reduce-scatter and an all-gather inside, yet every
// observer sees one protocol-level operation: one telemetry call, one
// checker ledger entry, one flight-recorder begin/end pair and one
// calibration sample per rank.
TEST(CollectiveScopeTest, RingAllReduceRecordsOnceInEveryObserver) {
  constexpr int kWorld = 2;
  auto& rt = telemetry::Runtime::Get();
  auto& checker = check::Checker::Get();
  auto& monitor = CalibrationMonitor::Get();
  flightrec::Recorder::Get().Reset();
  rt.Enable(kWorld);
  check::CheckerOptions copts;
  copts.watchdog_timeout_s = 0.0;
  checker.Enable(kWorld, copts);
  monitor.Enable(NetworkModel::TenGbE(), kWorld);
  RunOnRanks(kWorld, [](Communicator& comm) {
    std::vector<float> data(64, 1.0f);
    EXPECT_TRUE(RingAllReduce(comm, data).ok());
  });
  monitor.Disable();
  EXPECT_FALSE(checker.tripped()) << checker.report();
  EXPECT_EQ(checker.verified_ops(), 1);
  for (int r = 0; r < kWorld; ++r) EXPECT_EQ(checker.ledger_size(r), 1);
  checker.Disable();
  rt.Disable();

  for (int r = 0; r < kWorld; ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    auto* reg = rt.rank_metrics(r);
    EXPECT_EQ(reg->GetCounter("comm.all_reduce.calls").value(), 1);
    EXPECT_EQ(reg->GetCounter("comm.reduce_scatter.calls").value(), 0);
    EXPECT_EQ(reg->GetCounter("comm.all_gather.calls").value(), 0);
    const std::vector<std::string> one{"ring_all_reduce"};
    EXPECT_EQ(FlightNames(r, flightrec::EventKind::kCollectiveBegin), one);
    EXPECT_EQ(FlightNames(r, flightrec::EventKind::kCollectiveEnd), one);
  }
  const auto stats = monitor.Stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].shape, analysis::CollectiveShape::kRingAllReduce);
  EXPECT_EQ(stats[0].samples, static_cast<std::uint64_t>(kWorld));
}

// Only Scatter's root holds the payload, so ranks pass different input
// sizes. Telemetry records each caller's count; the checker ledger, which
// matches sizes across ranks, and the flight recorder record 0.
TEST(CollectiveScopeTest, ScatterRecordsCallerCountOnlyInTelemetry) {
  constexpr int kWorld = 2;
  constexpr std::size_t kN = 8;
  auto& rt = telemetry::Runtime::Get();
  auto& checker = check::Checker::Get();
  flightrec::Recorder::Get().Reset();
  rt.Enable(kWorld);
  check::CheckerOptions copts;
  copts.watchdog_timeout_s = 0.0;
  checker.Enable(kWorld, copts);
  RunOnRanks(kWorld, [](Communicator& comm) {
    const std::vector<float> in(comm.rank() == 0 ? kN : 0, 1.0f);
    std::vector<float> out;
    EXPECT_TRUE(Scatter(comm, in, &out, /*root=*/0).ok());
  });
  EXPECT_FALSE(checker.tripped()) << checker.report();
  EXPECT_EQ(checker.verified_ops(), 1);
  checker.Disable();
  rt.Disable();

  for (int r = 0; r < kWorld; ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    const Histogram bytes = TelemetryHistogram(r, "comm.scatter.bytes");
    EXPECT_EQ(bytes.count(), 1u);
    EXPECT_EQ(bytes.sum(), r == 0 ? kN * sizeof(float) : 0.0);
    std::size_t begins = 0;
    const auto snapshots = flightrec::Recorder::Get().SnapshotAll();
    for (const auto& rec : snapshots[static_cast<std::size_t>(r)]) {
      if (static_cast<flightrec::EventKind>(rec.kind) !=
          flightrec::EventKind::kCollectiveBegin)
        continue;
      ++begins;
      EXPECT_EQ(rec.payload, 0u);
    }
    EXPECT_EQ(begins, 1u);
  }
}

}  // namespace
}  // namespace dear::comm
