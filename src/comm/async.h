// Asynchronous collective engine: one background communication thread per
// rank, mirroring a dedicated NCCL stream.
//
// The DeAR runtime submits reduce-scatter requests during backpropagation
// (BackPipe) and all-gather requests during feed-forward (FeedPipe); the
// engine executes them strictly in submission order. Correctness contract
// (paper §III-B): every rank must submit the same sequence of collectives —
// DeAR guarantees this by construction because it never re-orders
// communication tasks, which is exactly why it needs no negotiation round.
#pragma once

#include <memory>
#include <span>
#include <thread>

#include "comm/collectives.h"
#include "comm/communicator.h"
#include "common/barrier.h"
#include "common/channel.h"
#include "common/status.h"

namespace dear::comm {

/// Completion handle for a submitted collective. Copyable; Wait() blocks
/// until the operation finished and returns its status. Wait() may be called
/// multiple times and from any thread.
class CollectiveHandle {
 public:
  CollectiveHandle() = default;  // completed-OK sentinel

  Status Wait() const {
    if (!state_) return Status::Ok();
    state_->done.Wait();
    return state_->status;
  }

  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }

 private:
  friend class CommEngine;
  struct State {
    Latch done{1};
    Status status;
  };
  std::shared_ptr<State> state_;
};

/// Per-rank background executor of collectives.
///
/// Buffers passed to Submit* must stay alive and unaliased by the compute
/// thread until the returned handle's Wait() returns — the same contract as
/// ncclAllReduce on a stream.
class CommEngine {
 public:
  explicit CommEngine(Communicator comm);
  ~CommEngine();

  CommEngine(const CommEngine&) = delete;
  CommEngine& operator=(const CommEngine&) = delete;

  /// Every gradient-path Submit* takes the wire DType its payloads travel
  /// as (kF32 default = bitwise-identical fp32 wire; kF16/kBF16 halve the
  /// wire bytes, converting on pack). The engine sets the communicator's
  /// wire dtype per request on its own thread, so fp16 gradient traffic
  /// and fp32 control traffic interleave safely on one engine. All ranks
  /// must submit matching dtypes (the same no-negotiation contract as the
  /// op sequence itself).
  CollectiveHandle SubmitReduceScatter(std::span<float> data,
                                       ReduceOp op = ReduceOp::kSum,
                                       DType dtype = DType::kF32);
  CollectiveHandle SubmitAllGather(std::span<float> data,
                                   DType dtype = DType::kF32);
  /// Decoupled hierarchical pair (intra-node reduce + leader ring RS /
  /// leader ring AG + intra-node broadcast); ranks_per_node must divide
  /// the world size.
  CollectiveHandle SubmitHierarchicalReduceScatter(
      std::span<float> data, int ranks_per_node,
      ReduceOp op = ReduceOp::kSum, DType dtype = DType::kF32);
  CollectiveHandle SubmitHierarchicalAllGather(std::span<float> data,
                                               int ranks_per_node,
                                               DType dtype = DType::kF32);
  /// Rabenseifner decoupled pair (power-of-two world sizes).
  CollectiveHandle SubmitRecursiveHalvingReduceScatter(
      std::span<float> data, ReduceOp op = ReduceOp::kSum,
      DType dtype = DType::kF32);
  CollectiveHandle SubmitRecursiveDoublingAllGather(
      std::span<float> data, DType dtype = DType::kF32);
  CollectiveHandle SubmitAllReduce(std::span<float> data,
                                   ReduceOp op = ReduceOp::kSum,
                                   DType dtype = DType::kF32);
  /// Pure synchronization point on the comm stream (dissemination barrier).
  /// Always fp32 wire: control-plane ops carry no payload worth narrowing.
  CollectiveHandle SubmitBarrier();
  /// Tree broadcast from `root` — used by control-plane decisions that one
  /// rank makes for everyone (e.g. the BO tuner's next buffer size).
  /// Always fp32 wire: control values (buffer sizes, epochs) routinely
  /// exceed fp16's 65504 max and must arrive bit-exact.
  CollectiveHandle SubmitBroadcast(std::span<float> data, Rank root);

  /// Stops accepting work, drains the queue, joins the thread. Idempotent.
  void Shutdown();

  /// Logical rank / size on the communicator's (possibly shrunken) ring.
  [[nodiscard]] Rank rank() const noexcept { return comm_.rank(); }
  [[nodiscard]] int size() const noexcept { return comm_.size(); }
  /// Physical hub rank — the identity for checker/telemetry/flightrec.
  [[nodiscard]] Rank global_rank() const noexcept {
    return comm_.global_rank();
  }

 private:
  enum class Kind {
    kReduceScatter,
    kAllGather,
    kAllReduce,
    kBarrier,
    kBroadcast,
    kHierReduceScatter,
    kHierAllGather,
    kRecursiveRs,
    kRecursiveAg,
  };
  struct Request {
    Kind kind;
    std::span<float> data;
    ReduceOp op;
    Rank root{0};            // broadcast root, or ranks_per_node for kHier*
    DType dtype{DType::kF32};  // wire dtype for this request's payloads
    std::shared_ptr<CollectiveHandle::State> state;
  };

  CollectiveHandle Submit(Kind kind, std::span<float> data, ReduceOp op,
                          Rank root = 0, DType dtype = DType::kF32);
  /// Runs one request's collective synchronously on the loop thread.
  Status Execute(const Request& req);
  static void Complete(const Request& req, Status st);
  void Loop();

  Communicator comm_;
  Channel<Request> queue_;
  std::thread thread_;
  bool shut_down_{false};
};

}  // namespace dear::comm
