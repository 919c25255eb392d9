// Ambient runtime-telemetry session for the real (threaded) runtime.
//
// The simulator has first-class timeline analysis; this gives the live code
// paths (comm/, core/, train/, tune/) the same visibility. A process-wide
// Runtime holds one MetricsRegistry per rank, a process-global registry
// (for rank-less components like the BO tuner), and a shared TraceRecorder
// into which worker threads emit Chrome-trace spans — pid = rank, tid 0 =
// compute lane, tid 1 = comm lane, matching the simulator's stream
// convention so the same analysis tooling reads both.
//
// Instrumentation sites are free functions / RAII guards that reduce to a
// single relaxed atomic load when telemetry is disabled (the default), so
// the hooks can stay compiled into the hot paths; see the overhead note in
// README.md §Observability.
//
// Enable()/Disable() must be called from a quiescent point (no in-flight
// collectives) — typically around a whole training session.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "common/trace.h"
#include "telemetry/metrics.h"

namespace dear::telemetry {

/// Trace lane convention shared with the simulator's streams.
inline constexpr std::int64_t kComputeLane = 0;
inline constexpr std::int64_t kCommLane = 1;
/// Attribution lanes recorded by core::DistOptim (analysis/timeline.h's
/// AttributeIterations keys on the event *category*, these lanes exist so
/// Chrome-trace viewers show them as separate rows):
/// kWaitLane: compute-thread blocked-on-collective spans, named
/// "wait.<rs|ag|ar>.g<group>" with category "wait".
inline constexpr std::int64_t kWaitLane = 2;
/// kGroupLane: per-fusion-group collective in-flight spans (launch ->
/// complete), named "<rs|ag|ar>.g<group>" with category "group".
inline constexpr std::int64_t kGroupLane = 3;
/// kIterationLane: per-iteration windows between consecutive Step() ends,
/// named "iteration" with category "iteration".
inline constexpr std::int64_t kIterationLane = 4;

class Runtime {
 public:
  /// Process-wide instance.
  static Runtime& Get();

  /// Starts a session for `world_size` ranks: fresh registries, fresh
  /// trace, clock origin = now. Replaces any previous session's data.
  void Enable(int world_size);
  /// Stops recording; the last session's data stays readable until the
  /// next Enable().
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }

  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] int world_size() const noexcept { return world_size_; }
  /// Increments on every Enable(); hot paths use it to invalidate cached
  /// metric pointers from an earlier session.
  [[nodiscard]] std::uint64_t session_id() const noexcept {
    return session_.load(std::memory_order_relaxed);
  }

  /// Per-rank registry, or nullptr when no session covers `rank`.
  /// (Valid after Disable() too, for post-run reporting.)
  [[nodiscard]] MetricsRegistry* rank_metrics(int rank) noexcept {
    if (rank < 0 || rank >= world_size_) return nullptr;
    return ranks_[static_cast<std::size_t>(rank)].get();
  }
  /// Registry for rank-less components (e.g. the BO tuner driving the
  /// simulator); always non-null.
  [[nodiscard]] MetricsRegistry& global_metrics() noexcept { return global_; }
  /// Shared trace of the current/last session; never null.
  [[nodiscard]] TraceRecorder& trace() noexcept { return trace_; }

  /// Pre-resolved per-rank transport counters so the per-message hooks are
  /// a few relaxed atomic adds — no name lookup on the hot path.
  /// `wire_bytes_by_dtype` splits bytes_sent by the payload's wire dtype
  /// (index = comm::DType value: 0 f32, 1 f16, 2 bf16; registered as
  /// "comm.wire_bytes.<dtype>"), the counters `dearsim profile` surfaces
  /// to show what mixed precision saved on the wire.
  struct TransportCounters {
    Counter* messages_sent{nullptr};
    Counter* bytes_sent{nullptr};
    Counter* messages_received{nullptr};
    Counter* bytes_received{nullptr};
    Counter* wire_bytes_by_dtype[3] = {nullptr, nullptr, nullptr};
  };
  [[nodiscard]] TransportCounters* transport_counters(int rank) noexcept {
    if (rank < 0 || rank >= world_size_) return nullptr;
    return &transport_[static_cast<std::size_t>(rank)];
  }

  /// Pre-resolved buffer-pool counters (global registry — pools are
  /// per-hub, not per-rank) so the Acquire/Release hooks stay two relaxed
  /// adds plus a gauge store.
  struct PoolCounters {
    Counter* hits{nullptr};
    Counter* misses{nullptr};
    Counter* releases{nullptr};
    Counter* bytes_acquired{nullptr};
    Gauge* bytes_in_flight{nullptr};
  };
  [[nodiscard]] PoolCounters* pool_counters() noexcept { return &pool_; }

  /// Wall-clock nanoseconds since Enable() (monotonic).
  [[nodiscard]] SimTime NowNs() const noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

 private:
  Runtime() = default;
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> session_{0};
  int world_size_{0};
  std::vector<std::unique_ptr<MetricsRegistry>> ranks_;
  std::vector<TransportCounters> transport_;
  PoolCounters pool_;
  MetricsRegistry global_;
  TraceRecorder trace_;
  std::chrono::steady_clock::time_point origin_{};
};

// ---- Hot-path hooks (no-ops unless a session is enabled) -----------------

/// Transport accounting: one message of `bytes` *wire* payload left rank
/// `src` / arrived at rank `dst`. `dtype_index` is the payload's wire
/// dtype (comm::DType value, 0 = fp32) and feeds the per-dtype wire-byte
/// counters; out-of-range values fold into the fp32 bucket.
void OnMessageSent(int src, std::size_t bytes, int dtype_index = 0) noexcept;
void OnMessageReceived(int dst, std::size_t bytes) noexcept;

/// Buffer-pool accounting (global registry, "transport.pool.*"): one slab
/// of `bytes` capacity was acquired from the free list (`hit`) or the heap
/// (miss), or released. `in_flight_bytes` is the pool's outstanding
/// capacity after the operation, mirrored into a gauge.
void OnPoolAcquire(bool hit, std::size_t bytes,
                   std::int64_t in_flight_bytes) noexcept;
void OnPoolRelease(std::int64_t in_flight_bytes) noexcept;

/// One completed collective on `rank`: bumps per-kind counters, observes
/// the latency and payload-size histograms, and emits a comm-lane trace
/// span [start_ns, end_ns).
void OnCollective(int rank, const char* kind, std::size_t elems,
                  SimTime start_ns, SimTime end_ns);

/// RAII compute/comm-lane span: records name/category into the session
/// trace on destruction. Cheap no-op when disabled at construction.
class ScopedSpan {
 public:
  ScopedSpan(int rank, std::int64_t lane, const char* name,
             const char* category) noexcept;
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_;
  int rank_;
  std::int64_t lane_;
  const char* name_;
  const char* category_;
  SimTime start_{0};
};

}  // namespace dear::telemetry
