// CalibrationMonitor — closed-loop model-vs-measured observability for the
// collectives.
//
// Every collective with an α–β shape that completes OK (fed by its
// comm::CollectiveScope) is compared against the CostModel prediction for
// its shape: the measured/predicted ratio feeds a
// "comm.model.residual.<shape>" histogram and an EWMA divergence gauge
// "comm.model.divergence.<shape>" (mean |ln ratio| — 0 when the Hockney
// model matches reality, ~0.7 when off by 2x), the raw (bytes, seconds)
// sample feeds the streaming α–β calibrator (analysis/calib.h), and an
// EWMA band detector flags per-rank duration outliers as flightrec
// kAnomaly events — the straggler signal `dearsim doctor` reports.
//
// Hot-path contract: OnCollective is allocation-free and runs on the
// rank's collective thread once per *collective* (not per message), with
// pre-resolved metric pointers and fixed per-(rank, shape) cells.
// bench/doctor_overhead holds it under 1% of the smallest collective and
// 0 allocations per sample, the same bar as the flight recorder.
//
// Singleton shape follows check::Checker / flightrec::Recorder: leaked,
// disabled by default, Enable/Disable only from quiescent points (no
// engine threads running).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "analysis/calib.h"
#include "comm/cost_model.h"

namespace dear::telemetry {
class Counter;
class Gauge;
class HistogramMetric;
}  // namespace dear::telemetry

namespace dear::comm {

class CalibrationMonitor {
 public:
  /// Process-wide instance (leaked; safe from any thread).
  static CalibrationMonitor& Get();

  struct Options {
    double ewma_weight{0.125};   // EWMA step for mean/deviation tracking
    double band_deviations{6.0};  // anomaly when dur > mean + k·dev
    int warmup_samples{8};       // per-cell samples before anomalies fire
  };

  /// Arms the monitor: predictions come from CostModel(net, world).
  /// Call from a quiescent point (no engines running); resolves telemetry
  /// metric pointers against the *current* telemetry session, so enable
  /// telemetry first. Re-entrant Enable re-arms with fresh state.
  void Enable(const NetworkModel& net, int world, Options opts);
  void Enable(const NetworkModel& net, int world) {
    Enable(net, world, Options{});
  }
  /// Disarms and freezes accumulated state (Stats/calibrator still
  /// readable). Quiescent-point only.
  void Disable();

  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_acquire);
  }

  /// Hot hook: rank's collective of `shape` moved `bytes` of payload in
  /// `duration_ns`. CollectiveScope calls it when a shaped collective
  /// finishes OK; tests and benches may too. No-op when disabled/out of range.
  void OnCollective(int rank, analysis::CollectiveShape shape,
                    std::size_t bytes, std::uint64_t duration_ns) noexcept;

  /// The streaming α–β estimator fed by OnCollective.
  [[nodiscard]] const analysis::Calibrator& calibrator() const noexcept {
    return calibrator_;
  }

  /// Aggregated (over ranks) per-shape divergence, for doctor/profile.
  struct ShapeStats {
    analysis::CollectiveShape shape{analysis::CollectiveShape::kReduceScatter};
    std::uint64_t samples{0};
    double divergence{0.0};      // sample-weighted EWMA |ln(meas/pred)|
    double mean_ratio{0.0};      // sample-weighted EWMA meas/pred
    std::uint64_t anomalies{0};
  };
  [[nodiscard]] std::vector<ShapeStats> Stats() const;

  /// Per-rank anomaly counts (straggler ranking input), size = world.
  [[nodiscard]] std::vector<std::uint64_t> AnomaliesByRank() const;

  [[nodiscard]] const NetworkModel& network() const noexcept { return net_; }
  [[nodiscard]] int world() const noexcept { return world_; }

  static constexpr int kMaxRanks = 512;

 private:
  CalibrationMonitor() = default;

  // One (rank, shape) population. Only the rank's collective thread writes
  // the EWMA fields, but doctor/profile threads read them while the run is
  // live, so they are relaxed atomics (plain load + store, no RMW).
  struct Cell {
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> ewma_mean_ns{0.0};
    std::atomic<double> ewma_dev_ns{0.0};
    std::atomic<double> ewma_log_ratio{0.0};  // |ln(measured/predicted)|
    std::atomic<double> ewma_ratio{0.0};
    std::atomic<std::uint64_t> anomalies{0};
  };

  // Pre-resolved per-shape export targets: prediction line (ns) plus the
  // per-rank metric objects, looked up once at Enable so the hot path does
  // no string-keyed work. Metric pointers are null when telemetry is off —
  // the monitor's own cells still accumulate.
  struct ShapeChannel {
    double pred_a_ns{0.0};          // predicted = a + b·bytes
    double pred_b_ns_per_byte{0.0};
    telemetry::HistogramMetric* residual{nullptr};  // per-rank below
  };

  [[nodiscard]] Cell* cell(int rank, std::size_t shape) noexcept {
    return &cells_[static_cast<std::size_t>(rank) *
                       analysis::kShapeCount +
                   shape];
  }

  std::atomic<bool> enabled_{false};
  NetworkModel net_{};
  int world_{0};
  Options opts_{};
  analysis::Calibrator calibrator_;
  // [rank * kShapeCount + shape]; sized world*kShapeCount at Enable.
  std::unique_ptr<Cell[]> cells_;
  // Prediction coefficients per shape (world-wide).
  double pred_a_ns_[analysis::kShapeCount] = {};
  double pred_b_ns_per_byte_[analysis::kShapeCount] = {};
  // Per-rank, per-shape metric pointers (null when telemetry disabled).
  std::unique_ptr<telemetry::HistogramMetric*[]> residual_;
  std::unique_ptr<telemetry::Gauge*[]> divergence_;
  std::unique_ptr<telemetry::Counter*[]> anomaly_counters_;  // per rank
};

}  // namespace dear::comm
