#include "comm/calibration.h"

#include <cmath>
#include <string>

#include "common/stats.h"
#include "flightrec/recorder.h"
#include "telemetry/telemetry.h"

namespace dear::comm {
namespace {

// Residual histogram edges: geometric ladder around ratio 1 covering
// 1/64x .. 64x model error at ~19% resolution.
std::vector<double> ResidualEdges() {
  return Histogram::ExponentialEdges(1.0 / 64.0, std::pow(2.0, 0.25), 48);
}

}  // namespace

CalibrationMonitor& CalibrationMonitor::Get() {
  static CalibrationMonitor* instance = new CalibrationMonitor();
  return *instance;
}

void CalibrationMonitor::Enable(const NetworkModel& net, int world,
                                Options opts) {
  enabled_.store(false, std::memory_order_release);
  net_ = net;
  world_ = world < kMaxRanks ? world : kMaxRanks;
  opts_ = opts;
  calibrator_.Reset();

  const std::size_t n_cells =
      static_cast<std::size_t>(world_) * analysis::kShapeCount;
  cells_ = std::make_unique<Cell[]>(n_cells);

  // Prediction lines per shape: predicted_ns(d) = a + b·d, straight from
  // the shape structure constants and the reference network.
  for (std::size_t s = 0; s < analysis::kShapeCount; ++s) {
    const auto coeffs = analysis::ShapeCoefficients(
        static_cast<analysis::CollectiveShape>(s), world_);
    pred_a_ns_[s] = coeffs.a * net_.alpha_s * 1e9;
    pred_b_ns_per_byte_[s] = coeffs.b * net_.beta_s_per_byte * 1e9;
  }

  // Metric pointers, one residual histogram + divergence gauge per
  // (rank, shape) and one anomaly counter per rank. Null (but sized) when
  // no telemetry session is live — the monitor still accumulates cells.
  residual_ = std::make_unique<telemetry::HistogramMetric*[]>(n_cells);
  divergence_ = std::make_unique<telemetry::Gauge*[]>(n_cells);
  anomaly_counters_ = std::make_unique<telemetry::Counter*[]>(
      static_cast<std::size_t>(world_));
  auto& rt = telemetry::Runtime::Get();
  for (int r = 0; r < world_; ++r) {
    telemetry::MetricsRegistry* reg =
        rt.enabled() ? rt.rank_metrics(r) : nullptr;
    anomaly_counters_[static_cast<std::size_t>(r)] =
        reg != nullptr ? &reg->GetCounter("comm.model.anomalies") : nullptr;
    for (std::size_t s = 0; s < analysis::kShapeCount; ++s) {
      const std::size_t i =
          static_cast<std::size_t>(r) * analysis::kShapeCount + s;
      if (reg == nullptr) {
        residual_[i] = nullptr;
        divergence_[i] = nullptr;
        continue;
      }
      const char* shape_name =
          analysis::ShapeName(static_cast<analysis::CollectiveShape>(s));
      residual_[i] = &reg->GetHistogram(
          std::string("comm.model.residual.") + shape_name, ResidualEdges());
      divergence_[i] =
          &reg->GetGauge(std::string("comm.model.divergence.") + shape_name);
    }
  }
  flightrec::Recorder::Get().EnsureRanks(world_);
  enabled_.store(true, std::memory_order_release);
}

void CalibrationMonitor::Disable() {
  enabled_.store(false, std::memory_order_release);
}

void CalibrationMonitor::OnCollective(int rank,
                                      analysis::CollectiveShape shape,
                                      std::size_t bytes,
                                      std::uint64_t duration_ns) noexcept {
  if (!enabled()) return;
  if (static_cast<unsigned>(rank) >= static_cast<unsigned>(world_)) return;
  const auto s = static_cast<std::size_t>(shape);
  if (s >= analysis::kShapeCount) return;

  const double dur_ns = static_cast<double>(duration_ns);
  const double d = static_cast<double>(bytes);

  // (1) Streaming α–β sample.
  calibrator_.AddSample(shape, world_, d, dur_ns * 1e-9);

  Cell* c = cell(rank, s);
  const std::uint64_t seen = c->count.load(std::memory_order_relaxed);

  // (2) EWMA straggler band on the raw duration: anomalous when the
  // measured time exceeds mean + k·deviation after warmup. Updated with
  // plain load + store — this cell is only written by the rank's
  // collective thread.
  const double w = opts_.ewma_weight;
  const double mean = c->ewma_mean_ns.load(std::memory_order_relaxed);
  const double dev = c->ewma_dev_ns.load(std::memory_order_relaxed);
  const bool anomalous =
      seen >= static_cast<std::uint64_t>(opts_.warmup_samples) &&
      dur_ns > mean + opts_.band_deviations * dev;
  const double delta = std::fabs(dur_ns - mean);
  if (seen == 0) {
    c->ewma_mean_ns.store(dur_ns, std::memory_order_relaxed);
    c->ewma_dev_ns.store(0.0, std::memory_order_relaxed);
  } else {
    c->ewma_mean_ns.store(mean + w * (dur_ns - mean),
                          std::memory_order_relaxed);
    c->ewma_dev_ns.store(dev + w * (delta - dev), std::memory_order_relaxed);
  }
  if (anomalous) {
    c->anomalies.fetch_add(1, std::memory_order_relaxed);
    flightrec::Recorder::Get().OnAnomaly(rank, static_cast<std::uint32_t>(s),
                                         duration_ns);
    if (telemetry::Counter* ctr =
            anomaly_counters_[static_cast<std::size_t>(rank)]) {
      ctr->Add(1);
    }
  }

  // (3) Model residual: measured / predicted. Skipped when the model
  // predicts zero (world 1, or a zero-byte payload on a latency-free
  // shape) — no ratio to take.
  const double predicted_ns = pred_a_ns_[s] + pred_b_ns_per_byte_[s] * d;
  if (predicted_ns > 0.0) {
    const double ratio = dur_ns / predicted_ns;
    const double log_abs = std::fabs(std::log(ratio > 0.0 ? ratio : 1e-12));
    const double div = c->ewma_log_ratio.load(std::memory_order_relaxed);
    const double r = c->ewma_ratio.load(std::memory_order_relaxed);
    const double new_div = seen == 0 ? log_abs : div + w * (log_abs - div);
    const double new_ratio = seen == 0 ? ratio : r + w * (ratio - r);
    c->ewma_log_ratio.store(new_div, std::memory_order_relaxed);
    c->ewma_ratio.store(new_ratio, std::memory_order_relaxed);
    const std::size_t i =
        static_cast<std::size_t>(rank) * analysis::kShapeCount + s;
    if (telemetry::HistogramMetric* h = residual_[i]) h->Observe(ratio);
    if (telemetry::Gauge* g = divergence_[i]) g->Set(new_div);
  }

  c->count.store(seen + 1, std::memory_order_relaxed);
}

std::vector<CalibrationMonitor::ShapeStats> CalibrationMonitor::Stats()
    const {
  std::vector<ShapeStats> out;
  if (cells_ == nullptr) return out;
  for (std::size_t s = 0; s < analysis::kShapeCount; ++s) {
    ShapeStats stats;
    stats.shape = static_cast<analysis::CollectiveShape>(s);
    double div_weighted = 0.0;
    double ratio_weighted = 0.0;
    for (int r = 0; r < world_; ++r) {
      const Cell& c =
          cells_[static_cast<std::size_t>(r) * analysis::kShapeCount + s];
      const std::uint64_t n = c.count.load(std::memory_order_relaxed);
      if (n == 0) continue;
      const double w = static_cast<double>(n);
      stats.samples += n;
      div_weighted += w * c.ewma_log_ratio.load(std::memory_order_relaxed);
      ratio_weighted += w * c.ewma_ratio.load(std::memory_order_relaxed);
      stats.anomalies += c.anomalies.load(std::memory_order_relaxed);
    }
    if (stats.samples == 0) continue;
    const double total = static_cast<double>(stats.samples);
    stats.divergence = div_weighted / total;
    stats.mean_ratio = ratio_weighted / total;
    out.push_back(stats);
  }
  return out;
}

std::vector<std::uint64_t> CalibrationMonitor::AnomaliesByRank() const {
  std::vector<std::uint64_t> out(static_cast<std::size_t>(world_), 0);
  if (cells_ == nullptr) return out;
  for (int r = 0; r < world_; ++r) {
    for (std::size_t s = 0; s < analysis::kShapeCount; ++s) {
      out[static_cast<std::size_t>(r)] +=
          cells_[static_cast<std::size_t>(r) * analysis::kShapeCount + s]
              .anomalies.load(std::memory_order_relaxed);
    }
  }
  return out;
}

}  // namespace dear::comm
