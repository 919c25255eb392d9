#include "session.h"

#include <atomic>
#include <climits>
#include <cmath>
#include <cstring>
#include <exception>
#include <limits>
#include <thread>

#include "comm/communicator.h"
#include "comm/transport.h"
#include "lockstep.h"
#include "train/mlp.h"

namespace trainbench {
namespace {

using dear::core::DistOptim;
using dear::core::ScheduleMode;
using dear::train::Mlp;

using Params = std::vector<std::vector<float>>;

double MsSince(std::int64_t t0_ns) {
  return static_cast<double>(NowNs() - t0_ns) / 1e6;
}

Params CopyParams(Mlp& mlp) {
  Params params;
  for (auto& layer : mlp.layers()) {
    params.push_back(layer.w);
    params.push_back(layer.b);
  }
  return params;
}

/// Chrome trace keeps the last few traced iterations: enough to read one
/// iteration's layers in Perfetto, small enough to write every run.
constexpr int kTraceIters = 20;

struct RankOut {
  Params prefix_params;
  Params final_params;
  std::int64_t iters{0};
  std::string error;
};

enum class Phase { kSetup, kUntraced, kTraced, kDone };

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kAll = [] {
    std::vector<int> deep{32};
    deep.insert(deep.end(), 16, 64);
    deep.push_back(32);
    return std::vector<Workload>{
        {"deep-dear", deep, 4 * 1024, ScheduleMode::kDeAR},
        {"deep-wfbp", deep, 4 * 1024, ScheduleMode::kWFBP},
        {"wide-dear", {256, 1024, 1024, 256}, 1 << 20, ScheduleMode::kDeAR},
    };
  }();
  return kAll;
}

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : Workloads())
    if (name == w.name) return &w;
  return nullptr;
}

dear::core::DistOptimOptions OptionsFor(const Workload& w) {
  dear::core::DistOptimOptions options;
  options.mode = w.mode;
  options.buffer_bytes = w.buffer_bytes;
  options.algorithm = dear::comm::Algorithm::kRing;
  options.compression = dear::core::Compression::kNone;
  // A failed collective is recorded (and counted as a failed iteration)
  // instead of aborting the process.
  options.elastic = true;
  // No momentum: with it, the deep net's velocity decays into subnormals
  // and its compute slows 3-4x within a few thousand iterations, so cost
  // would depend on how far a run has trained rather than on the runtime.
  options.sgd = {.lr = 0.01f, .momentum = 0.0f};
  return options;
}

Inputs MakeInputs(const Workload& w, std::uint64_t seed) {
  const dear::train::Dataset data = dear::train::MakeRegressionDataset(
      kNumSamples, w.dims.front(), w.dims.back(), seed);
  Inputs in;
  for (int r = 0; r < kWorld; ++r) in.shards.push_back(data.Shard(r, kWorld));
  in.model_seed = seed * 0x9E3779B97F4A7C15ULL + 1;
  in.reference = dear::core::TrainReference(w.dims, in.model_seed, data,
                                            kPrefixIters, kWorld * kBatch,
                                            OptionsFor(w).sgd);
  return in;
}

std::string CheckRanksBitwiseEqual(const std::vector<Params>& per_rank) {
  for (const auto& tensor : per_rank.at(0)) {
    for (float v : tensor)
      if (!std::isfinite(v)) return "rank 0 has a non-finite parameter";
  }
  for (std::size_t r = 1; r < per_rank.size(); ++r) {
    if (per_rank[r].size() != per_rank[0].size())
      return "rank " + std::to_string(r) + " has a different tensor count";
    for (std::size_t t = 0; t < per_rank[0].size(); ++t) {
      const auto& a = per_rank[0][t];
      const auto& b = per_rank[r][t];
      if (a.size() != b.size() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) != 0) {
        return "rank " + std::to_string(r) + " tensor " + std::to_string(t) +
               " differs bitwise from rank 0";
      }
    }
  }
  return "";
}

std::string CheckAgainstReference(const Params& params,
                                  const dear::core::ReferenceResult& ref) {
  if (params.size() != ref.params.size()) return "tensor count differs";
  for (std::size_t t = 0; t < params.size(); ++t) {
    if (params[t].size() != ref.params[t].size())
      return "tensor " + std::to_string(t) + " size differs";
    for (std::size_t i = 0; i < params[t].size(); ++i) {
      // Written so that a NaN fails too.
      if (!(std::fabs(params[t][i] - ref.params[t][i]) <= kReferenceTol)) {
        return "tensor " + std::to_string(t) + " elem " + std::to_string(i) +
               " is " + std::to_string(params[t][i]) + ", reference " +
               std::to_string(ref.params[t][i]);
      }
    }
  }
  return "";
}

SessionResult RunSession(const Workload& w, const Inputs& in,
                         const SessionPlan& plan) {
  SessionResult res;
  const auto options = OptionsFor(w);
  std::vector<RankOut> out(kWorld);
  SpanLog rank1_spans;
  StopAt stop;
  // Rank 0 decides when rank 1 traces, and how many spans it reserves
  // first: the size is stored before `tracing` is set (release/acquire).
  std::atomic<bool> tracing{false};
  std::atomic<std::size_t> reserve_spans{0};
  const int window_begin = kPrefixIters + kWarmupIters;

  const std::int64_t t_setup = NowNs();
  dear::comm::TransportHub hub(kWorld);
  res.hub_ms = MsSince(t_setup);

  auto rank_body = [&](int r) {
    SpanLog& log = r == 0 ? res.spans : rank1_spans;
    RankOut& o = out[static_cast<std::size_t>(r)];
    dear::comm::Communicator comm(&hub, r);
    std::int64_t t = NowNs();
    Mlp mlp(w.dims, in.model_seed);
    if (r == 0) res.model_ms = MsSince(t);
    t = NowNs();
    DistOptim optim(comm, mlp.Spec(), mlp.Bindings(), options);
    if (r == 0) {
      res.optim_ms = MsSince(t);
      for (const auto& g : optim.plan().groups())
        res.group_elems.push_back(g.bytes / sizeof(float));
    }

    const dear::train::Dataset& shard = in.shards[static_cast<std::size_t>(r)];
    std::vector<float> x, y, grad, pred;
    int cursor = 0;
    Phase phase = Phase::kSetup;
    std::int64_t window_t0 = 0;
    std::int64_t misses0 = 0;
    DistOptim::Stats stats0;
    int it = 0;
    const int last_iter = plan.setup_only ? 1 : INT_MAX;
    for (; it < last_iter && !stop.Done(r, it); ++it) {
      const std::int64_t t_iter = NowNs();
      if (r == 0 && it == window_begin) {
        stop.Arm(plan.untraced_s + plan.traced_s);
        window_t0 = t_iter;
        misses0 = hub.pool().stats().misses;
        stats0 = optim.stats();
        phase = Phase::kUntraced;
      }
      if (r == 0 && it > window_begin) {
        const double elapsed = static_cast<double>(t_iter - window_t0) / 1e9;
        if (phase == Phase::kUntraced && elapsed >= plan.untraced_s) {
          res.window_s = elapsed;
          res.pool_misses = hub.pool().stats().misses - misses0;
          const auto& s = optim.stats();
          res.stats.steps = s.steps - stats0.steps;
          res.stats.collectives = s.collectives - stats0.collectives;
          res.stats.step_wait_s = s.step_wait_s - stats0.step_wait_s;
          res.stats.pre_forward_wait_s =
              s.pre_forward_wait_s - stats0.pre_forward_wait_s;
          phase = plan.traced_s > 0 ? Phase::kTraced : Phase::kDone;
          // The traced window is as long as the untraced one; reserving
          // keeps reallocation out of the traced iterations on both ranks.
          // Spans per iteration: the root, six calls, two hooks per layer.
          const std::size_t per_iter =
              7 + 2 * static_cast<std::size_t>(mlp.num_layers());
          const std::size_t n = (res.iter_ms.size() * 5 / 4 + 16) * per_iter;
          log.Reserve(n);
          reserve_spans.store(n, std::memory_order_relaxed);
        } else if (phase == Phase::kTraced &&
                   elapsed >= plan.untraced_s + plan.traced_s) {
          phase = Phase::kDone;
        }
        tracing.store(phase == Phase::kTraced, std::memory_order_release);
      }
      if (r == 0) {
        log.set_enabled(phase == Phase::kTraced);
      } else if (const bool on = tracing.load(std::memory_order_acquire);
                 on != log.enabled()) {
        if (on) log.Reserve(reserve_spans.load(std::memory_order_relaxed));
        log.set_enabled(on);
      }
      log.set_iter(it);

      {
        ScopedSpan iter_span(log, "iter");
        if (cursor + kBatch > shard.num_samples) cursor = 0;
        {
          ScopedSpan s(log, "train.data");
          shard.Batch(cursor, kBatch, &x, &y);
        }
        cursor += kBatch;
        {
          ScopedSpan s(log, "train.zero_grad");
          mlp.ZeroGrad();
        }
        {
          ScopedSpan s(log, "train.forward");
          pred = mlp.Forward(x, kBatch, [&](int l) {
            ScopedSpan h(log, "core.pre_forward");
            optim.PreForward(l);
          });
        }
        {
          ScopedSpan s(log, "train.loss");
          Mlp::MseLoss(pred, y, &grad);
        }
        {
          ScopedSpan s(log, "train.backward");
          mlp.Backward(grad, kBatch, [&](int l) {
            ScopedSpan h(log, "core.on_backward");
            optim.OnBackwardLayer(l);
          });
        }
        {
          ScopedSpan s(log, "core.step");
          optim.Step();
        }
      }
      if (optim.failed()) {
        o.error = "collective failed: " + optim.failure().ToString();
        hub.Shutdown();  // releases the other rank's pending collectives
        break;
      }
      if (r == 0) {
        const double ms = MsSince(t_iter);
        if (it == 0) {
          res.first_iter_ms = ms;
          res.setup_s = static_cast<double>(NowNs() - t_setup) / 1e9;
        }
        if (phase == Phase::kUntraced) res.iter_ms.push_back(ms);
      }
      if (it == kPrefixIters - 1) {
        optim.Synchronize();
        o.prefix_params = CopyParams(mlp);
      }
    }
    o.iters = it;
    if (!optim.failed()) optim.Synchronize();
    if (optim.failed() && o.error.empty())
      o.error = "collective failed: " + optim.failure().ToString();
    if (plan.inject_fault && r == 1) {
      float& v = mlp.layers().front().w.front();
      v = std::nextafter(v, std::numeric_limits<float>::infinity());
    }
    o.final_params = CopyParams(mlp);
  };

  std::vector<std::thread> threads;
  for (int r = 0; r < kWorld; ++r) {
    threads.emplace_back([&, r] {
      try {
        rank_body(r);
      } catch (const std::exception& e) {
        out[static_cast<std::size_t>(r)].error = e.what();
        hub.Shutdown();
      }
    });
  }
  for (auto& t : threads) t.join();

  res.attempted = out[0].iters;
  for (int r = 0; r < kWorld; ++r) {
    const auto& e = out[static_cast<std::size_t>(r)].error;
    if (!e.empty())
      res.errors.push_back("rank " + std::to_string(r) + ": " + e);
  }
  if (res.errors.empty()) {
    std::vector<Params> prefix, final_params;
    for (auto& o : out) {
      prefix.push_back(std::move(o.prefix_params));
      final_params.push_back(std::move(o.final_params));
    }
    std::vector<std::string> checks{CheckRanksBitwiseEqual(final_params)};
    if (!plan.setup_only) {
      checks.push_back(CheckRanksBitwiseEqual(prefix));
      checks.push_back(CheckAgainstReference(prefix[0], in.reference));
    }
    for (const std::string& e : checks)
      if (!e.empty()) res.errors.push_back(e);
  }
  // A failed check or collective taints every iteration of the session:
  // there is no telling which one went wrong first.
  if (!res.errors.empty()) res.failed = res.attempted;

  if (!plan.trace_out.empty() && !res.spans.spans().empty()) {
    dear::TraceRecorder trace;
    AppendToTrace({&res.spans, &rank1_spans},
                  res.spans.spans().back().iter - kTraceIters + 1, &trace);
    if (!trace.WriteFile(plan.trace_out))
      res.errors.push_back("cannot write " + plan.trace_out);
  }
  return res;
}

}  // namespace trainbench
