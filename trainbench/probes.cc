#include "probes.h"

#include <algorithm>
#include <array>
#include <thread>

#include "comm/async.h"
#include "comm/kernels.h"
#include "comm/transport.h"
#include "common/channel.h"
#include "common/rng.h"
#include "flightrec/recorder.h"
#include "lockstep.h"
#include "percentile.h"
#include "session.h"

namespace trainbench {
namespace {

using dear::comm::CollectiveHandle;
using dear::comm::CommEngine;
using dear::comm::Communicator;
using dear::comm::ReduceOp;
using dear::comm::TransportHub;

using Errors = std::array<std::string, kWorld>;  // one slot per rank thread

double UsSince(std::int64_t t0_ns) {
  return static_cast<double>(NowNs() - t0_ns) / 1e3;
}

double P50(const std::vector<double>& v) { return PercentileOf(v, 50).value; }

std::vector<float> Filled(std::size_t n, dear::Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
  return v;
}

/// Runs body(rank) on kWorld threads and joins them.
template <class Body>
void OnRanks(const Body& body) {
  std::vector<std::thread> threads;
  for (int r = 0; r < kWorld; ++r)
    threads.emplace_back([&body, r] { body(r); });
  for (auto& t : threads) t.join();
}

void Note(const dear::Status& st, std::string* error) {
  if (!st.ok() && error->empty()) *error = st.ToString();
}

/// Persistent engines: the replayed iteration, then single RS / AG / AR of
/// the median group. Timings are rank 0's.
void EngineProbes(const std::vector<std::size_t>& elems, std::size_t median,
                  bool decoupled, double replay_s, double single_s,
                  std::uint64_t seed, ProbeResult* res) {
  TransportHub hub(kWorld);
  StopAt replay_stop, single_stop;
  Errors errors;
  std::vector<double> replay, submit, rs, ag, ar;

  OnRanks([&](int r) {
    std::string* error = &errors[static_cast<std::size_t>(r)];
    CommEngine engine(Communicator(&hub, r));
    dear::Rng rng(seed + static_cast<std::uint64_t>(r));
    std::vector<std::vector<float>> bufs;
    for (std::size_t n : elems) bufs.push_back(Filled(n, rng));
    std::vector<CollectiveHandle> handles(elems.size());
    const int groups = static_cast<int>(elems.size());
    auto timed_submit = [&](auto submit_fn) {
      const std::int64_t t = NowNs();
      CollectiveHandle h = submit_fn();
      if (r == 0) submit.push_back(UsSince(t));
      return h;
    };
    auto wait_all = [&] {
      for (const auto& h : handles) Note(h.Wait(), error);
    };

    if (r == 0) replay_stop.Arm(replay_s);
    for (int it = 0; !replay_stop.Done(r, it); ++it) {
      const std::int64_t t0 = NowNs();
      for (int g = groups - 1; g >= 0; --g) {
        std::span<float> buf(bufs[static_cast<std::size_t>(g)]);
        handles[static_cast<std::size_t>(g)] = timed_submit([&] {
          return decoupled ? engine.SubmitReduceScatter(buf, ReduceOp::kAvg)
                           : engine.SubmitAllReduce(buf, ReduceOp::kAvg);
        });
      }
      wait_all();
      if (decoupled) {
        for (int g = 0; g < groups; ++g) {
          std::span<float> buf(bufs[static_cast<std::size_t>(g)]);
          handles[static_cast<std::size_t>(g)] =
              timed_submit([&] { return engine.SubmitAllGather(buf); });
        }
        wait_all();
      }
      if (r == 0) replay.push_back(UsSince(t0));
    }

    std::vector<float> one = Filled(median, rng);
    if (r == 0) single_stop.Arm(single_s);
    for (int it = 0; !single_stop.Done(r, it); ++it) {
      std::int64_t t = NowNs();
      Note(engine.SubmitReduceScatter(one, ReduceOp::kAvg).Wait(), error);
      if (r == 0) rs.push_back(UsSince(t));
      t = NowNs();
      Note(engine.SubmitAllGather(one).Wait(), error);
      if (r == 0) ag.push_back(UsSince(t));
      t = NowNs();
      Note(engine.SubmitAllReduce(one, ReduceOp::kAvg).Wait(), error);
      if (r == 0) ar.push_back(UsSince(t));
    }
  });
  for (const auto& e : errors)
    if (!e.empty()) res->errors.push_back("engine probe: " + e);
  res->replay_iter_us = P50(replay);
  res->submit_us = P50(submit);
  res->rs_us = P50(rs);
  res->ag_us = P50(ag);
  res->ar_us = P50(ar);
}

/// TransportHub ping-pong of one chunk; a hop is half a round trip.
void HopProbe(std::size_t chunk, double seconds, ProbeResult* res) {
  constexpr std::uint32_t kTag = 1;
  TransportHub hub(kWorld);
  StopAt stop;
  Errors errors;
  std::vector<double> rtt;
  const std::vector<float> data(chunk, 0.5f);
  OnRanks([&](int r) {
    std::string* error = &errors[static_cast<std::size_t>(r)];
    if (r == 0) stop.Arm(seconds);
    for (int it = 0; !stop.Done(r, it); ++it) {
      const std::int64_t t = NowNs();
      if (r == 0) {
        hub.Send(0, 1, kTag, data);
        Note(hub.Recv(1, 0, kTag).status(), error);
        rtt.push_back(UsSince(t));
      } else {
        Note(hub.Recv(0, 1, kTag).status(), error);
        hub.Send(1, 0, kTag, data);
      }
    }
  });
  for (const auto& e : errors)
    if (!e.empty()) res->errors.push_back("transport probe: " + e);
  res->hop_us = P50(rtt) / 2;
}

void ChannelProbe(double seconds, ProbeResult* res) {
  dear::Channel<int> ping, pong;
  std::thread echo([&] {
    while (auto v = ping.Recv()) pong.Send(*v);
  });
  std::vector<double> rtt;
  const std::int64_t deadline =
      NowNs() + static_cast<std::int64_t>(seconds * 1e9);
  for (int i = 0; NowNs() < deadline; ++i) {
    const std::int64_t t = NowNs();
    ping.Send(i);
    if (!pong.Recv()) {
      res->errors.push_back("channel probe: pong closed");
      break;
    }
    rtt.push_back(UsSince(t));
  }
  ping.Close();
  echo.join();
  res->channel_rtt_us = P50(rtt);
}

void ReduceProbe(std::size_t n, double seconds, std::uint64_t seed,
                 ProbeResult* res) {
  dear::Rng rng(seed);
  std::vector<float> acc = Filled(n, rng);
  const std::vector<float> in = Filled(n, rng);
  // Small chunks are timed in batches so clock reads stay negligible.
  const std::size_t calls = std::max<std::size_t>(1, (1u << 18) / n);
  std::vector<double> ns;
  const std::int64_t deadline =
      NowNs() + static_cast<std::int64_t>(seconds * 1e9);
  while (NowNs() < deadline) {
    const std::int64_t t = NowNs();
    for (std::size_t i = 0; i < calls; ++i)
      dear::comm::kernels::ReduceInto(ReduceOp::kSum, acc, in);
    ns.push_back(static_cast<double>(NowNs() - t) / static_cast<double>(calls));
  }
  // Two loads and one store of 4 bytes per element; bytes/ns == GB/s.
  res->reduce_gbps = 12.0 * static_cast<double>(n) / P50(ns);
}

void OnSendProbe(std::size_t bytes, double seconds, ProbeResult* res) {
  constexpr int kBatch = 256;
  auto& recorder = dear::flightrec::Recorder::Get();
  recorder.EnsureRanks(kWorld);
  std::uint64_t causal = 0;
  std::uint32_t lamport = 0;
  std::vector<double> per_call_ns;
  const std::int64_t deadline =
      NowNs() + static_cast<std::int64_t>(seconds * 1e9);
  while (NowNs() < deadline) {
    const std::int64_t t = NowNs();
    for (int i = 0; i < kBatch; ++i)
      recorder.OnSend(0, 1, 1, bytes, &causal, &lamport);
    per_call_ns.push_back(static_cast<double>(NowNs() - t) / kBatch);
  }
  res->on_send_ns = P50(per_call_ns);
}

}  // namespace

ProbeResult RunProbes(const std::vector<std::size_t>& group_elems,
                      dear::core::ScheduleMode mode, double seconds,
                      std::uint64_t seed) {
  ProbeResult res;
  std::vector<std::size_t> sorted = group_elems;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t median = sorted[sorted.size() / 2];
  const std::size_t median_chunk = (median + kWorld - 1) / kWorld;
  const std::size_t largest_chunk = (sorted.back() + kWorld - 1) / kWorld;
  const bool decoupled = mode == dear::core::ScheduleMode::kDeAR;

  EngineProbes(group_elems, median, decoupled, 0.35 * seconds, 0.25 * seconds,
               seed, &res);
  HopProbe(median_chunk, 0.15 * seconds, &res);
  ChannelProbe(0.10 * seconds, &res);
  ReduceProbe(largest_chunk, 0.10 * seconds, seed, &res);
  OnSendProbe(median_chunk * sizeof(float), 0.05 * seconds, &res);
  return res;
}

}  // namespace trainbench
