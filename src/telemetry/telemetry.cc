#include "telemetry/telemetry.h"

namespace dear::telemetry {
namespace {

// Latency buckets: 100 ns .. ~55 s geometric; payload buckets: 64 B .. 4 GB.
std::vector<double> SecondsEdges() {
  return Histogram::ExponentialEdges(1e-7, 2.0, 30);
}
std::vector<double> BytesEdges() {
  return Histogram::ExponentialEdges(64.0, 4.0, 14);
}

}  // namespace

Runtime& Runtime::Get() {
  static Runtime* runtime = new Runtime();  // leaked: outlives all threads
  return *runtime;
}

void Runtime::Enable(int world_size) {
  enabled_.store(false, std::memory_order_relaxed);
  world_size_ = world_size < 0 ? 0 : world_size;
  ranks_.clear();
  transport_.clear();
  for (int r = 0; r < world_size_; ++r) {
    ranks_.push_back(std::make_unique<MetricsRegistry>());
    MetricsRegistry& reg = *ranks_.back();
    transport_.push_back({&reg.GetCounter("comm.messages_sent"),
                          &reg.GetCounter("comm.bytes_sent"),
                          &reg.GetCounter("comm.messages_received"),
                          &reg.GetCounter("comm.bytes_received"),
                          {&reg.GetCounter("comm.wire_bytes.f32"),
                           &reg.GetCounter("comm.wire_bytes.f16"),
                           &reg.GetCounter("comm.wire_bytes.bf16")}});
  }
  global_.Reset();
  pool_ = {&global_.GetCounter("transport.pool.hits"),
           &global_.GetCounter("transport.pool.misses"),
           &global_.GetCounter("transport.pool.releases"),
           &global_.GetCounter("transport.pool.bytes_acquired"),
           &global_.GetGauge("transport.pool.bytes_in_flight")};
  trace_.Clear();
  // Label the trace lanes up front so Perfetto shows "rank N / comm"
  // instead of bare pid/tid numbers (satisfies the process_name /
  // thread_name metadata Chrome's trace format expects).
  for (int r = 0; r < world_size_; ++r) {
    trace_.SetProcessName(r, "rank " + std::to_string(r));
    trace_.SetThreadName(r, kComputeLane, "compute");
    trace_.SetThreadName(r, kCommLane, "comm");
    trace_.SetThreadName(r, kWaitLane, "wait");
    trace_.SetThreadName(r, kGroupLane, "group");
    trace_.SetThreadName(r, kIterationLane, "iteration");
  }
  origin_ = std::chrono::steady_clock::now();
  session_.fetch_add(1, std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_release);
}

void OnMessageSent(int src, std::size_t bytes, int dtype_index) noexcept {
  Runtime& rt = Runtime::Get();
  if (!rt.enabled()) return;
  auto* tc = rt.transport_counters(src);
  if (!tc) return;
  tc->messages_sent->Add(1);
  tc->bytes_sent->Add(static_cast<std::int64_t>(bytes));
  if (dtype_index < 0 || dtype_index >= 3) dtype_index = 0;
  tc->wire_bytes_by_dtype[dtype_index]->Add(static_cast<std::int64_t>(bytes));
}

void OnMessageReceived(int dst, std::size_t bytes) noexcept {
  Runtime& rt = Runtime::Get();
  if (!rt.enabled()) return;
  auto* tc = rt.transport_counters(dst);
  if (!tc) return;
  tc->messages_received->Add(1);
  tc->bytes_received->Add(static_cast<std::int64_t>(bytes));
}

void OnPoolAcquire(bool hit, std::size_t bytes,
                   std::int64_t in_flight_bytes) noexcept {
  Runtime& rt = Runtime::Get();
  if (!rt.enabled()) return;
  Runtime::PoolCounters* pc = rt.pool_counters();
  (hit ? pc->hits : pc->misses)->Add(1);
  pc->bytes_acquired->Add(static_cast<std::int64_t>(bytes));
  pc->bytes_in_flight->Set(static_cast<double>(in_flight_bytes));
}

void OnPoolRelease(std::int64_t in_flight_bytes) noexcept {
  Runtime& rt = Runtime::Get();
  if (!rt.enabled()) return;
  Runtime::PoolCounters* pc = rt.pool_counters();
  pc->releases->Add(1);
  pc->bytes_in_flight->Set(static_cast<double>(in_flight_bytes));
}

// Per-thread cache of resolved per-(rank, kind) metric pointers: each comm
// thread serves one rank and a handful of collective kinds, so this keeps
// the per-collective cost to pointer compares instead of string-keyed map
// lookups. `kind` is compared by address (call sites pass literals); the
// session id invalidates entries when Enable() rebuilds the registries.
struct KindCacheEntry {
  std::uint64_t session{0};
  int rank{-1};
  const char* kind{nullptr};
  Counter* calls{nullptr};
  HistogramMetric* seconds{nullptr};
  HistogramMetric* bytes{nullptr};
};
thread_local std::vector<KindCacheEntry> g_kind_cache;
thread_local std::uint64_t g_kind_cache_session = 0;

void OnCollective(int rank, const char* kind, std::size_t elems,
                  SimTime start_ns, SimTime end_ns) {
  Runtime& rt = Runtime::Get();
  if (!rt.enabled()) return;
  MetricsRegistry* reg = rt.rank_metrics(rank);
  if (reg) {
    const std::uint64_t session = rt.session_id();
    if (g_kind_cache_session != session) {
      g_kind_cache.clear();
      g_kind_cache_session = session;
    }
    KindCacheEntry* entry = nullptr;
    for (auto& e : g_kind_cache) {
      if (e.rank == rank && e.kind == kind) {
        entry = &e;
        break;
      }
    }
    if (entry == nullptr) {
      const std::string base = std::string("comm.") + kind;
      g_kind_cache.push_back(
          {session, rank, kind, &reg->GetCounter(base + ".calls"),
           &reg->GetHistogram(base + ".seconds", SecondsEdges()),
           &reg->GetHistogram(base + ".bytes", BytesEdges())});
      entry = &g_kind_cache.back();
    }
    entry->calls->Add(1);
    entry->seconds->Observe(static_cast<double>(end_ns - start_ns) * 1e-9);
    entry->bytes->Observe(static_cast<double>(elems) * 4.0);
  }
  TraceEvent event;
  event.name = kind;
  event.category = "comm";
  event.pid = rank;
  event.tid = kCommLane;
  event.start = start_ns;
  event.duration = end_ns - start_ns;
  rt.trace().Record(std::move(event));
}

ScopedSpan::ScopedSpan(int rank, std::int64_t lane, const char* name,
                       const char* category) noexcept
    : active_(Runtime::Get().enabled()),
      rank_(rank),
      lane_(lane),
      name_(name),
      category_(category) {
  if (active_) start_ = Runtime::Get().NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  Runtime& rt = Runtime::Get();
  TraceEvent event;
  event.name = name_;
  event.category = category_;
  event.pid = rank_;
  event.tid = lane_;
  event.start = start_;
  event.duration = rt.NowNs() - start_;
  rt.trace().Record(std::move(event));
}

}  // namespace dear::telemetry
