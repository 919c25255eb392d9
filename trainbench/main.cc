// Steady-state training benchmark of the threaded DeAR runtime.
//
//   trainbench --workload deep-dear|deep-wfbp|wide-dear --seed N
//              --seconds S --trace 0|1 [--trace-out FILE] [--inject-fault]
//
// --trace 0 measures the end-to-end metrics with spans off; --trace 1
// measures the per-layer metrics (spans on, plus comm probes). Both check
// the training outputs and print one JSON result as the last stdout line;
// the exit code is 0 only when every check passed. See README.md.
#include <sys/resource.h>

#include <charconv>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "percentile.h"
#include "probes.h"
#include "session.h"

namespace trainbench {
namespace {

/// Training sessions per run. Each starts fresh threads, so luck in thread
/// placement and bursts of host CPU steal average out over a run.
constexpr int kSessions = 25;
/// Share of --seconds spent in set-up-only sessions, run in between the
/// training sessions. One set-up takes 2-25 ms, so a run times 100 or
/// more of them, spread over the run, and setup_s is their median.
constexpr double kSetupShare = 0.1;
/// Share of --seconds the traced run spends in training windows (half
/// untraced, half traced); what set-up leaves goes to the comm probes.
constexpr double kTracedTrainShare = 0.5;

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10};
  int trace{0};
  std::string trace_out;
  bool inject_fault{false};
};

int Usage(const std::string& why) {
  std::fprintf(stderr,
               "trainbench: %s\nusage: trainbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE] [--inject-fault]\n"
               "workloads:",
               why.c_str());
  for (const Workload& w : Workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

template <class T>
bool ParseNumber(std::string_view s, T* out) {
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && end == s.data() + s.size();
}

bool ParseArgs(int argc, char** argv, Args* a, std::string* why) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--inject-fault") {
      a->inject_fault = true;
      continue;
    }
    if (i + 1 >= argc) {
      *why = "missing value for " + flag;
      return false;
    }
    const std::string_view value = argv[++i];
    bool ok = true;
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--trace-out") {
      a->trace_out = value;
    } else if (flag == "--seed") {
      ok = ParseNumber(value, &a->seed);
    } else if (flag == "--seconds") {
      ok = ParseNumber(value, &a->seconds) && a->seconds > 0 &&
           a->seconds <= 600;
    } else if (flag == "--trace") {
      ok = ParseNumber(value, &a->trace) && (a->trace == 0 || a->trace == 1);
    } else {
      *why = "unknown flag " + flag;
      return false;
    }
    if (!ok) {
      *why = "bad value for " + flag + ": " + std::string(value);
      return false;
    }
  }
  if (a->workload.empty()) *why = "--workload is required";
  return why->empty();
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
  std::string note;  // sample counts, printed with the human-readable line
};

double Median(const std::vector<double>& v) {
  return PercentileOf(v, 50).value;
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string Count(std::size_t n) { return "n=" + std::to_string(n); }

/// Everything the sessions of one run measured, pooled.
struct Totals {
  std::int64_t attempted{0}, failed{0};
  std::vector<std::string> errors;
  std::vector<double> iter_ms;        // untraced iterations
  std::vector<double> samples_per_s;  // one per session
  std::vector<double> setup_s, hub_ms, model_ms, optim_ms, first_iter_ms;
  double window_s{0}, blocked_s{0};
  std::int64_t steps{0}, collectives{0}, pool_misses{0};
  std::vector<double> traced_iter_us;
  std::int64_t traced_ns{0};
  std::map<std::string, std::int64_t> self_ns;  // per span name
  double peak_rss_mib{0};
};

void Pool(const SessionResult& r, Totals* t) {
  t->attempted += r.attempted;
  t->failed += r.failed;
  t->errors.insert(t->errors.end(), r.errors.begin(), r.errors.end());
  t->iter_ms.insert(t->iter_ms.end(), r.iter_ms.begin(), r.iter_ms.end());
  if (r.window_s > 0) {
    t->samples_per_s.push_back(kWorld * kBatch *
                               static_cast<double>(r.iter_ms.size()) /
                               r.window_s);
  }
  t->setup_s.push_back(r.setup_s);
  t->hub_ms.push_back(r.hub_ms);
  t->model_ms.push_back(r.model_ms);
  t->optim_ms.push_back(r.optim_ms);
  t->first_iter_ms.push_back(r.first_iter_ms);
  t->window_s += r.window_s;
  t->blocked_s += r.stats.step_wait_s + r.stats.pre_forward_wait_s;
  t->steps += r.stats.steps;
  t->collectives += r.stats.collectives;
  t->pool_misses += r.pool_misses;
  for (const auto& [name, ns] : SelfTotalsNs(r.spans.spans()))
    t->self_ns[name] += ns;
  for (const Span& s : r.spans.spans()) {
    if (s.parent >= 0) continue;  // roots are the "iter" spans
    t->traced_ns += s.end_ns - s.start_ns;
    t->traced_iter_us.push_back(static_cast<double>(s.end_ns - s.start_ns) /
                                1e3);
  }
}

std::vector<Metric> EndToEnd(const Totals& t) {
  const PercentileResult p50 = PercentileOf(t.iter_ms, 50);
  return {
      {"iter_ms_p50", p50.value, "ms", Count(p50.count)},
      {"setup_s", Median(t.setup_s), "s",
       Count(t.setup_s.size()) + " sessions"},
      {"peak_rss_mib", t.peak_rss_mib, "MiB", "first session"},
      {"ok_frac",
       1.0 - static_cast<double>(t.failed) / static_cast<double>(t.attempted),
       "ratio",
       std::to_string(t.failed) + " failed of " +
           std::to_string(t.attempted)},
  };
}

std::vector<Metric> PerLayer(Totals& t, const std::vector<std::size_t>& groups,
                             const ProbeResult& probes) {
  const std::size_t traced = t.traced_iter_us.size();
  if (traced == 0) {
    t.errors.push_back("no traced iteration");
    return {};
  }
  std::int64_t accounted_ns = 0;
  for (const auto& [name, ns] : t.self_ns) accounted_ns += ns;
  // The layers' self times and iter.other_us partition the iterations.
  if (accounted_ns != t.traced_ns)
    t.errors.push_back("span self times do not add up to the iterations");
  auto per_iter_us = [&](const std::string& name) {
    return static_cast<double>(t.self_ns[name]) / 1e3 /
           static_cast<double>(traced);
  };
  const std::string tn = Count(traced) + " traced iterations";

  std::vector<Metric> m;
  for (const char* layer :
       {"train.data", "train.zero_grad", "train.forward", "train.loss",
        "train.backward", "core.pre_forward", "core.on_backward",
        "core.step"}) {
    m.push_back({std::string(layer) + "_us", per_iter_us(layer), "us", tn});
  }
  m.push_back({"core.blocked_frac", t.blocked_s / t.window_s, "ratio",
               "untraced window"});
  m.push_back({"core.collectives_per_iter",
               static_cast<double>(t.collectives) /
                   static_cast<double>(t.steps),
               "count", Count(static_cast<std::size_t>(t.steps))});
  m.push_back({"comm.replay.iter_us", probes.replay_iter_us, "us",
               std::to_string(groups.size()) + " groups"});
  m.push_back({"comm.engine.submit_us", probes.submit_us, "us", ""});
  m.push_back({"comm.engine.rs_us", probes.rs_us, "us", "median group"});
  m.push_back({"comm.engine.ag_us", probes.ag_us, "us", "median group"});
  m.push_back({"comm.engine.ar_us", probes.ar_us, "us", "median group"});
  m.push_back({"comm.transport.hop_us", probes.hop_us, "us", "median chunk"});
  m.push_back({"comm.kernels.reduce_gbps", probes.reduce_gbps, "GB/s",
               "largest chunk"});
  m.push_back({"comm.pool.miss_per_iter",
               static_cast<double>(t.pool_misses) /
                   static_cast<double>(t.iter_ms.size()),
               "count", std::to_string(t.pool_misses) + " misses"});
  std::size_t elems = 0;
  for (std::size_t n : groups) elems += n;
  // Ring RS + AG and ring AR both put 2 (P-1) copies of every element on
  // the wire, summed over all ranks: exact, from the plan.
  m.push_back({"comm.wire_mib_per_iter",
               2.0 * (kWorld - 1) * static_cast<double>(elems) *
                   sizeof(float) / (1 << 20),
               "MiB", "all ranks"});
  m.push_back({"common.channel.rtt_us", probes.channel_rtt_us, "us", ""});
  m.push_back({"flightrec.on_send_ns", probes.on_send_ns, "ns", ""});
  m.push_back({"setup.hub_ms", Median(t.hub_ms), "ms", ""});
  m.push_back({"setup.model_ms", Median(t.model_ms), "ms", ""});
  m.push_back({"setup.optim_ms", Median(t.optim_ms), "ms", ""});
  m.push_back({"setup.first_iter_ms", Median(t.first_iter_ms), "ms", ""});
  m.push_back({"iter.traced_us",
               static_cast<double>(t.traced_ns) / 1e3 /
                   static_cast<double>(traced),
               "us", tn});
  m.push_back({"iter.other_us", per_iter_us("iter"), "us", tn});
  // Throughput is world x batch / mean iteration, so a host that freezes
  // a vCPU for a few ms moves it far more than the median: like the p99,
  // it is reported here, ungated.
  m.push_back({"samples_per_s", Median(t.samples_per_s), "1/s",
               Count(t.samples_per_s.size()) + " sessions, untraced"});
  const PercentileResult p99 = PercentileOf(t.iter_ms, 99);
  m.push_back({"iter.p99_ms", p99.value, "ms",
               Count(p99.count) + ", " + std::to_string(p99.beyond) +
                   " beyond"});
  m.push_back({"iter.samples", static_cast<double>(t.iter_ms.size()), "count",
               "untraced window"});
  m.push_back({"trace.overhead_frac",
               Median(t.traced_iter_us) / 1e3 / Median(t.iter_ms) - 1.0,
               "ratio", "traced p50 vs untraced p50"});
  return m;
}

int Run(const Args& args) {
  const Workload* w = FindWorkload(args.workload);
  if (w == nullptr) return Usage("unknown workload " + args.workload);

  const Inputs inputs = MakeInputs(*w, args.seed);
  const double setup_budget_s = kSetupShare * args.seconds;
  const double train_s = args.trace ? kTracedTrainShare * args.seconds
                                    : args.seconds - setup_budget_s;
  SessionPlan plan;
  plan.untraced_s = (args.trace ? train_s / 2 : train_s) / kSessions;
  plan.traced_s = args.trace ? train_s / 2 / kSessions : 0.0;
  SessionPlan setup_plan;
  setup_plan.setup_only = true;
  const auto setup_slot_ns =
      static_cast<std::int64_t>(setup_budget_s / kSessions * 1e9);

  Totals totals;
  std::vector<std::size_t> groups;
  for (int s = 0; s < kSessions; ++s) {
    const bool last = s + 1 == kSessions;
    plan.inject_fault = args.inject_fault && last;
    plan.trace_out = last ? args.trace_out : "";
    const SessionResult r = RunSession(*w, inputs, plan);
    Pool(r, &totals);
    if (s == 0) {
      groups = r.group_elems;
      // The peak of one job: later sessions run on fresh threads whose
      // allocator arenas add RSS that one training job never holds.
      totals.peak_rss_mib = PeakRssMib();
    }
    const std::int64_t slot_end = NowNs() + setup_slot_ns;
    do {
      Pool(RunSession(*w, inputs, setup_plan), &totals);
    } while (NowNs() < slot_end);
  }
  if (totals.iter_ms.empty() || totals.window_s <= 0)
    totals.errors.push_back("no iteration landed in the measured window");

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics = EndToEnd(totals);
  } else {
    const ProbeResult probes =
        RunProbes(groups, w->mode, args.seconds - train_s - setup_budget_s,
                  args.seed);
    totals.errors.insert(totals.errors.end(), probes.errors.begin(),
                         probes.errors.end());
    metrics = PerLayer(totals, groups, probes);
  }

  for (const std::string& e : totals.errors)
    std::printf("ERROR %s\n", e.c_str());
  for (const Metric& m : metrics) {
    std::printf("%-28s %14.6g %-6s %s\n", m.name.c_str(), m.value, m.unit,
                m.note.c_str());
  }
  const bool correct = totals.errors.empty() && totals.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<long long>(totals.attempted),
              static_cast<long long>(totals.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace trainbench

int main(int argc, char** argv) {
  trainbench::Args args;
  std::string why;
  if (!trainbench::ParseArgs(argc, argv, &args, &why))
    return trainbench::Usage(why);
  return trainbench::Run(args);
}
