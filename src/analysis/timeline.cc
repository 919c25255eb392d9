#include "analysis/timeline.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <limits>
#include <map>
#include <string_view>
#include <utility>

#include "common/logging.h"

namespace dear::analysis {

std::vector<Interval> BusyIntervals(const sim::TaskGraph& graph,
                                    const sim::SimResult& result,
                                    std::int16_t stream) {
  DEAR_CHECK(result.timings.size() == graph.size());
  std::vector<Interval> raw;
  for (std::size_t i = 0; i < graph.size(); ++i) {
    const auto& task = graph.task(static_cast<sim::TaskId>(i));
    const auto& timing = result.timings[i];
    if (task.stream != stream || !timing.executed ||
        timing.end == timing.start)
      continue;
    raw.push_back({timing.start, timing.end});
  }
  std::sort(raw.begin(), raw.end(), [](const Interval& a, const Interval& b) {
    return a.begin < b.begin;
  });
  std::vector<Interval> merged;
  for (const Interval& iv : raw) {
    if (!merged.empty() && iv.begin <= merged.back().end)
      merged.back().end = std::max(merged.back().end, iv.end);
    else
      merged.push_back(iv);
  }
  return merged;
}

std::vector<Interval> MergedIntervals(const std::vector<TraceEvent>& events,
                                      std::int64_t pid, std::int64_t tid) {
  std::vector<Interval> raw;
  for (const TraceEvent& ev : events) {
    if (ev.pid != pid || ev.tid != tid || ev.duration <= 0) continue;
    raw.push_back({ev.start, ev.start + ev.duration});
  }
  std::sort(raw.begin(), raw.end(), [](const Interval& a, const Interval& b) {
    return a.begin < b.begin;
  });
  std::vector<Interval> merged;
  for (const Interval& iv : raw) {
    if (!merged.empty() && iv.begin <= merged.back().end)
      merged.back().end = std::max(merged.back().end, iv.end);
    else
      merged.push_back(iv);
  }
  return merged;
}

SimTime SubtractCover(const std::vector<Interval>& a,
                      const std::vector<Interval>& b) {
  SimTime exposed = 0;
  std::size_t j = 0;
  for (const Interval& iv : a) {
    SimTime cursor = iv.begin;
    while (cursor < iv.end) {
      // Advance past cover intervals that end before the cursor.
      while (j < b.size() && b[j].end <= cursor) ++j;
      if (j >= b.size() || b[j].begin >= iv.end) {
        exposed += iv.end - cursor;  // no cover left in this interval
        break;
      }
      if (b[j].begin > cursor) {
        exposed += b[j].begin - cursor;  // uncovered gap before the cover
      }
      cursor = std::max(cursor, b[j].end);
    }
  }
  return exposed;
}

TimelineAnalysis Analyze(const sim::TaskGraph& graph,
                         const sim::SimResult& result) {
  DEAR_CHECK(result.timings.size() == graph.size());
  TimelineAnalysis out;
  out.makespan = result.makespan;

  // Per-stream busy time.
  std::map<std::int16_t, SimTime> busy;
  for (std::size_t i = 0; i < graph.size(); ++i) {
    const auto& task = graph.task(static_cast<sim::TaskId>(i));
    busy[task.stream] += task.duration;
  }
  for (const auto& [stream, time] : busy) {
    StreamUtilization u;
    u.stream = stream;
    u.busy = time;
    u.fraction_of_makespan =
        out.makespan > 0
            ? static_cast<double>(time) / static_cast<double>(out.makespan)
            : 0.0;
    out.streams.push_back(u);
  }

  // Critical path: longest dependency chain by duration. Tasks are stored
  // in a valid construction order only if dependencies point backwards;
  // handle the general case by ascending finish time, which is a valid
  // topological order of any executed schedule.
  std::vector<std::size_t> order(graph.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return result.timings[a].end < result.timings[b].end;
  });
  std::vector<SimTime> chain(graph.size(), 0);
  std::vector<sim::TaskId> via(graph.size(), sim::kInvalidTask);
  sim::TaskId best = sim::kInvalidTask;
  for (std::size_t idx : order) {
    const auto& task = graph.task(static_cast<sim::TaskId>(idx));
    SimTime longest = 0;
    for (sim::TaskId dep : task.deps) {
      if (chain[static_cast<std::size_t>(dep)] > longest) {
        longest = chain[static_cast<std::size_t>(dep)];
        via[idx] = dep;
      }
    }
    chain[idx] = longest + task.duration;
    if (best == sim::kInvalidTask ||
        chain[idx] > chain[static_cast<std::size_t>(best)])
      best = static_cast<sim::TaskId>(idx);
  }
  if (best != sim::kInvalidTask) {
    out.critical_path = chain[static_cast<std::size_t>(best)];
    for (sim::TaskId t = best; t != sim::kInvalidTask;
         t = via[static_cast<std::size_t>(t)])
      out.critical_tasks.push_back(t);
    std::reverse(out.critical_tasks.begin(), out.critical_tasks.end());
  }
  return out;
}

namespace {

char KindChar(sim::TaskKind kind) {
  switch (kind) {
    case sim::TaskKind::kForward: return 'F';
    case sim::TaskKind::kBackward: return 'B';
    case sim::TaskKind::kAllReduce: return 'A';
    case sim::TaskKind::kReduceScatter: return 'R';
    case sim::TaskKind::kAllGather: return 'G';
    case sim::TaskKind::kSync: return 's';
    case sim::TaskKind::kOther: return 'o';
  }
  return '?';
}

}  // namespace

std::string RenderAsciiGantt(const sim::TaskGraph& graph,
                             const sim::SimResult& result, int width) {
  DEAR_CHECK(width > 0 && result.timings.size() == graph.size());
  std::int16_t max_stream = 0;
  for (const auto& task : graph.tasks())
    max_stream = std::max(max_stream, task.stream);
  if (result.makespan <= 0) return "(empty timeline)\n";

  std::string out;
  for (std::int16_t s = 0; s <= max_stream; ++s) {
    // Per bucket, show the kind that occupies the most time.
    std::vector<std::map<char, SimTime>> buckets(
        static_cast<std::size_t>(width));
    for (std::size_t i = 0; i < graph.size(); ++i) {
      const auto& task = graph.task(static_cast<sim::TaskId>(i));
      const auto& timing = result.timings[i];
      if (task.stream != s || !timing.executed || timing.end == timing.start)
        continue;
      const auto lo = static_cast<int>(timing.start * width /
                                       result.makespan);
      auto hi =
          static_cast<int>((timing.end * width + result.makespan - 1) /
                           result.makespan);
      hi = std::min(hi, width);
      for (int b = lo; b < hi; ++b) {
        const SimTime bucket_begin = result.makespan * b / width;
        const SimTime bucket_end = result.makespan * (b + 1) / width;
        const SimTime overlap = std::min(timing.end, bucket_end) -
                                std::max(timing.start, bucket_begin);
        if (overlap > 0)
          buckets[static_cast<std::size_t>(b)][KindChar(task.kind)] +=
              overlap;
      }
    }
    out += "stream " + std::to_string(s) + " |";
    for (const auto& bucket : buckets) {
      char c = '.';
      SimTime most = 0;
      for (const auto& [kind, time] : bucket) {
        if (time > most) {
          most = time;
          c = kind;
        }
      }
      out += c;
    }
    out += "|\n";
  }
  return out;
}

// ---- Cross-rank critical-path attribution --------------------------------

namespace {

double NsToMs(SimTime ns) { return static_cast<double>(ns) * 1e-6; }

/// Parses "<kind>.g<N>"; the "wait." prefix, if present, must already be
/// stripped. Returns false for names outside the attribution convention.
bool ParseGroupName(std::string_view name, std::string* kind, int* group) {
  const auto pos = name.rfind(".g");
  if (pos == std::string_view::npos || pos + 2 >= name.size()) return false;
  int g = 0;
  for (std::size_t i = pos + 2; i < name.size(); ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    g = g * 10 + (c - '0');
  }
  *kind = std::string(name.substr(0, pos));
  *group = g;
  return true;
}

struct WaitSpan {
  SimTime begin{0};
  SimTime end{0};
  std::string kind;
  int group{0};
  /// n-th completed collective of (kind, group) on this rank — the index
  /// that matches this wait with the same logical collective on peers.
  std::size_t occurrence{0};
};

/// printf-append; all report rows fit well under the buffer.
void AppendF(std::string* out, const char* fmt, ...) {
  char buf[256];
  std::va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  *out += buf;
}

}  // namespace

AttributionReport AttributeIterations(const std::vector<TraceEvent>& events,
                                      int world, double tolerance) {
  DEAR_CHECK(world > 0);
  AttributionReport report;
  report.world = world;
  report.tolerance = tolerance;

  // Split the trace per rank. Each rank's compute thread records its
  // iteration / wait / group events sequentially, so encounter order is
  // that rank's program order — which is what occurrence matching needs.
  using OpKey = std::pair<std::string, int>;  // (kind, group)
  std::vector<std::vector<Interval>> windows(static_cast<std::size_t>(world));
  std::vector<std::vector<WaitSpan>> waits(static_cast<std::size_t>(world));
  std::vector<std::map<OpKey, std::vector<SimTime>>> launches(
      static_cast<std::size_t>(world));
  std::vector<std::map<OpKey, std::size_t>> wait_seen(
      static_cast<std::size_t>(world));
  for (const TraceEvent& ev : events) {
    if (ev.pid < 0 || ev.pid >= world) continue;
    const auto r = static_cast<std::size_t>(ev.pid);
    if (ev.category == "iteration") {
      windows[r].push_back({ev.start, ev.start + ev.duration});
    } else if (ev.category == "wait") {
      std::string_view name = ev.name;
      if (name.size() <= 5 || name.substr(0, 5) != "wait.") continue;
      WaitSpan span;
      if (!ParseGroupName(name.substr(5), &span.kind, &span.group)) continue;
      span.begin = ev.start;
      span.end = ev.start + ev.duration;
      span.occurrence = wait_seen[r][{span.kind, span.group}]++;
      waits[r].push_back(std::move(span));
    } else if (ev.category == "group") {
      std::string kind;
      int group = 0;
      if (!ParseGroupName(ev.name, &kind, &group)) continue;
      launches[r][{std::move(kind), group}].push_back(ev.start);
    }
  }

  // Cross-rank launch table: for the j-th collective of (kind, group),
  // the latest launch across ranks and who launched it. All ranks run the
  // same schedule, so occurrence j names the same logical collective
  // everywhere.
  std::map<OpKey, std::vector<std::pair<SimTime, int>>> latest_launch;
  for (int r = 0; r < world; ++r) {
    for (const auto& [key, times] : launches[static_cast<std::size_t>(r)]) {
      auto& slot = latest_launch[key];
      if (slot.size() < times.size())
        slot.resize(times.size(),
                    {std::numeric_limits<SimTime>::min(), -1});
      for (std::size_t j = 0; j < times.size(); ++j) {
        if (times[j] > slot[j].first) slot[j] = {times[j], r};
      }
    }
  }

  // Attribute only the iteration prefix every rank observed, so per-rank
  // rows are comparable.
  std::size_t iters = std::numeric_limits<std::size_t>::max();
  for (const auto& w : windows) iters = std::min(iters, w.size());
  if (iters == std::numeric_limits<std::size_t>::max() || iters == 0) {
    report.iterations = 0;
    for (int r = 0; r < world; ++r) report.ranks.emplace_back().rank = r;
    return report;
  }
  report.iterations = static_cast<int>(iters);

  std::vector<double> caused(static_cast<std::size_t>(world), 0.0);
  report.ranks.resize(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    RankAttribution& rank = report.ranks[ri];
    rank.rank = r;
    rank.iterations = report.iterations;
    std::map<int, GroupAttribution> groups;
    // Sum of individually clipped wait spans; compared below against the
    // merged-interval cover to catch double-counted (overlapping) spans.
    double span_blocked_ms = 0.0;
    for (std::size_t i = 0; i < iters; ++i) {
      const Interval& win = windows[ri][i];
      rank.iter_ms += NsToMs(win.length());
      for (const WaitSpan& w : waits[ri]) {
        const SimTime begin = std::max(w.begin, win.begin);
        const SimTime end = std::min(w.end, win.end);
        if (end <= begin) continue;
        const double len_ms = NsToMs(end - begin);
        span_blocked_ms += len_ms;
        // Straggler share: the prefix of this wait before the slowest
        // peer had even launched the collective we are waiting on.
        double straggler_ms = 0.0;
        int blamed = -1;
        const auto it = latest_launch.find({w.kind, w.group});
        if (it != latest_launch.end() &&
            w.occurrence < it->second.size()) {
          const auto& [launch, who] = it->second[w.occurrence];
          const SimTime skew = std::min(std::max<SimTime>(launch - begin, 0),
                                        end - begin);
          straggler_ms = NsToMs(skew);
          if (who != r) blamed = who;
        }
        GroupAttribution& g = groups[w.group];
        g.group = w.group;
        g.straggler_ms += straggler_ms;
        // Fused all-reduce ("ar") is the un-decoupled OP1, bucketed as RS.
        if (w.kind == "ag")
          g.exposed_ag_ms += len_ms - straggler_ms;
        else
          g.exposed_rs_ms += len_ms - straggler_ms;
        if (blamed >= 0)
          caused[static_cast<std::size_t>(blamed)] += straggler_ms;
      }
    }
    // Blocked time from merged wait intervals clipped to the attributed
    // windows — the ground truth the per-span sums must reproduce.
    std::vector<Interval> wait_cover;
    for (const WaitSpan& w : waits[ri]) wait_cover.push_back({w.begin, w.end});
    std::sort(wait_cover.begin(), wait_cover.end(),
              [](const Interval& a, const Interval& b) {
                return a.begin < b.begin;
              });
    std::vector<Interval> merged;
    for (const Interval& iv : wait_cover) {
      if (!merged.empty() && iv.begin <= merged.back().end)
        merged.back().end = std::max(merged.back().end, iv.end);
      else
        merged.push_back(iv);
    }
    double blocked_ms = 0.0;
    for (std::size_t i = 0; i < iters; ++i) {
      const Interval& win = windows[ri][i];
      blocked_ms += NsToMs(win.length()) -
                    NsToMs(SubtractCover({win}, merged));
    }
    rank.compute_ms = rank.iter_ms - blocked_ms;
    for (auto& [id, g] : groups) {
      rank.exposed_rs_ms += g.exposed_rs_ms;
      rank.exposed_ag_ms += g.exposed_ag_ms;
      rank.straggler_ms += g.straggler_ms;
      rank.groups.push_back(std::move(g));
    }
    // compute was defined as (window - merged cover) while the parts come
    // from per-span clipping, so the residual is exactly the double-count
    // the decomposition would otherwise hide.
    const double sum = rank.compute_ms + rank.exposed_rs_ms +
                       rank.exposed_ag_ms + rank.straggler_ms;
    rank.residual_fraction =
        rank.iter_ms > 0.0
            ? std::abs(rank.iter_ms - sum) / rank.iter_ms
            : (span_blocked_ms > 0.0 ? 1.0 : 0.0);
    report.max_residual_fraction =
        std::max(report.max_residual_fraction, rank.residual_fraction);
  }
  for (int r = 0; r < world; ++r)
    report.ranks[static_cast<std::size_t>(r)].caused_straggler_ms =
        caused[static_cast<std::size_t>(r)];

  report.consistent = report.max_residual_fraction <= tolerance;
  report.straggler_ranking.resize(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r)
    report.straggler_ranking[static_cast<std::size_t>(r)] = r;
  std::stable_sort(report.straggler_ranking.begin(),
                   report.straggler_ranking.end(), [&](int a, int b) {
                     return caused[static_cast<std::size_t>(a)] >
                            caused[static_cast<std::size_t>(b)];
                   });
  return report;
}

std::string RenderAttributionReport(const AttributionReport& report) {
  std::string out;
  AppendF(&out, "critical-path attribution: %d iteration%s x %d rank%s\n",
          report.iterations, report.iterations == 1 ? "" : "s", report.world,
          report.world == 1 ? "" : "s");
  if (report.iterations == 0) {
    out += "  (no complete iteration windows in trace; run >= 2 steps "
           "under telemetry)\n";
    return out;
  }
  out += "  rank   iter_ms  compute  exp_rs  exp_ag  straggl  caused  "
         "resid%\n";
  for (const RankAttribution& r : report.ranks) {
    AppendF(&out, "  %4d  %8.2f %8.2f %7.2f %7.2f %8.2f %7.2f  %5.2f\n",
            r.rank, r.iter_ms, r.compute_ms, r.exposed_rs_ms,
            r.exposed_ag_ms, r.straggler_ms, r.caused_straggler_ms,
            r.residual_fraction * 100.0);
  }
  // Per-group totals across ranks.
  std::map<int, GroupAttribution> totals;
  for (const RankAttribution& r : report.ranks) {
    for (const GroupAttribution& g : r.groups) {
      GroupAttribution& t = totals[g.group];
      t.group = g.group;
      t.exposed_rs_ms += g.exposed_rs_ms;
      t.exposed_ag_ms += g.exposed_ag_ms;
      t.straggler_ms += g.straggler_ms;
    }
  }
  if (!totals.empty()) {
    out += "  fusion groups (ms summed over ranks):\n";
    for (const auto& [id, g] : totals) {
      AppendF(&out,
              "    g%-3d  exposed_rs %8.2f  exposed_ag %8.2f  "
              "straggler %8.2f\n",
              g.group, g.exposed_rs_ms, g.exposed_ag_ms, g.straggler_ms);
    }
  }
  out += "  stragglers (time peers spent waiting on this rank's arrival):\n";
  for (int r : report.straggler_ranking) {
    AppendF(&out, "    rank %d  caused %.2f ms\n", r,
            report.ranks[static_cast<std::size_t>(r)].caused_straggler_ms);
  }
  if (report.consistent) {
    AppendF(&out,
            "  consistency: OK — parts sum to iteration time "
            "(max residual %.2f%% <= %.2f%%)\n",
            report.max_residual_fraction * 100.0, report.tolerance * 100.0);
  } else {
    AppendF(&out,
            "  consistency: FAILED — max residual %.2f%% > %.2f%% "
            "(overlapping or double-counted wait spans?)\n",
            report.max_residual_fraction * 100.0, report.tolerance * 100.0);
  }
  return out;
}

}  // namespace dear::analysis
