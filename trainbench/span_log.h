// In-memory span recorder for the training benchmark.
//
// Spans are recorded from the benchmark's own code, around calls into the
// runtime's public functions (Mlp::Forward, DistOptim::Step, ...), never
// from inside src/. Each thread owns one SpanLog, so recording takes no
// lock: Begin() pushes a span whose parent is the innermost open span,
// End() stamps its end. A disabled log costs one branch per call, which is
// how the untraced end-to-end window runs the same loop code.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/trace.h"

namespace trainbench {

[[nodiscard]] inline std::int64_t NowNs() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name{""};  // static string: the layer metric's stem
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
  std::int32_t parent{-1};  // index in the same log; -1 for a root
  std::int32_t iter{0};     // training iteration the span belongs to
};

class SpanLog {
 public:
  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_iter(int iter) noexcept { iter_ = iter; }
  void Reserve(std::size_t n) { spans_.reserve(n); }

  /// Opens a span; returns its index, or -1 when the log is disabled.
  int Begin(const char* name) {
    if (!enabled_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, NowNs(), 0, parent, iter_});
    const int idx = static_cast<int>(spans_.size()) - 1;
    open_.push_back(idx);
    return idx;
  }
  /// Closes the span Begin() returned (spans close innermost first).
  void End(int idx) {
    if (idx < 0) return;
    spans_[static_cast<std::size_t>(idx)].end_ns = NowNs();
    open_.pop_back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  /// Adds an already-timed span (used to build synthetic trees in tests).
  int Add(Span span) {
    spans_.push_back(span);
    return static_cast<int>(spans_.size()) - 1;
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  bool enabled_{false};
  int iter_{0};
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name)
      : log_(log), idx_(log.Begin(name)) {}
  ~ScopedSpan() { log_.End(idx_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int idx_;
};

/// Self time of every span: its duration minus the durations of its direct
/// children (each child's own children are subtracted from the child).
/// Index-aligned with `spans`. Requires children nested in their parent.
[[nodiscard]] std::vector<std::int64_t> SelfTimesNs(
    const std::vector<Span>& spans);

/// Total self time per span name, in ns.
[[nodiscard]] std::map<std::string, std::int64_t> SelfTotalsNs(
    const std::vector<Span>& spans);

/// Adds the spans of each log (index = rank) whose iteration is at least
/// `first_iter` to `trace` as complete events: pid = rank, tid 0, times
/// from the earliest such span, category "iter=<i> parent=<name>".
/// TraceRecorder::WriteFile then writes a file Perfetto loads.
void AppendToTrace(const std::vector<const SpanLog*>& ranks, int first_iter,
                   dear::TraceRecorder* trace);

}  // namespace trainbench
