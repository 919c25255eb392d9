#include "comm/collective_scope.h"

#include "check/checker.h"
#include "comm/calibration.h"
#include "flightrec/recorder.h"
#include "telemetry/telemetry.h"

namespace dear::comm {
namespace {

/// Depth of nested scopes on this thread; only depth 0 observes.
thread_local int t_depth = 0;

}  // namespace

CollectiveScope::CollectiveScope(const Communicator& comm,
                                 const CollectiveKind& kind,
                                 std::size_t elems) noexcept
    : kind_(kind),
      outermost_(t_depth++ == 0),
      rank_(comm.global_rank()),
      elems_(elems) {
  if (!outermost_) return;
  if (kind.shape && CalibrationMonitor::Get().enabled()) {
    calibrated_ = true;
    // Wire bytes, not fp32 buffer bytes: the α–β fit prices β per byte
    // actually sent, which is what narrow-dtype payloads halve.
    wire_bytes_ = elems * DTypeSize(comm.wire_dtype());
    calib_start_ns_ = flightrec::NowNs();
  }
  telemetry::Runtime& rt = telemetry::Runtime::Get();
  if (rt.enabled()) {
    timed_ = true;
    span_start_ns_ = rt.NowNs();
  }
  const std::size_t ledger_elems = kind.root_payload ? 0 : elems;
  // Always-on black box: journal the bracket even with no checker session,
  // so hang dumps name the in-flight collective.
  flight_name_ = flightrec::Recorder::Get().OnCollectiveBegin(
      rank_, kind.name, ledger_elems);
  check::Checker& checker = check::Checker::Get();
  if (checker.enabled()) {
    checked_ = true;
    if (const auto* counter = checker.epoch_counter()) {
      begin_epoch_ = counter->load(std::memory_order_acquire);
      epoch_stamped_ = true;
    }
    checker.OnCollectiveBegin(rank_, kind.name, ledger_elems);
  }
}

CollectiveScope::~CollectiveScope() {
  --t_depth;
  if (!outermost_) return;
  flightrec::Recorder::Get().OnCollectiveEnd(rank_, flight_name_);
  if (checked_) {
    check::Checker& checker = check::Checker::Get();
    checker.OnCollectiveEnd(rank_);
    const auto* counter = checker.epoch_counter();
    if (epoch_stamped_ && counter != nullptr) {
      const std::uint32_t end = counter->load(std::memory_order_acquire);
      if (end != begin_epoch_)
        checker.OnCrossEpochOp(rank_, kind_.name, begin_epoch_, end);
    }
  }
  if (timed_) {
    telemetry::OnCollective(rank_, kind_.metric, elems_, span_start_ns_,
                            telemetry::Runtime::Get().NowNs());
  }
  if (calibrated_ && ok_) {
    CalibrationMonitor::Get().OnCollective(
        rank_, *kind_.shape, wire_bytes_, flightrec::NowNs() - calib_start_ns_);
  }
}

}  // namespace dear::comm
