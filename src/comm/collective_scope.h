// One observer bracket per collective. Every public collective opens one
// CollectiveScope; only the outermost scope on a thread acts, so composed
// collectives (the RS inside RingAllReduce) are observed once. It feeds
// the always-on flight recorder, the dearcheck ledger and cross-epoch
// check, telemetry's comm-lane span and comm.<metric>.* metrics, and the
// CalibrationMonitor. An observer that is off costs one relaxed load.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "analysis/calib.h"
#include "comm/communicator.h"
#include "common/status.h"

namespace dear::comm {

/// How the observers see one collective.
struct CollectiveKind {
  const char* name;    // checker ledger kind, flight-recorder name
  const char* metric;  // telemetry comm.<metric>.* and comm-lane span name
  /// α–β shape the calibration monitor prices it as; none where no single
  /// Hockney line fits (hierarchical, segmented, gather/scatter, all-to-all).
  std::optional<analysis::CollectiveShape> shape;
  /// Only the root holds the payload (Scatter): the ledger, which matches
  /// sizes across ranks, and the flight recorder record 0 elements.
  bool root_payload{false};
};

/// The one collective → (name, metric, shape) table.
namespace kinds {
using Shape = analysis::CollectiveShape;
inline constexpr CollectiveKind kRingReduceScatter{
    "ring_reduce_scatter", "reduce_scatter", Shape::kReduceScatter};
inline constexpr CollectiveKind kRingAllGather{"ring_all_gather", "all_gather",
                                               Shape::kAllGather};
inline constexpr CollectiveKind kRingAllReduce{"ring_all_reduce", "all_reduce",
                                               Shape::kRingAllReduce};
// A binomial reduce is the broadcast tree run backwards: same α–β line.
inline constexpr CollectiveKind kTreeReduce{"tree_reduce", "reduce",
                                            Shape::kTreeBroadcast};
inline constexpr CollectiveKind kTreeBroadcast{"tree_broadcast", "broadcast",
                                               Shape::kTreeBroadcast};
inline constexpr CollectiveKind kTreeAllReduce{"tree_all_reduce", "all_reduce",
                                               Shape::kTreeAllReduce};
inline constexpr CollectiveKind kDoubleBinaryTreeAllReduce{
    "dbt_all_reduce", "all_reduce", Shape::kDoubleBinaryTreeAllReduce};
inline constexpr CollectiveKind kHierarchicalReduceScatter{
    "hier_reduce_scatter", "reduce_scatter", std::nullopt};
inline constexpr CollectiveKind kHierarchicalAllGather{
    "hier_all_gather", "all_gather", std::nullopt};
inline constexpr CollectiveKind kHierarchicalAllReduce{
    "hier_all_reduce", "all_reduce", std::nullopt};
inline constexpr CollectiveKind kRecursiveHalvingReduceScatter{
    "recursive_reduce_scatter", "reduce_scatter",
    Shape::kRecursiveHalvingReduceScatter};
inline constexpr CollectiveKind kRecursiveDoublingAllGather{
    "recursive_all_gather", "all_gather", Shape::kRecursiveDoublingAllGather};
inline constexpr CollectiveKind kRecursiveHalvingDoublingAllReduce{
    "recursive_all_reduce", "all_reduce",
    Shape::kRecursiveHalvingDoublingAllReduce};
inline constexpr CollectiveKind kBarrier{"barrier", "barrier", Shape::kBarrier};
inline constexpr CollectiveKind kGather{"gather", "gather", std::nullopt};
inline constexpr CollectiveKind kScatter{"scatter", "scatter", std::nullopt,
                                         /*root_payload=*/true};
inline constexpr CollectiveKind kAllToAll{"all_to_all", "all_to_all",
                                          std::nullopt};
inline constexpr CollectiveKind kRingAllReduceSegmented{
    "ring_all_reduce_segmented", "all_reduce", std::nullopt};
}  // namespace kinds

class CollectiveScope {
 public:
  /// `kind` is one of comm::kinds (static storage: the scope keeps a
  /// reference and the flight recorder interns `name` by address). `elems`
  /// is this rank's payload element count; the calibration sample prices
  /// it at the communicator's wire dtype.
  CollectiveScope(const Communicator& comm, const CollectiveKind& kind,
                  std::size_t elems) noexcept;
  CollectiveScope(const Communicator&, CollectiveKind&&, std::size_t) = delete;
  ~CollectiveScope();
  CollectiveScope(const CollectiveScope&) = delete;
  CollectiveScope& operator=(const CollectiveScope&) = delete;

  /// Records the outcome and passes it through: `return scope.Finish(st);`.
  /// Only an OK finish feeds the calibration monitor.
  Status Finish(Status st) noexcept {
    ok_ = st.ok();
    return st;
  }

 private:
  const CollectiveKind& kind_;
  bool outermost_;
  bool checked_{false};
  bool timed_{false};
  bool calibrated_{false};
  bool epoch_stamped_{false};
  bool ok_{false};
  std::uint16_t flight_name_{0};
  int rank_;
  std::uint32_t begin_epoch_{0};  // membership epoch at begin
  std::size_t elems_;
  std::size_t wire_bytes_{0};
  std::int64_t span_start_ns_{0};    // telemetry clock
  std::uint64_t calib_start_ns_{0};  // flight-recorder clock
};

}  // namespace dear::comm
