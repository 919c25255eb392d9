// Percentile with the sample counts a reader needs to trust it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/stats.h"

namespace trainbench {

struct PercentileResult {
  double value{0.0};
  std::size_t count{0};   // samples the percentile was taken over
  std::size_t beyond{0};  // samples strictly above `value`
};

/// Linear-interpolated percentile (dear::Percentile), p in [0, 100].
/// A tail percentile is only meaningful when `beyond` is at least ten.
[[nodiscard]] inline PercentileResult PercentileOf(
    const std::vector<double>& values, double p) {
  PercentileResult r;
  r.value = dear::Percentile(values, p);
  r.count = values.size();
  r.beyond = static_cast<std::size_t>(std::count_if(
      values.begin(), values.end(), [&](double v) { return v > r.value; }));
  return r;
}

}  // namespace trainbench
