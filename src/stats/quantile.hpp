// Quantile estimation.
//
// Uses the R type-7 estimator (linear interpolation of order statistics),
// the default of R's quantile() — the tool the paper's five-number
// summaries were produced with — so our reproduced tables use the same
// convention.
#pragma once

#include <span>
#include <vector>

namespace gridvc::stats {

/// Quantile of `sorted` (ascending) at probability p in [0, 1], type-7.
/// Requires a non-empty, sorted input.
double quantile_sorted(std::span<const double> sorted, double p);

/// Quantile of unsorted data (copies and selects, O(n); bit-identical to
/// quantile_sorted over a sorted copy). Requires non-empty input.
double quantile(std::span<const double> values, double p);

/// All requested quantiles in one pass over a single sorted copy.
std::vector<double> quantiles(std::span<const double> values, std::span<const double> probs);

/// Convenience: median.
double median(std::span<const double> values);

}  // namespace gridvc::stats
