#include "stats/quantile.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "exec/parallel_sort.hpp"

namespace gridvc::stats {

double quantile_sorted(std::span<const double> sorted, double p) {
  GRIDVC_REQUIRE(!sorted.empty(), "quantile of empty data");
  GRIDVC_REQUIRE(p >= 0.0 && p <= 1.0, "quantile probability out of range");
  const std::size_t n = sorted.size();
  if (n == 1) return sorted[0];
  // R type-7: h = (n - 1) p; interpolate between floor(h) and floor(h)+1.
  const double h = static_cast<double>(n - 1) * p;
  const std::size_t lo = static_cast<std::size_t>(std::floor(h));
  const std::size_t hi = std::min(lo + 1, n - 1);
  const double frac = h - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double quantile(std::span<const double> values, double p) {
  GRIDVC_REQUIRE(!values.empty(), "quantile of empty data");
  GRIDVC_REQUIRE(p >= 0.0 && p <= 1.0, "quantile probability out of range");
  // Selection instead of a full sort: quantile_sorted reads only order
  // statistics floor(h) and floor(h)+1. nth_element puts the first in
  // place with everything after it no smaller, so the second is the
  // minimum of that tail. Same two values, same interpolation: the result
  // is bit-identical to sorting, in O(n).
  std::vector<double> copy(values.begin(), values.end());
  const auto lo = copy.begin() + static_cast<std::ptrdiff_t>(
                                     std::floor(static_cast<double>(copy.size() - 1) * p));
  std::nth_element(copy.begin(), lo, copy.end());
  if (lo + 1 != copy.end()) std::iter_swap(lo + 1, std::min_element(lo + 1, copy.end()));
  return quantile_sorted(copy, p);
}

std::vector<double> quantiles(std::span<const double> values, std::span<const double> probs) {
  std::vector<double> copy(values.begin(), values.end());
  exec::parallel_sort(copy);
  std::vector<double> out;
  out.reserve(probs.size());
  for (double p : probs) out.push_back(quantile_sorted(copy, p));
  return out;
}

double median(std::span<const double> values) { return quantile(values, 0.5); }

}  // namespace gridvc::stats
