#include "math/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

namespace locat::math {

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

double Variance(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  const double m = Mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size());
}

double StdDev(const std::vector<double>& xs) { return std::sqrt(Variance(xs)); }

double CoefficientOfVariation(const std::vector<double>& xs) {
  const double m = Mean(xs);
  if (m == 0.0) return 0.0;
  return StdDev(xs) / m;
}

double Min(const std::vector<double>& xs) {
  assert(!xs.empty());
  return *std::min_element(xs.begin(), xs.end());
}

double Max(const std::vector<double>& xs) {
  assert(!xs.empty());
  return *std::max_element(xs.begin(), xs.end());
}

std::vector<double> RankWithTies(const std::vector<double>& xs) {
  const size_t n = xs.size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return xs[a] < xs[b]; });

  std::vector<double> ranks(n, 0.0);
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j + 1 < n && xs[order[j + 1]] == xs[order[i]]) ++j;
    // Items order[i..j] are tied; assign the mean of ranks i+1..j+1.
    const double mean_rank = (static_cast<double>(i + 1) +
                              static_cast<double>(j + 1)) /
                             2.0;
    for (size_t k = i; k <= j; ++k) ranks[order[k]] = mean_rank;
    i = j + 1;
  }
  return ranks;
}

}  // namespace locat::math
