#include "common/math_util.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace fusecu {

std::vector<Index> divisors(Index v) {
  FCU_CHECK(v >= 1, "divisors of non-positive value");
  std::vector<Index> lo, hi;
  for (Index d = 1; d * d <= v; ++d) {
    if (v % d == 0) {
      lo.push_back(d);
      if (d != v / d) hi.push_back(v / d);
    }
  }
  lo.insert(lo.end(), hi.rbegin(), hi.rend());
  return lo;
}

std::vector<Index> tile_candidates(Index d) {
  FCU_CHECK(d >= 1, "tile_candidates of non-positive extent");
  std::vector<Index> c = divisors(d);
  for (Index t = 1; t < d; t *= 2) c.push_back(t);
  c.push_back(d);
  std::sort(c.begin(), c.end());
  c.erase(std::unique(c.begin(), c.end()), c.end());
  return c;
}

double geo_mean(const std::vector<double>& xs) {
  FCU_CHECK(!xs.empty(), "geo_mean of empty series");
  double acc = 0.0;
  for (double x : xs) {
    FCU_CHECK(x > 0.0, "geo_mean requires positive values");
    acc += std::log(x);
  }
  return std::exp(acc / static_cast<double>(xs.size()));
}

double arith_mean(const std::vector<double>& xs) {
  FCU_CHECK(!xs.empty(), "arith_mean of empty series");
  double acc = 0.0;
  for (double x : xs) acc += x;
  return acc / static_cast<double>(xs.size());
}

}  // namespace fusecu
