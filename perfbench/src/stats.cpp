#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {
namespace {

/// Zero-based rank of the nearest-rank p-th percentile among n samples.
std::size_t rank_of(std::size_t n, double p) {
  const double r = std::ceil(p / 100.0 * static_cast<double>(n));
  const std::size_t one_based =
      std::clamp<std::size_t>(static_cast<std::size_t>(r), 1, n);
  return one_based - 1;
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const std::size_t k = rank_of(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(k),
                   samples.end());
  return samples[k];
}

Tail supported_tail(std::vector<double> samples, std::size_t min_beyond) {
  Tail t;
  t.samples = samples.size();
  if (samples.empty()) return t;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  for (double p : {99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    const std::size_t k = rank_of(n, p);
    t = Tail{p, samples[k], n - 1 - k, n};
    if (t.beyond >= min_beyond) break;
  }
  return t;
}

}  // namespace perfbench
