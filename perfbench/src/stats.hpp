// Order statistics and failure accounting for the benchmark's samples.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (0 < p <= 100) of `samples`; 0 when empty.
double percentile(std::vector<double> samples, double p);

inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

/// A tail percentile together with the support it rests on.
struct Tail {
  double percentile = 0.0;  ///< which percentile, e.g. 99.0
  double value = 0.0;
  std::size_t beyond = 0;   ///< samples strictly above it in rank order
  std::size_t samples = 0;
};

/// The highest percentile of the ladder 99.99, 99.9, 99, 95, 90, 75, 50
/// that has at least `min_beyond` samples ranked beyond it.  With too few
/// samples for any of them, the median, with whatever support it has.
Tail supported_tail(std::vector<double> samples, std::size_t min_beyond = 10);

/// Operations attempted and failed; a failure is an operation that
/// returned a nonzero status or a result that did not match its reference.
struct OpCounter {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  double fail_ratio() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

}  // namespace perfbench
