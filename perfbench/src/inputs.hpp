// Seeded input generation.  Every input the workloads feed the runtime is
// a pure function of the run's seed, so one seed always gives one set of
// inputs, whatever the scheduling.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// One polynomial pair of the E6.2 pipeline: n real coefficients each.
struct PolyPair {
  std::vector<double> f;
  std::vector<double> g;
};

std::vector<PolyPair> make_poly_pairs(std::uint64_t seed, int count, int n);

/// Key of the k-th linear system of a run.  Copies of the generating
/// program receive (seed31, k) as int constants and rebuild the key.
std::uint64_t lu_system_key(int seed31, int k);

/// The seed folded to the non-negative int a call constant can carry.
int seed31(std::uint64_t seed);

/// Entry (i, j) of the diagonally dominant n×n system `key`.
double lu_entry(std::uint64_t key, int n, int i, int j);

/// Component i of the system's true solution.
double lu_x_true(std::uint64_t key, int i);

}  // namespace perfbench
