// The three workloads of the benchmark, one per worked example of the
// thesis: the E6.1 inner product, the E6.2 FFT polynomial-multiplication
// pipeline, and the Appendix D linear solve.  Each runs with real
// arithmetic, checks every result against a reference computed outside the
// timed region, and reports either the end-to-end metrics (untraced) or
// the per-layer split measured from outside the runtime (traced).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Virtual processors of every workload's runtime, one per host core.
inline constexpr int kVps = 4;

struct Options {
  double seconds = 10.0;  ///< measured time; a traced run halves it
  double warmup_seconds = 0.5;
  double setup_seconds = 0.125;  ///< set-up time in each set-up process
  /// The benchmark binary, started in its --setup-child mode to time
  /// set-ups in fresh processes.  They set up at the default sizes.
  std::string setup_exe = "/proc/self/exe";
  std::uint64_t seed = 1;
  SpanLog* spans = nullptr;  ///< set for a traced run, which records here

  int iprdv_local_m = 64;      ///< inner_product: elements per VP
  int fft_coeffs = 1024;       ///< fft_pipeline: degree + 1
  int fft_pool = 16;           ///< distinct seeded pairs, cycled
  int lu_n = 512;              ///< linear_solve: system size
  int speedup_solves = 3;      ///< traced: solves on a 1-VP runtime
  int allreduce_reps = 200;    ///< traced: allreduce probe repetitions

  /// Test hook: perturb every reference so that each check must fail.
  bool wrong_reference = false;
};

struct Result {
  OpCounter ops;  ///< every checked operation, warm-up and probes included
  std::vector<Metric> metrics;
  Tail tail;      ///< support of op_tail_ms (traced runs)
  std::string transport;  ///< the transport the runtime resolved
};

/// "inner_product", "fft_pipeline", "linear_solve".
const std::vector<std::string>& workload_names();

/// Runs one workload.  Throws std::invalid_argument for an unknown name
/// and std::runtime_error when set-up fails.
Result run_workload(const std::string& name, const Options& opts);

/// The --setup-child mode: sets workload `name` up again and again for
/// opts.setup_seconds and writes the set-up times (s), then the
/// create_array times (ms), to `fd`, each as a count and the doubles.
void time_setups_to(const std::string& name, const Options& opts, int fd);

}  // namespace perfbench
