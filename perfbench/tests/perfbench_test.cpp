// Tests of the benchmark itself: percentile selection, failure counting,
// seed determinism of the generated inputs, and a tiny run of each
// workload, traced and untraced.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "inputs.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

std::vector<double> iota_samples(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = i + 1;
  std::reverse(v.begin(), v.end());  // order must not matter
  return v;
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(percentile(iota_samples(100), 50.0), 50.0);
  EXPECT_EQ(percentile(iota_samples(100), 99.0), 99.0);
  EXPECT_EQ(percentile(iota_samples(100), 100.0), 100.0);
  EXPECT_EQ(percentile(iota_samples(5), 50.0), 3.0);
  EXPECT_EQ(percentile({}, 50.0), 0.0);
}

TEST(Percentile, TailKeepsTenSamplesBeyond) {
  // 1000 samples: p99 has exactly 10 beyond, p99.9 only 1.
  Tail t = supported_tail(iota_samples(1000));
  EXPECT_EQ(t.percentile, 99.0);
  EXPECT_EQ(t.value, 990.0);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.samples, 1000u);

  // 999 samples: p99 would leave 9 beyond, so p95 it is.
  t = supported_tail(iota_samples(999));
  EXPECT_EQ(t.percentile, 95.0);
  EXPECT_GE(t.beyond, 10u);

  // 100000 samples support p99.99 (10 beyond).
  t = supported_tail(iota_samples(100000));
  EXPECT_EQ(t.percentile, 99.99);
  EXPECT_EQ(t.beyond, 10u);

  // Too few samples for any tail: the median, with its real support.
  t = supported_tail(iota_samples(7));
  EXPECT_EQ(t.percentile, 50.0);
  EXPECT_EQ(t.value, 4.0);
  EXPECT_EQ(t.beyond, 3u);
}

TEST(OpCounter, CountsFailures) {
  OpCounter c;
  EXPECT_EQ(c.fail_ratio(), 0.0);
  c.record(true);
  c.record(false);
  c.record(true);
  c.record(false);
  EXPECT_EQ(c.attempted, 4);
  EXPECT_EQ(c.failed, 2);
  EXPECT_EQ(c.fail_ratio(), 0.5);
}

TEST(Inputs, SameSeedSameInputs) {
  const auto a = make_poly_pairs(42, 3, 64);
  const auto b = make_poly_pairs(42, 3, 64);
  const auto c = make_poly_pairs(43, 3, 64);
  ASSERT_EQ(a.size(), 3u);
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].f, b[k].f);
    EXPECT_EQ(a[k].g, b[k].g);
    EXPECT_NE(a[k].f, c[k].f);
    EXPECT_NE(a[k].f, a[k].g);
  }
  for (const double v : a[0].f) {
    EXPECT_GE(v, -1.0);
    EXPECT_LT(v, 1.0);
  }

  EXPECT_EQ(seed31(7), seed31(7));
  EXPECT_NE(seed31(7), seed31(8));
  EXPECT_GE(seed31(~0ULL), 0);
  const std::uint64_t k1 = lu_system_key(seed31(7), 3);
  EXPECT_EQ(k1, lu_system_key(seed31(7), 3));
  EXPECT_NE(k1, lu_system_key(seed31(7), 4));
  EXPECT_NE(k1, lu_system_key(seed31(8), 3));
  EXPECT_EQ(lu_entry(k1, 16, 2, 5), lu_entry(k1, 16, 2, 5));
  EXPECT_EQ(lu_x_true(k1, 9), lu_x_true(k1, 9));
  // Strict diagonal dominance keeps every system well conditioned.
  for (int i = 0; i < 16; ++i) {
    double off = 0.0;
    for (int j = 0; j < 16; ++j) {
      if (j != i) off += std::abs(lu_entry(k1, 16, i, j));
    }
    EXPECT_GT(std::abs(lu_entry(k1, 16, i, i)), off);
  }
}

Options tiny() {
  Options o;
  o.seconds = 0.2;
  o.warmup_seconds = 0.05;
  o.setup_seconds = 0.005;
  o.setup_exe = PERFBENCH_EXE;
  o.seed = 5;
  o.iprdv_local_m = 8;
  o.fft_coeffs = 32;
  o.fft_pool = 3;
  o.lu_n = 32;
  o.speedup_solves = 1;
  o.allreduce_reps = 5;
  return o;
}

double metric(const Result& r, const std::string& name) {
  for (const Metric& m : r.metrics) {
    if (m.name == name) return m.value;
  }
  ADD_FAILURE() << "missing metric " << name;
  return -1.0;
}

class Smoke : public ::testing::TestWithParam<std::string> {};

TEST_P(Smoke, UntracedRunIsCorrect) {
  const Result r = run_workload(GetParam(), tiny());
  EXPECT_GT(r.ops.attempted, 0);
  EXPECT_EQ(r.ops.failed, 0);
  std::set<std::string> names;
  for (const Metric& m : r.metrics) {
    names.insert(m.name);
    EXPECT_GT(m.value, 0.0) << m.name;
  }
  EXPECT_EQ(names, (std::set<std::string>{"ops_per_s", "op_p50_ms",
                                          "cpu_ms_per_op", "peak_rss_mb",
                                          "setup_s", "ok_ratio"}));
  EXPECT_EQ(metric(r, "ok_ratio"), 1.0);
  EXPECT_FALSE(r.transport.empty());
}

TEST_P(Smoke, TracedRunReportsEveryLayer) {
  SpanLog spans;
  Options o = tiny();
  o.spans = &spans;
  const Result r = run_workload(GetParam(), o);
  EXPECT_EQ(r.ops.failed, 0);
  EXPECT_EQ(r.metrics.size(), 25u);
  EXPECT_GT(spans.size(), 0u);
  EXPECT_GT(metric(r, "op_tail_ms"), 0.0);
  EXPECT_GT(r.tail.samples, 0u);
  EXPECT_GT(metric(r, "core.call_us_p50"), 0.0);
  EXPECT_GT(metric(r, "core.calls_per_op"), 0.0);
  EXPECT_GT(metric(r, "spmd.allreduce_us_p50"), 0.0);
  EXPECT_GT(metric(r, "vp.msgs_per_op"), 0.0);
  EXPECT_GT(metric(r, "dist.create_ms"), 0.0);
  EXPECT_GT(metric(r, "bench.trace_overhead"), 0.0);
  if (GetParam() == "fft_pipeline") {
    // 6 element requests per complex transform point: 2 in and 2 out of
    // each inverse stage's 64-point array, 2 in and 2 out of phase2's —
    // 12 * 64 in all.
    EXPECT_EQ(metric(r, "dist.element_ops_per_op"), 12.0 * 64);
    EXPECT_EQ(metric(r, "core.calls_per_op"), 3.0);
    EXPECT_GT(metric(r, "fft.exec_us_p50"), 0.0);
    EXPECT_GT(metric(r, "pcn.stage_busy_share.phase2"), 0.0);
  }
  if (GetParam() == "linear_solve") {
    EXPECT_EQ(metric(r, "core.calls_per_op"), 2.0);  // generate + solve
    EXPECT_GT(metric(r, "linalg.factor_ms_p50"), 0.0);
    EXPECT_GT(metric(r, "linalg.speedup_vs_1vp"), 0.0);
    EXPECT_GE(metric(r, "linalg.copy_imbalance"), 1.0);
  }
  if (GetParam() == "inner_product") {
    EXPECT_EQ(metric(r, "core.calls_per_op"), 1.0);
    EXPECT_EQ(metric(r, "dist.element_ops_per_op"), 0.0);
  }
}

TEST_P(Smoke, WrongReferenceIsCountedNotFatal) {
  Options o = tiny();
  o.wrong_reference = true;
  const Result r = run_workload(GetParam(), o);
  EXPECT_GT(r.ops.attempted, 0);
  EXPECT_EQ(r.ops.failed, r.ops.attempted);
  EXPECT_EQ(metric(r, "ok_ratio"), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Workloads, Smoke,
                         ::testing::ValuesIn(workload_names()));

TEST(Workloads, UnknownNameIsRejected) {
  EXPECT_THROW(run_workload("bogus", tiny()), std::invalid_argument);
}

}  // namespace
}  // namespace perfbench
