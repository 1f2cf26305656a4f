#include "workloads.hpp"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/runtime.hpp"
#include "fft/fft.hpp"
#include "fft/reference.hpp"
#include "inputs.hpp"
#include "linalg/lu.hpp"
#include "linalg/vector_ops.hpp"
#include "pcn/process.hpp"
#include "pcn/stream.hpp"
#include "util/bits.hpp"

namespace perfbench {
namespace {

namespace core = tdp::core;
namespace dist = tdp::dist;
namespace pcn = tdp::pcn;
using tdp::spmd::SpmdContext;
using dist::ArrayId;

std::int64_t seconds_to_ns(double s) {
  return static_cast<std::int64_t>(s * 1e9);
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Per-copy timing.  In the traced half of a run the benchmark wraps the
// library programs it calls; each copy writes its times into the probe its
// caller parks in the slot of the call's group leader.  Untraced runs call
// the library registrations as they are.

struct CopyTimes {
  std::int64_t enter = 0;
  std::int64_t exit = 0;
  std::int64_t a0 = 0;  ///< first library call: test_iprdv, an FFT, lu_factor
  std::int64_t a1 = 0;
  std::int64_t b0 = 0;  ///< second library call: lu_solve
  std::int64_t b1 = 0;
};

struct CallProbe {
  std::vector<CopyTimes> copies;
};

constexpr int kMaxProcs = 64;
std::array<std::atomic<CallProbe*>, kMaxProcs> g_probes{};

CopyTimes* copy_times(SpmdContext& ctx) {
  const int leader = ctx.processors().front();
  if (leader < 0 || leader >= kMaxProcs) return nullptr;
  CallProbe* p = g_probes[static_cast<std::size_t>(leader)].load(
      std::memory_order_acquire);
  return p == nullptr ? nullptr
                      : &p->copies[static_cast<std::size_t>(ctx.index())];
}

/// Samples of the allreduce probe, pushed once per copy.
struct AllreduceSink {
  std::mutex mu;
  std::vector<double> us;
};
AllreduceSink g_allreduce;

core::DataParallelProgram library_program(const core::ProgramRegistry& reg,
                                         const std::string& name) {
  core::DataParallelProgram body;
  if (!reg.find(name, body)) {
    throw std::runtime_error("library program not registered: " + name);
  }
  return body;
}

/// Wraps the library program registered under `name` so that, in a probed
/// call, each copy records its entry and exit around the library body.
void time_library_program(core::ProgramRegistry& reg, const std::string& name) {
  const core::DataParallelProgram body = library_program(reg, name);
  reg.add(name, [body](SpmdContext& ctx, core::CallArgs& args) {
    CopyTimes* t = copy_times(ctx);
    if (t == nullptr) return body(ctx, args);
    t->enter = t->a0 = now_ns();
    body(ctx, args);
    t->a1 = t->exit = now_ns();
  });
}

/// Instruments a runtime for the traced half of a run.  test_iprdv and the
/// two FFT programs keep their library bodies; lu_solve_system is replaced
/// by the same two library calls, timed apart, since factor and solve
/// happen inside one body.  Untraced runs use the library registrations
/// unchanged.
void instrument_programs(core::ProgramRegistry& reg) {
  for (const char* name : {"test_iprdv", "fft_reverse", "fft_natural"}) {
    time_library_program(reg, name);
  }
  // Appendix D: n, local A, local b (overwritten with x), status.
  const core::DataParallelProgram lu_body =
      library_program(reg, "lu_solve_system");
  reg.add("lu_solve_system", [lu_body](SpmdContext& ctx, core::CallArgs& args) {
    CopyTimes* t = copy_times(ctx);
    if (t == nullptr) return lu_body(ctx, args);
    t->enter = now_ns();
    const int n = args.in<int>(0);
    const std::size_t nloc = static_cast<std::size_t>(n / ctx.nprocs());
    std::span<double> a(args.local(1).f64(), nloc * static_cast<std::size_t>(n));
    std::span<double> b(args.local(2).f64(), nloc);
    std::vector<int> pivots;
    t->a0 = now_ns();
    const int rc = tdp::linalg::lu_factor(ctx, n, a, pivots);
    t->a1 = t->b0 = now_ns();
    if (rc == 0) tdp::linalg::lu_solve(ctx, n, a, pivots, b);
    t->b1 = now_ns();
    args.status(3) = rc;
    t->exit = now_ns();
  });
}

/// The library's programs — test_iprdv, compute_roots, fft_reverse,
/// fft_natural, lu_solve_system — and the benchmark's own input generator
/// and allreduce probe.
void register_programs(core::ProgramRegistry& reg) {
  tdp::linalg::register_programs(reg);
  tdp::linalg::register_lu_programs(reg);
  tdp::fft::register_programs(reg);

  // Input generation for linear_solve: n, seed31, k, local A, local b.
  // Each copy builds its own rows of system k and b = A x_true in place.
  reg.add("perfbench_lu_generate", [](SpmdContext& ctx, core::CallArgs& args) {
    const int n = args.in<int>(0);
    const std::uint64_t key = lu_system_key(args.in<int>(1), args.in<int>(2));
    const int nloc = n / ctx.nprocs();
    double* a = args.local(3).f64();
    double* b = args.local(4).f64();
    std::vector<double> x(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j) x[static_cast<std::size_t>(j)] = lu_x_true(key, j);
    for (int l = 0; l < nloc; ++l) {
      const int g = ctx.index() * nloc + l;
      double* row = a + static_cast<std::size_t>(l) * static_cast<std::size_t>(n);
      double bi = 0.0;
      for (int j = 0; j < n; ++j) {
        row[j] = lu_entry(key, n, g, j);
        bi += row[j] * x[static_cast<std::size_t>(j)];
      }
      b[l] = bi;
    }
  });

  // Allreduce probe: reps, m.  Times linalg::inner_product on m elements.
  reg.add("perfbench_allreduce", [](SpmdContext& ctx, core::CallArgs& args) {
    const int reps = args.in<int>(0);
    const std::vector<double> x(static_cast<std::size_t>(args.in<int>(1)), 1.0);
    std::vector<double> us;
    us.reserve(static_cast<std::size_t>(reps));
    for (int r = 0; r < reps; ++r) {
      const std::int64_t t0 = now_ns();
      tdp::linalg::inner_product(ctx, x, x);
      us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
    std::lock_guard<std::mutex> lock(g_allreduce.mu);
    g_allreduce.us.insert(g_allreduce.us.end(), us.begin(), us.end());
  });
}

std::unique_ptr<core::Runtime> make_runtime(int nprocs) {
  auto rt = std::make_unique<core::Runtime>(nprocs);
  register_programs(rt->programs());
  return rt;
}

ArrayId create_timed(core::Runtime& rt, const std::vector<int>& dims,
                     const std::vector<int>& procs,
                     const std::vector<dist::DimSpec>& distrib,
                     dist::Indexing indexing, std::vector<double>& create_ms) {
  ArrayId id;
  const std::int64_t t0 = now_ns();
  const tdp::Status st =
      rt.arrays().create_array(procs.front(), dist::ElemType::Float64, dims,
                               procs, distrib, dist::BorderSpec::none(),
                               indexing, id);
  create_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  if (!tdp::ok(st)) {
    throw std::runtime_error("create_array failed: " +
                             std::string(tdp::to_string(st)));
  }
  return id;
}

// ---------------------------------------------------------------------------
// Traced-run accumulators, filled from outside the runtime.

enum class CallKind { Unprobed, Iprdv, Fft, Lu };

/// Span of each kind's first timed library call, indexed by CallKind.
constexpr std::array<const char*, 4> kComputeNames = {
    "", "linalg.test_iprdv", "fft.exec", "linalg.lu_factor"};

constexpr int kStages = 4;  // phase1a, phase1b, combine, phase2
constexpr std::array<const char*, kStages> kStageNames = {
    "pcn.stage.phase1a", "pcn.stage.phase1b", "pcn.stage.combine",
    "pcn.stage.phase2"};

struct Trace {
  explicit Trace(SpanLog* log) : spans(log) {}

  SpanLog* spans;
  std::mutex mu;
  std::int64_t calls = 0;  ///< every distributed call, probed or not
  std::vector<double> call_us, fanout_us, join_us;
  double call_ns = 0.0;
  double control_ns = 0.0;  ///< call time outside the longest copy body
  std::vector<double> element_us;
  std::int64_t element_ops = 0;
  double io_ns = 0.0;
  std::vector<double> stream_wait_us;
  std::array<double, kStages> stage_busy_ns{};
  std::vector<double> fft_exec_us;
  double fft_exec_ns = 0.0;  ///< longest copy per call
  std::vector<double> factor_ms, trisolve_ms, imbalance;

  std::uint32_t new_id() { return spans == nullptr ? 0 : spans->new_id(); }

  void span(const char* name, std::int64_t start, std::int64_t end,
            std::uint32_t id, std::uint32_t parent, std::uint64_t op,
            int tid) {
    if (spans != nullptr) spans->add(Span{name, start, end, id, parent, op, tid});
  }

  void record_call(CallKind kind, const std::vector<int>& procs,
                   const CallProbe& probe, std::int64_t t0, std::int64_t t1,
                   std::uint32_t parent, std::uint64_t op) {
    std::lock_guard<std::mutex> lock(mu);
    ++calls;
    if (kind == CallKind::Unprobed) return;
    std::int64_t last_enter = t0;
    std::int64_t last_exit = t0;
    std::int64_t longest = 0;
    std::int64_t shortest = INT64_MAX;
    std::int64_t longest_a = 0;
    std::int64_t longest_b = 0;
    const std::uint32_t call_id = new_id();
    for (std::size_t i = 0; i < probe.copies.size(); ++i) {
      const CopyTimes& c = probe.copies[i];
      last_enter = std::max(last_enter, c.enter);
      last_exit = std::max(last_exit, c.exit);
      longest = std::max(longest, c.exit - c.enter);
      shortest = std::min(shortest, c.exit - c.enter);
      longest_a = std::max(longest_a, c.a1 - c.a0);
      longest_b = std::max(longest_b, c.b1 - c.b0);
      const std::uint32_t body_id = new_id();
      span("core.copy_body", c.enter, c.exit, body_id, call_id, op, procs[i]);
      span(kComputeNames[static_cast<std::size_t>(kind)], c.a0, c.a1,
           new_id(), body_id, op, procs[i]);
      if (kind == CallKind::Lu) {
        span("linalg.lu_solve", c.b0, c.b1, new_id(), body_id, op, procs[i]);
      }
      if (kind == CallKind::Fft) {
        fft_exec_us.push_back(static_cast<double>(c.a1 - c.a0) / 1e3);
      }
    }
    span("core.call", t0, t1, call_id, parent, op, kHostTid);
    const double call = static_cast<double>(t1 - t0);
    call_us.push_back(call / 1e3);
    fanout_us.push_back(static_cast<double>(last_enter - t0) / 1e3);
    join_us.push_back(static_cast<double>(t1 - last_exit) / 1e3);
    call_ns += call;
    control_ns += call - static_cast<double>(longest);
    if (kind == CallKind::Fft) fft_exec_ns += static_cast<double>(longest_a);
    if (kind == CallKind::Lu) {
      factor_ms.push_back(static_cast<double>(longest_a) / 1e6);
      trisolve_ms.push_back(static_cast<double>(longest_b) / 1e6);
      imbalance.push_back(ratio(static_cast<double>(longest),
                                static_cast<double>(shortest)));
    }
  }

  void record_io(const char* name, std::int64_t t0, std::int64_t t1,
                 int count, std::uint32_t parent, std::uint64_t op, int tid) {
    std::lock_guard<std::mutex> lock(mu);
    element_us.push_back(static_cast<double>(t1 - t0) / 1e3 / count);
    element_ops += count;
    io_ns += static_cast<double>(t1 - t0);
    span(name, t0, t1, new_id(), parent, op, tid);
  }

  void record_stage(int stage, std::int64_t waited_ns, std::int64_t t0,
                    std::int64_t t1, std::uint32_t id, std::uint32_t parent,
                    std::uint64_t op) {
    std::lock_guard<std::mutex> lock(mu);
    stream_wait_us.push_back(static_cast<double>(waited_ns) / 1e3);
    stage_busy_ns[static_cast<std::size_t>(stage)] += static_cast<double>(t1 - t0);
    span(kStageNames[static_cast<std::size_t>(stage)], t0, t1, id, parent, op,
         kHostTid + 1 + stage);
  }
};

/// Runs `call`; traced runs park a probe for the copies, time run(), and
/// record the call.
int timed_run(core::DistributedCall& call, const std::vector<int>& procs,
              Trace* tr, CallKind kind, std::uint32_t parent,
              std::uint64_t op) {
  if (tr == nullptr) return call.run();
  CallProbe probe;
  std::atomic<CallProbe*>* slot = nullptr;
  if (kind != CallKind::Unprobed) {
    probe.copies.resize(procs.size());
    slot = &g_probes.at(static_cast<std::size_t>(procs.front()));
    slot->store(&probe, std::memory_order_release);
  }
  const std::int64_t t0 = now_ns();
  const int status = call.run();
  const std::int64_t t1 = now_ns();
  if (slot != nullptr) slot->store(nullptr, std::memory_order_release);
  tr->record_call(kind, procs, probe, t0, t1, parent, op);
  return status;
}

// ---------------------------------------------------------------------------
// The measured loop.

/// A measured run is cut into this many equal windows, and the
/// end-to-end rates are medians over them: a stall from another tenant of
/// the host then spoils one window, not the run.
constexpr int kWindows = 5;

struct Window {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> lat_ms;
};

struct Loop {
  std::vector<Window> windows;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t msgs = 0;

  std::vector<double> lat_ms() const {
    std::vector<double> all;
    for (const Window& w : windows) {
      all.insert(all.end(), w.lat_ms.begin(), w.lat_ms.end());
    }
    return all;
  }
  double ops() const {
    std::size_t n = 0;
    for (const Window& w : windows) n += w.lat_ms.size();
    return static_cast<double>(n);
  }
  double ops_per_s() const { return ratio(ops(), wall_s); }
};

struct OpOutcome {
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  bool ok = false;
};

/// Measures `seconds` of work as kWindows equal windows: latencies, wall
/// and process CPU time per window, and messages sent overall.  One thread
/// reports completions.
class LoopMeter {
 public:
  LoopMeter(tdp::vp::Machine& m, double seconds)
      : machine_(m),
        msgs0_(m.messages_sent()),
        start_(now_ns()),
        total_ns_(std::max<std::int64_t>(kWindows, seconds_to_ns(seconds))) {}

  /// Calls `work(end_ns)` once per window; it does work until `end_ns`
  /// and reports each completed operation.
  template <typename Work>
  Loop run(Work&& work) {
    for (int i = 1; i <= kWindows; ++i) {
      const std::int64_t begin = now_ns();
      const double cpu = cpu_seconds();
      loop_.windows.emplace_back();
      work(start_ + total_ns_ * i / kWindows);
      Window& w = loop_.windows.back();
      w.wall_s = static_cast<double>(now_ns() - begin) / 1e9;
      w.cpu_s = cpu_seconds() - cpu;
      loop_.cpu_s += w.cpu_s;
    }
    loop_.wall_s = static_cast<double>(now_ns() - start_) / 1e9;
    loop_.msgs = machine_.messages_sent() - msgs0_;
    return std::move(loop_);
  }

  void completed(double lat_ms) { loop_.windows.back().lat_ms.push_back(lat_ms); }

 private:
  tdp::vp::Machine& machine_;
  std::uint64_t msgs0_;
  std::int64_t start_;
  std::int64_t total_ns_;
  Loop loop_;
};

/// A closed loop of one caller: the next operation starts when the
/// previous one has completed and been checked.  Each window runs at least
/// one operation.
template <typename Op>
Loop closed_loop(tdp::vp::Machine& m, double seconds, std::int64_t& next_op,
                 OpCounter& counter, Op&& op) {
  LoopMeter meter(m, seconds);
  return meter.run([&](std::int64_t end) {
    do {
      const OpOutcome r = op(next_op++);
      meter.completed(static_cast<double>(r.t1 - r.t0) / 1e6);
      counter.record(r.ok);
    } while (now_ns() < end);
  });
}

// ---------------------------------------------------------------------------
// inner_product (E6.1, §6.1): back-to-back test_iprdv calls on all VPs.

struct InnerProduct {
  struct Env {
    std::unique_ptr<core::Runtime> rt;
    std::vector<int> procs;
    ArrayId v1;
    ArrayId v2;
  };

  explicit InnerProduct(const Options& o)
      : local_m(o.iprdv_local_m), m(kVps * o.iprdv_local_m) {
    // V1[i] == V2[i] == i+1, so the product is the sum of squares 1..M,
    // exact in double for these sizes.
    for (int i = 1; i <= m; ++i) expected += static_cast<double>(i) * i;
    if (o.wrong_reference) expected += 1.0;
  }

  static std::unique_ptr<Env> setup(const Options& o, int nprocs,
                                    std::vector<double>& create_ms) {
    auto e = std::make_unique<Env>();
    e->rt = make_runtime(nprocs);
    e->procs = e->rt->all_procs();
    const int m = nprocs * o.iprdv_local_m;
    for (ArrayId* id : {&e->v1, &e->v2}) {
      *id = create_timed(*e->rt, {m}, e->procs, {dist::DimSpec::block()},
                         dist::Indexing::RowMajor, create_ms);
    }
    return e;
  }

  Loop measure(Env& e, double seconds, Trace* tr, OpCounter& counter,
               std::int64_t& next_op) const {
    const int p = static_cast<int>(e.procs.size());
    return closed_loop(
        e.rt->machine(), seconds, next_op, counter, [&](std::int64_t op) {
          std::vector<double> out;
          const std::uint32_t op_span = tr == nullptr ? 0 : tr->new_id();
          const std::int64_t s0 = now_ns();
          core::DistributedCall call = e.rt->call(e.procs, "test_iprdv");
          call.constant(e.procs)
              .constant(p)
              .index()
              .constant(m)
              .constant(local_m)
              .local(e.v1)
              .local(e.v2)
              .reduce_f64(1, core::f64_max(), &out);
          const int st = timed_run(call, e.procs, tr, CallKind::Iprdv, op_span,
                                   static_cast<std::uint64_t>(op));
          const std::int64_t s1 = now_ns();
          if (tr != nullptr) {
            tr->span("op.inner_product", s0, s1, op_span, 0,
                     static_cast<std::uint64_t>(op), kHostTid);
          }
          const bool ok =
              st == tdp::kStatusOk && out.size() == 1 && out[0] == expected;
          return OpOutcome{s0, s1, ok};
        });
  }

  double speedup_vs_1vp(const Options&, double, OpCounter&) const { return 0.0; }

  int local_m;
  int m;
  double expected = 0.0;
};

// ---------------------------------------------------------------------------
// fft_pipeline (E6.2, §6.2, fig. 6.1): inverse FFT x2 -> combine -> forward
// FFT on three disjoint groups joined by streams.

using Dataset = std::vector<double>;  // interleaved complex

/// One pair (or its evaluations, or its product) travelling the pipeline.
struct Item {
  std::int64_t op = 0;
  std::uint32_t span = 0;  ///< the op span, recorded by the consumer
  std::int64_t t0 = 0;     ///< when the producer put it
  bool ok = true;          ///< every element request and call succeeded
  Dataset data;
};

struct FftPipeline {
  struct Group {
    std::vector<int> procs;
    ArrayId data;
    ArrayId eps;
  };
  struct Env {
    std::unique_ptr<core::Runtime> rt;
    int nn = 0;
    std::array<Group, 3> groups;  // phase1a, phase1b, phase2
  };

  explicit FftPipeline(const Options& o)
      : pairs(make_poly_pairs(o.seed, std::max(1, o.fft_pool), o.fft_coeffs)) {
    for (const PolyPair& p : pairs) {
      refs.push_back(tdp::fft::poly_mul_naive(p.f, p.g));
      if (o.wrong_reference) refs.back()[0] += 1.0;
    }
  }

  static std::unique_ptr<Env> setup(const Options& o, int nprocs,
                                    std::vector<double>& create_ms) {
    if (nprocs != 4) {
      throw std::invalid_argument("fft_pipeline runs on 1 + 1 + 2 = 4 VPs");
    }
    auto e = std::make_unique<Env>();
    e->rt = make_runtime(nprocs);
    e->nn = 2 * o.fft_coeffs;
    const std::array<std::vector<int>, 3> procs = {
        std::vector<int>{0}, std::vector<int>{1}, std::vector<int>{2, 3}};
    for (std::size_t g = 0; g < procs.size(); ++g) {
      Group& grp = e->groups[g];
      grp.procs = procs[g];
      grp.data = create_timed(*e->rt, {2 * e->nn}, grp.procs,
                              {dist::DimSpec::block()},
                              dist::Indexing::RowMajor, create_ms);
      // Eps (2*NN, P) distributed ("*", block): each copy holds the full
      // table of roots (§6.2.2).
      grp.eps = create_timed(
          *e->rt, {2 * e->nn, static_cast<int>(grp.procs.size())}, grp.procs,
          {dist::DimSpec::star(), dist::DimSpec::block()},
          dist::Indexing::ColumnMajor, create_ms);
      if (e->rt->call(grp.procs, "compute_roots")
              .constant(e->nn)
              .local(grp.eps)
              .run() != tdp::kStatusOk) {
        throw std::runtime_error("compute_roots failed");
      }
    }
    return e;
  }

  // Element-by-element input and output through the array manager
  // (§6.2.2 get_input/pad_input/put_output).  Each returns the number of
  // element requests made and clears `ok` on a failed one.

  static int write_bit_reversed(Env& e, const Group& g, const Dataset& coeffs,
                                bool& ok) {
    const int bits = tdp::util::floor_log2(e.nn);
    for (int j = 0; j < e.nn; ++j) {
      const int pos = static_cast<int>(
          tdp::util::bit_reverse(bits, static_cast<std::uint64_t>(j)));
      const double re = j < static_cast<int>(coeffs.size())
                            ? coeffs[static_cast<std::size_t>(j)]
                            : 0.0;
      const int re_at[1] = {2 * pos};
      const int im_at[1] = {2 * pos + 1};
      ok &= tdp::ok(e.rt->arrays().write_element(g.procs.front(), g.data,
                                                 re_at, dist::Scalar{re}));
      ok &= tdp::ok(e.rt->arrays().write_element(g.procs.front(), g.data,
                                                 im_at, dist::Scalar{0.0}));
    }
    return 2 * e.nn;
  }

  static int write_storage(Env& e, const Group& g, const Dataset& data,
                           bool& ok) {
    for (int s = 0; s < static_cast<int>(data.size()); ++s) {
      const int at[1] = {s};
      ok &= tdp::ok(e.rt->arrays().write_element(
          g.procs.front(), g.data, at,
          dist::Scalar{data[static_cast<std::size_t>(s)]}));
    }
    return static_cast<int>(data.size());
  }

  static int read_storage(Env& e, const Group& g, Dataset& out, bool& ok) {
    out.assign(static_cast<std::size_t>(2 * e.nn), 0.0);
    for (int s = 0; s < 2 * e.nn; ++s) {
      const int at[1] = {s};
      dist::Scalar v;
      ok &= tdp::ok(e.rt->arrays().read_element(g.procs.front(), g.data, at, v));
      out[static_cast<std::size_t>(s)] = dist::scalar_to_double(v);
    }
    return 2 * e.nn;
  }

  static int read_bit_reversed(Env& e, const Group& g, Dataset& out, bool& ok) {
    const int bits = tdp::util::floor_log2(e.nn);
    out.assign(static_cast<std::size_t>(2 * e.nn), 0.0);
    for (int j = 0; j < e.nn; ++j) {
      const int pos = static_cast<int>(
          tdp::util::bit_reverse(bits, static_cast<std::uint64_t>(j)));
      for (int part = 0; part < 2; ++part) {
        const int at[1] = {2 * pos + part};
        dist::Scalar v;
        ok &= tdp::ok(
            e.rt->arrays().read_element(g.procs.front(), g.data, at, v));
        out[static_cast<std::size_t>(2 * j + part)] = dist::scalar_to_double(v);
      }
    }
    return 2 * e.nn;
  }

  static int fft_call(Env& e, const Group& g, const char* program, int flag,
                      Trace* tr, std::uint32_t parent, std::uint64_t op) {
    core::DistributedCall call = e.rt->call(g.procs, program);
    call.constant(g.procs)
        .constant(static_cast<int>(g.procs.size()))
        .index()
        .constant(e.nn)
        .constant(flag)
        .local(g.eps)
        .local(g.data);
    return timed_run(call, g.procs, tr, CallKind::Fft, parent, op);
  }

  /// Times one element-I/O helper in traced runs.
  template <typename F>
  static void io(Trace* tr, const char* name, std::uint32_t parent,
                 const Item& item, int tid, F&& f) {
    const std::int64_t t0 = now_ns();
    const int count = f();
    if (tr != nullptr) {
      tr->record_io(name, t0, now_ns(), count, parent,
                    static_cast<std::uint64_t>(item.op), tid);
    }
  }

  /// phase1 (§6.2.2): inverse FFT of each padded polynomial.
  static void phase1(Env& e, int stage, Trace* tr, pcn::Stream<Item> in,
                     pcn::Stream<Item> out) {
    const Group& g = e.groups[static_cast<std::size_t>(stage)];
    const int tid = kHostTid + 1 + stage;
    for (;;) {
      const std::int64_t w0 = now_ns();
      std::optional<Item> item = in.next();
      const std::int64_t w1 = now_ns();
      if (!item) break;
      const std::uint32_t id = tr == nullptr ? 0 : tr->new_id();
      io(tr, "dist.write_elements", id, *item, tid, [&] {
        return write_bit_reversed(e, g, item->data, item->ok);
      });
      item->ok &= fft_call(e, g, "fft_reverse", tdp::fft::kInverse, tr, id,
                           static_cast<std::uint64_t>(item->op)) ==
                  tdp::kStatusOk;
      io(tr, "dist.read_elements", id, *item, tid,
         [&] { return read_storage(e, g, item->data, item->ok); });
      if (tr != nullptr) {
        tr->record_stage(stage, w1 - w0, w1, now_ns(), id, item->span,
                         static_cast<std::uint64_t>(item->op));
      }
      out = out.put(std::move(*item));
    }
    out.close();
  }

  /// combine (§6.2.2): elementwise complex product of the evaluations.
  static void combine(Trace* tr, pcn::Stream<Item> in_a, pcn::Stream<Item> in_b,
                      pcn::Stream<Item> out) {
    for (;;) {
      const std::int64_t w0 = now_ns();
      std::optional<Item> a = in_a.next();
      std::optional<Item> b = in_b.next();
      const std::int64_t w1 = now_ns();
      if (!a || !b) break;
      Item prod = std::move(*a);
      prod.ok &= b->ok;
      Dataset& x = prod.data;
      const Dataset& y = b->data;
      for (std::size_t j = 0; j + 1 < x.size(); j += 2) {
        const double re = x[j] * y[j] - x[j + 1] * y[j + 1];
        const double im = y[j] * x[j + 1] + x[j] * y[j + 1];
        x[j] = re;
        x[j + 1] = im;
      }
      if (tr != nullptr) {
        tr->record_stage(2, w1 - w0, w1, now_ns(), tr->new_id(), prod.span,
                         static_cast<std::uint64_t>(prod.op));
      }
      out = out.put(std::move(prod));
    }
    out.close();
  }

  /// phase2 (§6.2.2): forward FFT back to product coefficients.
  static void phase2(Env& e, Trace* tr, pcn::Stream<Item> in,
                     pcn::Stream<Item> out) {
    const Group& g = e.groups[2];
    const int tid = kHostTid + 4;
    for (;;) {
      const std::int64_t w0 = now_ns();
      std::optional<Item> item = in.next();
      const std::int64_t w1 = now_ns();
      if (!item) break;
      const std::uint32_t id = tr == nullptr ? 0 : tr->new_id();
      io(tr, "dist.write_elements", id, *item, tid,
         [&] { return write_storage(e, g, item->data, item->ok); });
      item->ok &= fft_call(e, g, "fft_natural", tdp::fft::kForward, tr, id,
                           static_cast<std::uint64_t>(item->op)) ==
                  tdp::kStatusOk;
      io(tr, "dist.read_elements", id, *item, tid,
         [&] { return read_bit_reversed(e, g, item->data, item->ok); });
      if (tr != nullptr) {
        tr->record_stage(3, w1 - w0, w1, now_ns(), id, item->span,
                         static_cast<std::uint64_t>(item->op));
      }
      out = out.put(std::move(*item));
    }
    out.close();
  }

  /// The product must match the naive convolution within 1e-9: real parts
  /// against the reference (zero past degree 2n-2), imaginary parts zero.
  bool matches(const Item& h) const {
    const std::vector<double>& want =
        refs[static_cast<std::size_t>(h.op) % refs.size()];
    if (h.data.size() < 2 * want.size()) return false;
    for (std::size_t j = 0; 2 * j + 1 < h.data.size(); ++j) {
      const double re = j < want.size() ? want[j] : 0.0;
      if (!(std::fabs(h.data[2 * j] - re) < 1e-9)) return false;
      if (!(std::fabs(h.data[2 * j + 1]) < 1e-9)) return false;
    }
    return true;
  }

  /// Each window runs a pipeline of its own, started afresh and drained
  /// at the window's end, so one unlucky placement of the stage threads
  /// spoils one window and not the run.
  Loop measure(Env& e, double seconds, Trace* tr, OpCounter& counter,
               std::int64_t& next_op) const {
    LoopMeter meter(e.rt->machine(), seconds);
    return meter.run([&](std::int64_t deadline) {
      pipeline(e, deadline, tr, counter, next_op, meter);
    });
  }

  /// Pairs go in until `deadline`; returns when every product is out.
  void pipeline(Env& e, std::int64_t deadline, Trace* tr, OpCounter& counter,
                std::int64_t& next_op, LoopMeter& meter) const {
    // Each role moves in its own handle to each stream end it uses, so no
    // one keeps a stream's head and a cell is freed once read.
    pcn::Stream<Item> in_a;
    pcn::Stream<Item> in_b;
    pcn::Stream<Item> eval_a;
    pcn::Stream<Item> eval_b;
    pcn::Stream<Item> products;
    pcn::Stream<Item> results;
    pcn::Stream<int> credits;  // one per completed product, back to the producer
    pcn::Stream<Item> in_a_r = in_a;
    pcn::Stream<Item> in_b_r = in_b;
    pcn::Stream<Item> eval_a_r = eval_a;
    pcn::Stream<Item> eval_b_r = eval_b;
    pcn::Stream<Item> products_r = products;
    pcn::Stream<Item> results_r = results;
    pcn::Stream<int> credits_r = credits;
    pcn::par(
        // The producer keeps kInFlight pairs in flight: it puts the next
        // pair only when a product has come out.
        [&] {
          pcn::Stream<Item> ta = std::move(in_a);
          pcn::Stream<Item> tb = std::move(in_b);
          pcn::Stream<int> acks = std::move(credits_r);
          int in_flight = 0;
          do {
            if (in_flight == kInFlight) {
              acks.next();
              --in_flight;
            }
            Item a;
            a.op = next_op++;
            a.span = tr == nullptr ? 0 : tr->new_id();
            a.t0 = now_ns();
            const PolyPair& p =
                pairs[static_cast<std::size_t>(a.op) % pairs.size()];
            Item b = a;
            a.data = p.f;
            b.data = p.g;
            ta = ta.put(std::move(a));
            tb = tb.put(std::move(b));
            ++in_flight;
          } while (now_ns() < deadline);
          ta.close();
          tb.close();
        },
        [&] { phase1(e, 0, tr, std::move(in_a_r), std::move(eval_a)); },
        [&] { phase1(e, 1, tr, std::move(in_b_r), std::move(eval_b)); },
        [&] {
          combine(tr, std::move(eval_a_r), std::move(eval_b_r),
                  std::move(products));
        },
        [&] { phase2(e, tr, std::move(products_r), std::move(results)); },
        [&] {
          pcn::Stream<Item> r = std::move(results_r);
          pcn::Stream<int> acks = std::move(credits);
          for (std::optional<Item> h; (h = r.next());) {
            const std::int64_t t1 = now_ns();
            meter.completed(static_cast<double>(t1 - h->t0) / 1e6);
            counter.record(h->ok && matches(*h));
            if (tr != nullptr) {
              tr->span("op.product", h->t0, t1, h->span, 0,
                       static_cast<std::uint64_t>(h->op), kHostTid);
            }
            acks = acks.put(1);
          }
          acks.close();
        });
  }

  double speedup_vs_1vp(const Options&, double, OpCounter&) const { return 0.0; }

  /// Pairs in flight: the fewest that reach the highest ops_per_s when
  /// 1 to 4 were measured (perfbench/README.md); more only queue.
  static constexpr int kInFlight = 2;

  std::vector<PolyPair> pairs;
  std::vector<std::vector<double>> refs;
};

// ---------------------------------------------------------------------------
// linear_solve (ED, Appendix D): closed loop of single-call LU solves.

struct LinearSolve {
  struct Env {
    std::unique_ptr<core::Runtime> rt;
    std::vector<int> procs;
    int n = 0;
    ArrayId a;
    ArrayId b;
  };

  explicit LinearSolve(const Options& o)
      : seed(seed31(o.seed)), offset(o.wrong_reference ? 1.0 : 0.0) {}

  static std::unique_ptr<Env> setup(const Options& o, int nprocs,
                                    std::vector<double>& create_ms) {
    if (o.lu_n % nprocs != 0) {
      throw std::invalid_argument("linear_solve needs n divisible by the VPs");
    }
    auto e = std::make_unique<Env>();
    e->rt = make_runtime(nprocs);
    e->procs = e->rt->all_procs();
    e->n = o.lu_n;
    e->a = create_timed(*e->rt, {e->n, e->n}, e->procs,
                        {dist::DimSpec::block(), dist::DimSpec::star()},
                        dist::Indexing::RowMajor, create_ms);
    e->b = create_timed(*e->rt, {e->n}, e->procs, {dist::DimSpec::block()},
                        dist::Indexing::RowMajor, create_ms);
    return e;
  }

  /// One solve of system k.  Generating the system in place is input
  /// preparation and is not timed; the check reads x back afterwards.
  OpOutcome solve(Env& e, Trace* tr, std::int64_t k) const {
    const std::uint64_t op = static_cast<std::uint64_t>(k);
    const std::uint32_t op_span = tr == nullptr ? 0 : tr->new_id();
    core::DistributedCall gen = e.rt->call(e.procs, "perfbench_lu_generate");
    gen.constant(e.n).constant(seed).constant(static_cast<int>(k))
        .local(e.a).local(e.b);
    bool ok = timed_run(gen, e.procs, tr, CallKind::Unprobed, op_span, op) ==
              tdp::kStatusOk;

    const std::int64_t s0 = now_ns();
    core::DistributedCall call = e.rt->call(e.procs, "lu_solve_system");
    call.constant(e.n).local(e.a).local(e.b).status();
    ok &= timed_run(call, e.procs, tr, CallKind::Lu, op_span, op) ==
          tdp::kStatusOk;
    const std::int64_t s1 = now_ns();
    if (tr != nullptr) tr->span("op.solve", s0, s1, op_span, 0, op, kHostTid);

    const std::uint64_t key = lu_system_key(seed, static_cast<int>(k));
    double err = 0.0;
    for (int i = 0; i < e.n && ok; ++i) {
      const int at[1] = {i};
      dist::Scalar x;
      ok &= tdp::ok(e.rt->arrays().read_element(e.procs.front(), e.b, at, x));
      err = std::max(err, std::fabs(dist::scalar_to_double(x) -
                                    (lu_x_true(key, i) + offset)));
    }
    return OpOutcome{s0, s1, ok && err < 1e-9};
  }

  Loop measure(Env& e, double seconds, Trace* tr, OpCounter& counter,
               std::int64_t& next_op) const {
    return closed_loop(e.rt->machine(), seconds, next_op, counter,
                       [&](std::int64_t k) { return solve(e, tr, k); });
  }

  /// The same solves on a 1-VP runtime, the plain serial baseline.
  double speedup_vs_1vp(const Options& o, double p50_ms,
                        OpCounter& counter) const {
    std::vector<double> unused;
    const std::unique_ptr<Env> one = setup(o, 1, unused);
    std::vector<double> ms;
    for (int k = 0; k < std::max(1, o.speedup_solves); ++k) {
      const OpOutcome r = solve(*one, nullptr, k);
      counter.record(r.ok);
      ms.push_back(static_cast<double>(r.t1 - r.t0) / 1e6);
    }
    return ratio(median(ms), p50_ms);
  }

  int seed;
  double offset;
};

// ---------------------------------------------------------------------------

std::vector<double> allreduce_probe(core::Runtime& rt, const Options& o) {
  {
    std::lock_guard<std::mutex> lock(g_allreduce.mu);
    g_allreduce.us.clear();
  }
  rt.call(rt.all_procs(), "perfbench_allreduce")
      .constant(std::max(1, o.allreduce_reps))
      .constant(o.iprdv_local_m)
      .run();
  std::lock_guard<std::mutex> lock(g_allreduce.mu);
  return g_allreduce.us;
}

std::vector<Metric> end_to_end(const Loop& l, double setup_s,
                               const OpCounter& all) {
  std::vector<double> rate;
  std::vector<double> cpu_ms;
  for (const Window& w : l.windows) {
    if (w.lat_ms.empty()) continue;
    const double n = static_cast<double>(w.lat_ms.size());
    rate.push_back(ratio(n, w.wall_s));
    cpu_ms.push_back(w.cpu_s * 1e3 / n);
  }
  return {
      {"ops_per_s", median(rate), "1/s"},
      {"op_p50_ms", median(l.lat_ms()), "ms"},
      {"cpu_ms_per_op", median(cpu_ms), "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"setup_s", setup_s, "s"},
      {"ok_ratio", 1.0 - all.fail_ratio(), "ratio"},
  };
}

/// Every per-layer metric; a layer the workload does not exercise reads 0.
/// op_tail_ms is the untraced half's tail: it is reported here, without a
/// bound, because no bound the benchmark may set holds it on a shared host.
std::vector<Metric> per_layer(const Trace& t, const Loop& plain,
                              const Loop& traced, const Tail& tail,
                              double create_ms,
                              const std::vector<double>& allreduce_us,
                              double speedup, int lu_n) {
  double busy = 0.0;
  for (double b : t.stage_busy_ns) busy += b;
  const double wall_ns = traced.wall_s * 1e9;
  const double trisolve_ms = median(t.trisolve_ms);
  return {
      {"op_tail_ms", tail.value, "ms"},
      {"core.call_us_p50", median(t.call_us), "us"},
      {"core.fanout_us_p50", median(t.fanout_us), "us"},
      {"core.join_us_p50", median(t.join_us), "us"},
      {"core.control_share", ratio(t.control_ns, t.call_ns), "ratio"},
      {"core.calls_per_op", ratio(static_cast<double>(t.calls), traced.ops()),
       "count"},
      {"dist.element_us_p50", median(t.element_us), "us"},
      {"dist.element_ops_per_op",
       ratio(static_cast<double>(t.element_ops), traced.ops()), "count"},
      {"dist.io_share", ratio(t.io_ns, busy), "ratio"},
      {"dist.create_ms", create_ms, "ms"},
      {"pcn.stream_wait_us_p50", median(t.stream_wait_us), "us"},
      {"pcn.stage_busy_share.phase1a", ratio(t.stage_busy_ns[0], wall_ns),
       "ratio"},
      {"pcn.stage_busy_share.phase1b", ratio(t.stage_busy_ns[1], wall_ns),
       "ratio"},
      {"pcn.stage_busy_share.combine", ratio(t.stage_busy_ns[2], wall_ns),
       "ratio"},
      {"pcn.stage_busy_share.phase2", ratio(t.stage_busy_ns[3], wall_ns),
       "ratio"},
      {"fft.exec_us_p50", median(t.fft_exec_us), "us"},
      {"fft.exec_share", ratio(t.fft_exec_ns, busy), "ratio"},
      {"linalg.factor_ms_p50", median(t.factor_ms), "ms"},
      {"linalg.trisolve_ms_p50", trisolve_ms, "ms"},
      {"linalg.copy_imbalance", median(t.imbalance), "ratio"},
      {"linalg.speedup_vs_1vp", speedup, "ratio"},
      {"spmd.allreduce_us_p50", median(allreduce_us), "us"},
      {"spmd.trisolve_step_us",
       t.trisolve_ms.empty() ? 0.0 : trisolve_ms * 1e3 / (2.0 * lu_n), "us"},
      {"vp.msgs_per_op", ratio(static_cast<double>(traced.msgs), traced.ops()),
       "count"},
      {"bench.trace_overhead", ratio(plain.ops_per_s(), traced.ops_per_s()),
       "ratio"},
  };
}

// ---------------------------------------------------------------------------
// Set-up timing in fresh processes.  One process's set-ups mostly stay in
// one of two modes (inner_product: 12 or 19 us, by where the kernel places
// the VP server threads), so setup_s pools the set-ups of kSetupProcesses
// fresh processes, run one after another.  Each is the benchmark binary in
// its --setup-child mode; forked copies of this process spread wider.

constexpr int kSetupProcesses = 8;

void write_all(int fd, const void* data, std::size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t k = ::write(fd, p, n);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) throw std::runtime_error("set-up timing: write failed");
    p += k;
    n -= static_cast<std::size_t>(k);
  }
}

bool read_all(int fd, void* data, std::size_t n) {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t k = ::read(fd, p, n);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) return false;
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

void write_samples(int fd, const std::vector<double>& v) {
  const std::uint64_t n = v.size();
  write_all(fd, &n, sizeof n);
  write_all(fd, v.data(), v.size() * sizeof(double));
}

bool read_samples(int fd, std::vector<double>& out) {
  std::uint64_t n = 0;
  if (!read_all(fd, &n, sizeof n)) return false;
  const std::size_t at = out.size();
  out.resize(at + n);
  return read_all(fd, out.data() + at, n * sizeof(double));
}

template <typename W>
void setup_loop(const Options& o, int fd) {
  std::vector<double> times;
  std::vector<double> creates;
  const std::int64_t deadline = now_ns() + seconds_to_ns(o.setup_seconds);
  do {
    const std::int64_t t0 = now_ns();
    const std::unique_ptr<typename W::Env> env = W::setup(o, kVps, creates);
    times.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  } while (now_ns() < deadline);
  write_samples(fd, times);
  write_samples(fd, creates);
}

/// Appends every set-up process's set-up times (s) and create_array
/// times (ms).
void time_setups(const std::string& name, const Options& o,
                 std::vector<double>& setup_s, std::vector<double>& create_ms) {
  std::vector<std::string> args = {o.setup_exe,   "--workload",
                                   name,          "--seed",
                                   std::to_string(o.seed), "--setup-child",
                                   std::to_string(o.setup_seconds)};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  for (int c = 0; c < kSetupProcesses; ++c) {
    int fd[2];
    if (::pipe(fd) != 0) throw std::runtime_error("set-up timing: pipe failed");
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("set-up timing: fork failed");
    if (pid == 0) {
      ::dup2(fd[1], STDOUT_FILENO);
      ::close(fd[0]);
      ::close(fd[1]);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(fd[1]);
    const bool ok = read_samples(fd[0], setup_s) && read_samples(fd[0], create_ms);
    ::close(fd[0]);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!ok || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error("set-up timing: " + o.setup_exe +
                               " --setup-child failed");
    }
  }
}

template <typename W>
Result drive(const std::string& name, const Options& o) {
  Result res;
  // Set-up (runtime construction, array creation, compute_roots) is timed
  // in other processes, before the measurement.
  std::vector<double> setup_s;
  std::vector<double> create_ms;
  time_setups(name, o, setup_s, create_ms);
  std::vector<double> unused;
  const std::unique_ptr<typename W::Env> env = W::setup(o, kVps, unused);
  res.transport = env->rt->machine().transport().name();

  const W w(o);  // the reference computation, outside set-up
  std::int64_t next_op = 0;
  if (o.warmup_seconds > 0.0) {
    w.measure(*env, o.warmup_seconds, nullptr, res.ops, next_op);
  }
  if (o.spans == nullptr) {
    const Loop l = w.measure(*env, o.seconds, nullptr, res.ops, next_op);
    res.metrics = end_to_end(l, median(setup_s), res.ops);
    return res;
  }
  const Loop plain = w.measure(*env, o.seconds / 2, nullptr, res.ops, next_op);
  res.tail = supported_tail(plain.lat_ms());
  instrument_programs(env->rt->programs());
  Trace tr(o.spans);
  const Loop traced = w.measure(*env, o.seconds / 2, &tr, res.ops, next_op);
  const std::vector<double> allreduce_us = allreduce_probe(*env->rt, o);
  const double speedup = w.speedup_vs_1vp(o, median(plain.lat_ms()), res.ops);
  res.metrics = per_layer(tr, plain, traced, res.tail, median(create_ms),
                          allreduce_us, speedup, o.lu_n);
  return res;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"inner_product",
                                                 "fft_pipeline", "linear_solve"};
  return names;
}

Result run_workload(const std::string& name, const Options& opts) {
  if (name == "inner_product") return drive<InnerProduct>(name, opts);
  if (name == "fft_pipeline") return drive<FftPipeline>(name, opts);
  if (name == "linear_solve") return drive<LinearSolve>(name, opts);
  throw std::invalid_argument("unknown workload: " + name);
}

void time_setups_to(const std::string& name, const Options& opts, int fd) {
  if (name == "inner_product") return setup_loop<InnerProduct>(opts, fd);
  if (name == "fft_pipeline") return setup_loop<FftPipeline>(opts, fd);
  if (name == "linear_solve") return setup_loop<LinearSolve>(opts, fd);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perfbench
