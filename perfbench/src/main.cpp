// perfbench: one end-to-end benchmark for the thesis's three workloads.
//
//   perfbench --workload inner_product|fft_pipeline|linear_solve
//             --seed N --seconds S --trace 0|1
//             [--trace-out PATH] [--commit SHA]
//
// Prints a context line, then as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1, which also writes the benchmark's spans to --trace-out).
// perfbench/README.md says what each workload and metric is for.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include <unistd.h>

#include "obs/trace.hpp"
#include "sched/sched.hpp"
#include "spmd/coll.hpp"
#include "vp/mailbox.hpp"
#include "workloads.hpp"

namespace {

// A sanitizer build is refused whichever way it was made: CMake flags it
// when the compile flags name -fsanitize (UBSan has no predefined macro),
// GCC predefines macros for ASan and TSan, and clang answers __has_feature.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) ||                                      \
    __has_feature(undefined_behavior_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif

bool optimized_build() {
#if defined(PERFBENCH_SANITIZED) || !defined(NDEBUG)
  return false;
#else
  return std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#endif
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "inner_product|fft_pipeline|linear_solve --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH] [--commit SHA]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string trace_out = "perfbench_trace.json";
  std::string commit = "unknown";
  perfbench::Options opts;
  bool traced = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool setup_child = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      opts.seed = std::strtoull(val, &end, 10);
      if (*end != '\0') return usage("--seed takes an unsigned integer");
      have_seed = true;
    } else if (key == "--seconds") {
      opts.seconds = std::strtod(val, &end);
      if (*end != '\0' || !(opts.seconds > 0.0)) {
        return usage("--seconds takes a positive number");
      }
      have_seconds = true;
    } else if (key == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) {
        return usage("--trace takes 0 or 1");
      }
      traced = val[0] == '1';
    } else if (key == "--setup-child") {
      // Internal: a set-up timing process started by the benchmark itself.
      opts.setup_seconds = std::strtod(val, &end);
      if (*end != '\0' || !(opts.setup_seconds > 0.0)) {
        return usage("--setup-child takes a positive number of seconds");
      }
      setup_child = true;
    } else if (key == "--trace-out") {
      trace_out = val;
    } else if (key == "--commit") {
      commit = val;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("arguments come in --key value pairs");
  if (setup_child && !workload.empty() && have_seed) {
    try {
      perfbench::time_setups_to(workload, opts, STDOUT_FILENO);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s\n", e.what());
      return 1;
    }
    return 0;
  }
  if (workload.empty() || !have_seed || !have_seconds) {
    return usage("--workload, --seed and --seconds are required");
  }
  if (!optimized_build()) {
    std::fprintf(stderr,
                 "perfbench: refusing to report from a %s build; build "
                 "with CMAKE_BUILD_TYPE=Release and no sanitizer\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }

  perfbench::SpanLog spans;
  if (traced) opts.spans = &spans;
  perfbench::Result res;
  try {
    res = perfbench::run_workload(workload, opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (traced && !spans.write_chrome_json(trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
    return 1;
  }

  // The run context: what the runtime resolved, so a changed default shows.
  namespace sched = tdp::sched;
  std::string ctx = "{\"perfbench_context\":{";
  ctx += "\"workload\":" + json_string(workload);
  ctx += ",\"seed\":" + std::to_string(opts.seed);
  ctx += ",\"seconds\":" + json_number(opts.seconds);
  ctx += ",\"trace\":" + std::to_string(traced ? 1 : 0);
  ctx += ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  ctx += ",\"vps\":" + std::to_string(perfbench::kVps);
  ctx += ",\"commit\":" + json_string(commit);
  ctx += ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE);
  ctx += ",\"TDP_SCHED\":" +
         json_string(sched::sched_mode() == sched::SchedMode::Steal ? "steal"
                                                                    : "thread");
  ctx += ",\"TDP_TRANSPORT\":" + json_string(res.transport);
  ctx += ",\"TDP_MAILBOX\":" +
         json_string(tdp::vp::mailbox_mode() == tdp::vp::MailboxMode::Linear
                         ? "linear"
                         : "indexed");
  ctx += ",\"TDP_COLL\":" +
         json_string(tdp::spmd::coll::algorithm() == tdp::spmd::coll::Algo::Linear
                         ? "linear"
                         : "tree");
  ctx += ",\"TDP_OBS\":" + json_string(tdp::obs::enabled() ? "1" : "0");
  if (traced) {
    ctx += ",\"trace_file\":" + json_string(trace_out);
    ctx += ",\"spans_kept\":" + std::to_string(spans.size());
    ctx += ",\"spans_dropped\":" + std::to_string(spans.dropped());
    ctx += ",\"op_tail_percentile\":" + json_number(res.tail.percentile);
    ctx += ",\"op_tail_beyond\":" + std::to_string(res.tail.beyond);
    ctx += ",\"op_tail_samples\":" + std::to_string(res.tail.samples);
  }
  ctx += "}}";
  std::printf("%s\n", ctx.c_str());

  std::string out = "{\"correct\":";
  out += res.ops.failed == 0 ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(res.ops.attempted);
  out += ",\"failed\":" + std::to_string(res.ops.failed);
  out += ",\"metrics\":{";
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const perfbench::Metric& m = res.metrics[i];
    if (i != 0) out += ",";
    out += json_string(m.name) + ":{\"value\":" + json_number(m.value) +
           ",\"unit\":" + json_string(m.unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
