// The benchmark's own span log: spans recorded from outside the runtime,
// around the benchmark's calls into each layer.  Spans live in memory and
// are written once, at exit, as Chrome trace_event JSON (loadable by
// tools/tdp_trace and chrome://tracing).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Trace rows for spans recorded off the virtual processors.
inline constexpr int kHostTid = 100;

struct Span {
  const char* name = "";  ///< a string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  std::uint64_t op = 0;      ///< operation the span belongs to
  int tid = kHostTid;        ///< virtual processor, or a host row
};

class SpanLog {
 public:
  /// Spans kept; later ones are counted, not kept.
  static constexpr std::size_t kCapacity = std::size_t{1} << 18;

  SpanLog();

  /// A fresh span id, so children can name a parent that has not ended.
  std::uint32_t new_id() { return next_id_.fetch_add(1) + 1; }

  void add(const Span& s);

  std::size_t size() const;
  std::size_t dropped() const;

  /// Writes every kept span as a Chrome "X" event; false on I/O failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  std::atomic<std::uint32_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::size_t dropped_ = 0;
  std::int64_t epoch_ns_ = now_ns();
};

}  // namespace perfbench
