#include "spans.hpp"

#include <cstdio>

namespace perfbench {

SpanLog::SpanLog() { spans_.reserve(4096); }

void SpanLog::add(const Span& s) {
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= kCapacity) {
    ++dropped_;
    return;
  }
  spans_.push_back(s);
}

std::size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::size_t SpanLog::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

bool SpanLog::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                 "\"pid\":0,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%u,\"parent\":%u,\"op\":%llu}}\n",
                 i == 0 ? "" : ",", s.name, s.tid,
                 static_cast<double>(s.start_ns - epoch_ns_) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.id,
                 s.parent, static_cast<unsigned long long>(s.op));
  }
  std::fprintf(f, "],\"otherData\":{\"source\":\"perfbench\",\"kept\":%zu,"
                  "\"dropped\":%zu}}\n",
               spans_.size(), dropped_);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
