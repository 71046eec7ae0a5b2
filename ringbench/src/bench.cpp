#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>

namespace ringbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Ledger::report(const std::string& line) {
  constexpr std::size_t kMaxReported = 200;
  if (reported_.size() < kMaxReported && reported_.insert(line).second)
    std::cerr << "ringbench: " << line << "\n";
}

void Ledger::record(const std::string& op,
                    const std::vector<std::string>& mismatches) {
  ++attempted_;
  if (mismatches.empty()) return;
  ++failed_;
  for (const std::string& m : mismatches)
    report("wrong answer: " + op + ": " + m);
}

void Ledger::record_error(const std::string& op, const std::string& what) {
  ++attempted_;
  ++failed_;
  report("error: " + op + ": " + what);
}

int Tracer::open(const std::string& name, std::size_t lanes) {
  if (!on_) return -1;
  SpanRecord s;
  s.name = name;
  s.lanes = lanes;
  s.start_s = seconds_since(t0_);
  s.parent = current_;
  s.run = run_;
  spans_.push_back(std::move(s));
  current_ = static_cast<int>(spans_.size()) - 1;
  return current_;
}

void Tracer::close(int idx) {
  if (idx < 0) return;
  spans_[idx].end_s = seconds_since(t0_);
  current_ = spans_[idx].parent;
}

double Tracer::total(const std::string& name, std::size_t lanes,
                     std::uint32_t run) const {
  double sum = 0;
  for (const SpanRecord& s : spans_)
    if (s.run == run && s.lanes == lanes && s.name == name)
      sum += s.end_s - s.start_s;
  return sum;
}

bool Tracer::write_json(const std::string& path, const std::string& workload,
                        std::uint64_t seed) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"workload\":\"" << workload << "\",\"seed\":" << seed
      << ",\"spans\":[";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "\",\"lanes\":%zu,\"start_s\":%.9f,\"end_s\":%.9f,"
                  "\"parent\":%d,\"run\":%u}",
                  s.lanes, s.start_s, s.end_s, s.parent, s.run);
    out << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\"" << s.name
        << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out.flush());
}

}  // namespace ringbench
