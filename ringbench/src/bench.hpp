// Shared pieces of the ringstab benchmark: clocks, sample statistics, the
// known-answer ledger, the seeded generator and the in-memory span recorder.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace ringbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median of the samples (mean of the middle pair); 0 for none.
double median(std::vector<double> v);

/// Linear-interpolated percentile, q in [0, 1]; 0 for no samples.
double percentile(std::vector<double> v, double q);

/// Process RSS high-water mark in MiB.
double peak_rss_mb();

/// splitmix64: the benchmark derives every input from --seed through it, so
/// the same seed gives the same inputs on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Counts operations and the ones whose result differs from the known
/// answer. One operation is one verdict-producing call: a check, a quotient
/// check, a synthesis run or a served request.
class Ledger {
 public:
  /// Records one operation; it failed iff `mismatches` is non-empty.
  void record(const std::string& op,
              const std::vector<std::string>& mismatches);
  /// Records one operation that threw.
  void record_error(const std::string& op, const std::string& what);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  void report(const std::string& line);

  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::set<std::string> reported_;  // distinct lines already on stderr
};

/// Appends "field: got X, want Y" to `out` when got != want.
template <typename A, typename B>
void expect_eq(std::vector<std::string>& out, const char* field, const A& got,
               const B& want) {
  if (got == want) return;
  std::ostringstream os;
  os << field << ": got " << got << ", want " << want;
  out.push_back(os.str());
}

/// One recorded span: a timed call into a library layer.
struct SpanRecord {
  std::string name;       // layer call, e.g. "global.scc"
  std::size_t lanes = 0;  // worker lanes of the call (0 = not laned)
  double start_s = 0;     // seconds since the tracer was created
  double end_s = 0;
  int parent = -1;        // index of the enclosing span, -1 for a root
  std::uint32_t run = 0;  // traced repetition the span belongs to
};

/// Keeps spans in memory; write_json() dumps them when the run ends. When
/// off, time() still times the call but records nothing.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), t0_(Clock::now()) {}

  void set_run(std::uint32_t run) { run_ = run; }

  /// Runs fn() inside a span and returns its duration in seconds.
  template <typename Fn>
  double time(const std::string& name, std::size_t lanes, Fn&& fn) {
    const int idx = open(name, lanes);
    const Clock::time_point t = Clock::now();
    fn();
    const double dt = seconds_since(t);
    close(idx);
    return dt;
  }

  /// Sum of span durations named `name` at `lanes` in repetition `run`.
  double total(const std::string& name, std::size_t lanes,
               std::uint32_t run) const;

  bool write_json(const std::string& path, const std::string& workload,
                  std::uint64_t seed) const;

 private:
  int open(const std::string& name, std::size_t lanes);
  void close(int idx);

  bool on_;
  Clock::time_point t0_;
  std::uint32_t run_ = 0;
  int current_ = -1;
  std::vector<SpanRecord> spans_;
};

/// A metric as printed: value plus unit.
struct Metric {
  double value = 0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

}  // namespace ringbench
