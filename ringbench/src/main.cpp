// ringbench: the ringstab benchmark binary.
//
//   ringbench --workload NAME --seed N --seconds S --trace 0|1
//             [--scratch DIR] [--repo-root DIR] [--tiny] [--inject-mismatch]
//
// Sets up the workload, then repeats the workload's passes, and further
// set-ups (the median is setup_s), until --seconds would be exceeded. With
// --trace 0 it reports the end-to-end metrics; with --trace 1 it runs the
// same work split per layer call, records spans, and reports the per-layer
// metrics. The last line of stdout is one JSON object: correct, attempted,
// failed, metrics.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <iostream>
#include <memory>
#include <string>

#include "bench.hpp"
#include "inputs.hpp"
#include "parallel/thread_pool.hpp"
#include "phases.hpp"

namespace ringbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratch = ".bench_build";
  std::string repo_root = ".";
  bool tiny = false;
  bool inject_mismatch = false;
};

constexpr int kMaxRuns = 100000;  // phase runs, or traced repetitions

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "ringbench: " << why
            << "\nusage: ringbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--scratch DIR] [--repo-root DIR] "
               "[--tiny] [--inject-mismatch]\n";
  std::exit(2);
}

std::uint64_t to_u64(const std::string& flag, const std::string& v) {
  try {
    std::size_t used = 0;
    const unsigned long long x = std::stoull(v, &used);
    if (used == v.size() && v[0] != '-') return x;
  } catch (const std::exception&) {
  }
  usage("invalid " + flag + " value '" + v + "'");
}

Options parse_args(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = to_u64(a, value());
    } else if (a == "--seconds") {
      o.seconds = static_cast<double>(to_u64(a, value()));
    } else if (a == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (a == "--scratch") {
      o.scratch = value();
    } else if (a == "--repo-root") {
      o.repo_root = value();
    } else if (a == "--tiny") {
      o.tiny = true;
    } else if (a == "--inject-mismatch") {
      o.inject_mismatch = true;
    } else {
      usage("unknown argument '" + a + "'");
    }
  }
  if (!have_workload) usage("--workload is required");
  return o;
}

/// Corrupts one known answer, so the self-test can see it counted.
void inject_mismatch(Workload& w) {
  if (!w.rings.empty())
    ++w.rings.front().want.deadlocks;
  else if (!w.synth.empty())
    ++w.synth.front().want.candidates;
}

void print_result(const Ledger& ledger, const MetricMap& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              ledger.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(ledger.attempted()),
              static_cast<unsigned long long>(ledger.failed()));
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

/// Median of each metric over the repetitions' maps.
MetricMap median_of(const std::vector<MetricMap>& reps) {
  MetricMap out;
  if (reps.empty()) return out;
  for (const auto& [name, m] : reps.front()) {
    std::vector<double> v;
    for (const MetricMap& r : reps) v.push_back(r.at(name).value);
    out[name] = {median(v), m.unit};
  }
  return out;
}

/// Per-layer metrics of traced repetition `run`, read back from its spans.
void layer_metrics(const Tracer& tr, std::uint32_t run, std::size_t nlanes,
                   MetricMap& out) {
  for (const char* stage :
       {"census", "graph_build", "scc", "weak_convergence", "recovery"}) {
    const std::string span = std::string("global.") + stage;
    const double one = tr.total(span, 1, run);
    const double many = tr.total(span, nlanes, run);
    out[span + "_ms_1lane"] = {1e3 * one, "ms"};
    out[span + "_ms_nlanes"] = {1e3 * many, "ms"};
    out[std::string("global.lane_speedup.") + stage] = {
        many > 0 ? one / many : 0, "x"};
  }
  out["global.array_ms"] = {1e3 * tr.total("global.array", 1, run), "ms"};
  for (const char* span : {"symmetry.census", "symmetry.check",
                           "synthesis.local", "synthesis.global"}) {
    out[std::string(span) + "_ms_1lane"] = {1e3 * tr.total(span, 1, run),
                                            "ms"};
    out[std::string(span) + "_ms_nlanes"] = {
        1e3 * tr.total(span, nlanes, run), "ms"};
  }
}

/// The traced calls that correspond one to one with the untraced passes.
double traced_engine_seconds(const Tracer& tr, std::uint32_t run,
                             std::size_t nlanes) {
  double sum = 0;
  for (const std::size_t lanes : {std::size_t{1}, nlanes}) {
    for (const char* span :
         {"global.census", "global.graph_build", "global.scc",
          "global.weak_convergence", "global.recovery", "global.array",
          "symmetry.check", "synthesis.local", "synthesis.global"})
      sum += tr.total(span, lanes, run);
  }
  return sum;
}

/// A phase shorter than this gets one slice of this length per round.
constexpr double kSliceSeconds = 0.5;

/// One end-to-end phase: its metric samples and the wall time spent in it.
struct Phase {
  std::string metric;
  std::function<double()> run;  // returns the metric sample in seconds
  std::vector<double> samples = {};
  double last_wall = 0;
  double spent = 0;

  /// Rounds served so far: runs for a phase of a slice or more, slices for
  /// a shorter one.
  double rounds() const {
    return std::min(static_cast<double>(samples.size()),
                    spent / kSliceSeconds);
  }
};

/// Runs the phases in rounds: each round runs every phase once, and a phase
/// shorter than kSliceSeconds as often as fits in one slice. Among the
/// phases whose last run still fits in the budget, the one with the fewest
/// rounds runs next. So the multi-second full passes get a sample in every
/// round, spread over the whole run, instead of one at its start, and once
/// they no longer fit the cheap phases fill the rest. Timings are medians
/// over each phase's samples.
MetricMap measure_end_to_end(Phases& phases, ServeHarness& harness,
                             double seconds, std::size_t nlanes,
                             const std::function<double()>& set_up,
                             double first_setup_s) {
  std::vector<double> latency_s;
  std::size_t served = 0;
  std::vector<Phase> plan = {
      {"setup_s", set_up, {first_setup_s}},
      {"full_s_1lane", [&] { return phases.full(1); }},
      {"full_s_nlanes", [&] { return phases.full(nlanes); }},
      {"quotient_s_1lane", [&] { return phases.quotient(1); }},
      {"quotient_s_nlanes", [&] { return phases.quotient(nlanes); }},
      {"synth_s_1lane", [&] { return phases.synth(1); }},
      {"synth_s_nlanes", [&] { return phases.synth(nlanes); }},
      {"serve_pass_s",
       [&] {
         const std::size_t before = latency_s.size();
         const double wall = phases.serve(harness, latency_s);
         served += latency_s.size() - before;
         return wall;
       }},
  };
  const Clock::time_point start = Clock::now();
  const auto run_phase = [](Phase& p) {
    const Clock::time_point t0 = Clock::now();
    p.samples.push_back(p.run());
    p.last_wall = seconds_since(t0);
    p.spent += p.last_wall;
  };
  for (Phase& p : plan) run_phase(p);
  for (int n = 0; n < kMaxRuns; ++n) {
    const double remaining = seconds - seconds_since(start);
    Phase* pick = nullptr;
    for (Phase& p : plan)
      if (p.last_wall <= remaining && (!pick || p.rounds() < pick->rounds()))
        pick = &p;
    if (pick == nullptr) break;
    run_phase(*pick);
  }

  MetricMap out;
  double serve_wall = 0;
  for (const Phase& p : plan) {
    std::cout << "# " << p.metric << ": median of " << p.samples.size()
              << " samples, min "
              << *std::min_element(p.samples.begin(), p.samples.end())
              << " max "
              << *std::max_element(p.samples.begin(), p.samples.end())
              << "\n";
    if (p.metric == "serve_pass_s") {
      for (const double s : p.samples) serve_wall += s;
    } else {
      out[p.metric] = {median(p.samples), "s"};
    }
  }
  const std::size_t tail =
      latency_s.size() -
      static_cast<std::size_t>(0.99 * static_cast<double>(latency_s.size()));
  std::cout << "# serve: " << latency_s.size() << " requests, " << tail
            << " beyond p99\n";
  out["serve_p50_ms"] = {1e3 * percentile(latency_s, 0.50), "ms"};
  out["serve_p99_ms"] = {1e3 * percentile(latency_s, 0.99), "ms"};
  out["serve_rps"] = {
      serve_wall > 0 ? static_cast<double>(served) / serve_wall : 0, "req/s"};
  return out;
}

/// Traced repetitions: the untraced passes (the reference for
/// trace.overhead_pct), the same work split per layer call, then the
/// single-layer probes. Each metric is the median over repetitions.
MetricMap measure_layers(Phases& phases, ServeHarness& harness, Tracer& tracer,
                         double seconds, std::size_t nlanes) {
  std::vector<MetricMap> reps;
  std::vector<double> latency_s;
  const Clock::time_point start = Clock::now();
  for (std::uint32_t r = 0; r < kMaxRuns; ++r) {
    const Clock::time_point rep_start = Clock::now();
    tracer.set_run(r);
    MetricMap m;
    const double untraced = phases.full(1) + phases.full(nlanes) +
                            phases.quotient(1) + phases.quotient(nlanes) +
                            phases.synth(1) + phases.synth(nlanes);
    phases.full_traced(1);
    phases.full_traced(nlanes);
    phases.quotient_traced(1);
    phases.quotient_traced(nlanes);
    const SynthCounts counts = phases.synth_traced(1);
    phases.synth_traced(nlanes);
    const ringstab::serve::ServerStats s0 = harness.stats();
    phases.serve(harness, latency_s);
    const ringstab::serve::ServerStats s1 = harness.stats();
    layer_metrics(tracer, r, nlanes, m);
    const double traced = traced_engine_seconds(tracer, r, nlanes);
    m["trace.overhead_pct"] = {
        untraced > 0 ? 100.0 * (traced - untraced) / untraced : 0, "%"};
    m["synthesis.candidates"] = {counts.candidates, "count"};
    m["synthesis.solutions"] = {counts.solutions, "count"};
    m["synthesis.static_reject_ratio"] = {
        counts.candidates > 0 ? counts.static_rejects / counts.candidates : 0,
        "fraction"};
    m["synthesis.global_states_explored"] = {counts.global_states, "count"};
    const double hits = static_cast<double>(s1.cache_hits - s0.cache_hits);
    const double misses =
        static_cast<double>(s1.cache_misses - s0.cache_misses);
    m["serve.hit_ratio"] = {hits + misses > 0 ? hits / (hits + misses) : 0,
                            "fraction"};
    m["serve.evictions"] = {
        static_cast<double>(s1.cache_evictions - s0.cache_evictions), "count"};
    phases.probes(m);
    reps.push_back(std::move(m));
    if (seconds_since(start) + seconds_since(rep_start) > seconds) break;
  }
  std::cout << "# repetitions: " << reps.size()
            << " (each metric is the median over them)\n";
  return median_of(reps);
}

int run(const Options& opt) {
  Workload w = make_workload(opt.workload, opt.tiny, opt.seed, opt.repo_root);
  if (opt.inject_mismatch) inject_mismatch(w);
  // "n lanes" is the library's own "all hardware lanes" (at least 2).
  const std::size_t nlanes = ringstab::resolve_threads(0);
  std::cout << "# ringbench workload=" << w.name << " seed=" << opt.seed
            << " seconds=" << opt.seconds << " trace=" << opt.trace
            << " lanes=1," << nlanes << (opt.tiny ? " tiny" : "") << "\n";

  Ledger ledger;
  Tracer tracer(opt.trace);

  // Set-up: parse, build instances, spin the pool, start and prime the
  // daemon. The first one is kept; untraced runs repeat it as a phase of
  // its own, so its samples spread over the run like every other phase's.
  int setups = 0;
  const auto set_up = [&](std::unique_ptr<Instances>& inst,
                          std::unique_ptr<ServeHarness>& harness) {
    const std::string sock = opt.scratch + "/rb" + std::to_string(::getpid()) +
                             "-" + std::to_string(setups++) + ".sock";
    const Clock::time_point t0 = Clock::now();
    inst = std::make_unique<Instances>(build_instances(w));
    ringstab::parallel_for(nlanes, nlanes, 1,
                           [](const ringstab::ChunkRange&, std::size_t) {});
    harness = std::make_unique<ServeHarness>(w, sock, nlanes);
    return seconds_since(t0);
  };
  std::unique_ptr<Instances> inst;
  std::unique_ptr<ServeHarness> harness;
  const double first_setup_s = set_up(inst, harness);
  const auto another_set_up = [&] {
    std::unique_ptr<Instances> i;
    std::unique_ptr<ServeHarness> h;  // stopped on return, outside the timing
    return set_up(i, h);
  };

  Phases phases(w, *inst, ledger, tracer, nlanes, opt.seed);
  // One unrecorded serve pass first, so the cache holds its steady state
  // before anything is timed (its replies are still checked).
  std::vector<double> warmup_latency;
  phases.serve(*harness, warmup_latency);
  MetricMap metrics =
      opt.trace ? measure_layers(phases, *harness, tracer, opt.seconds, nlanes)
                : measure_end_to_end(phases, *harness, opt.seconds, nlanes,
                                     another_set_up, first_setup_s);
  if (!opt.trace) {
    metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  } else {
    const std::string path = opt.scratch + "/trace-" + w.name + "-" +
                             std::to_string(opt.seed) + ".json";
    if (!tracer.write_json(path, w.name, opt.seed))
      std::cerr << "ringbench: could not write " << path << "\n";
    else
      std::cout << "# spans written to " << path << "\n";
  }
  harness.reset();
  print_result(ledger, metrics);
  return 0;
}

}  // namespace
}  // namespace ringbench

int main(int argc, char** argv) {
  const ringbench::Options opt = ringbench::parse_args(argc, argv);
  try {
    return ringbench::run(opt);
  } catch (const std::exception& e) {
    std::cerr << "ringbench: fatal: " << e.what() << "\n";
    return 1;
  }
}
