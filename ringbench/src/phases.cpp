#include "phases.hpp"

#include <atomic>
#include <exception>
#include <thread>

#include "analysis/absint.hpp"
#include "analysis/lint.hpp"
#include "core/ring_writer.hpp"
#include "global/checker.hpp"
#include "global/symmetry.hpp"
#include "local/deadlock.hpp"
#include "local/livelock.hpp"
#include "parallel/thread_pool.hpp"
#include "protocols/herman.hpp"
#include "serve/hash.hpp"
#include "serve/wire.hpp"
#include "sim/simulator.hpp"
#include "synthesis/candidates.hpp"
#include "synthesis/global_synthesizer.hpp"
#include "synthesis/local_synthesizer.hpp"

namespace ringbench {

using namespace ringstab;

namespace {

/// Times fn() in seconds.
template <typename Fn>
double timed(Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  return seconds_since(t0);
}

std::string lane_tag(std::size_t lanes) {
  return "@" + std::to_string(lanes) + "lane";
}

// Keeps results of otherwise unused probe calls observable.
volatile GlobalStateId g_sink = 0;

Protocol parse(const std::string& text) {
  return build_protocol(parse_protocol_source(text));
}

}  // namespace

Instances build_instances(const Workload& w) {
  Instances inst;
  for (const RingCase& r : w.rings)
    inst.rings.push_back(std::make_unique<RingInstance>(parse(r.source), r.k));
  for (const ArrayCase& a : w.arrays)
    inst.arrays.push_back(
        std::make_unique<ArrayInstance>(parse(a.source), a.n));
  for (const SynthCase& s : w.synth) inst.synth.push_back(parse(s.source));
  for (const GlobalSynthCase& g : w.global_synth)
    inst.global_synth.push_back(parse(g.source));
  return inst;
}

// ── serve ──

ServeHarness::ServeHarness(const Workload& w, const std::string& socket_path,
                           std::size_t clients) {
  serve::ServerOptions opts;
  opts.socket_path = socket_path;
  opts.cache_capacity = w.serve.cache_capacity;
  opts.default_jobs = 1;
  server_ = std::make_unique<serve::Server>(opts);
  server_->start();
  for (std::size_t c = 0; c < clients; ++c) {
    clients_.emplace_back(socket_path);
    clients_.back().stats();
  }
  for (const ServeSource& s : w.serve.sources) {
    for (const char* cmd : {"lint", "analyze"}) {
      serve::Request req;
      req.cmd = cmd;
      req.source = s.text;
      req.name = s.name;
      clients_.front().request(req);
    }
  }
}

ServeHarness::Pass ServeHarness::run(std::vector<serve::Request> requests) {
  Pass pass;
  pass.requests = std::move(requests);
  const std::size_t n = pass.requests.size();
  pass.replies.resize(n);
  pass.latency_s.resize(n);
  std::atomic<std::size_t> next{0};
  const Clock::time_point t0 = Clock::now();
  {
    std::vector<std::jthread> threads;
    for (serve::Client& client : clients_) {
      threads.emplace_back([&pass, &next, &client, n] {
        for (std::size_t i; (i = next.fetch_add(1)) < n;) {
          Reply& reply = pass.replies[i];
          const Clock::time_point sent = Clock::now();
          try {
            const serve::Response resp = client.request(pass.requests[i]);
            pass.latency_s[i] = seconds_since(sent);
            reply.ok = resp.ok;
            reply.exit_code = resp.exit_code;
            reply.output_hash = serve::hash_bytes(resp.output);
            reply.error = resp.error;
          } catch (const std::exception& e) {
            pass.latency_s[i] = seconds_since(sent);
            reply.ok = false;
            reply.error = e.what();
          }
        }
      });
    }
  }
  pass.wall_s = seconds_since(t0);
  return pass;
}

serve::ServerStats ServeHarness::stats() { return clients_.front().stats(); }

// ── phases ──

Phases::Phases(const Workload& w, const Instances& inst, Ledger& ledger,
               Tracer& tracer, std::size_t nlanes, std::uint64_t seed)
    : w_(w),
      inst_(inst),
      ledger_(ledger),
      tracer_(tracer),
      nlanes_(nlanes),
      seed_(seed),
      stream_(w.serve, seed),
      herman_source_(to_ring_source(protocols::herman_ring())),
      full_verdicts_(w.rings.size()),
      have_full_(w.rings.size(), false) {}

void Phases::check_ring(std::size_t i, const RingVerdict& got,
                        const char* engine, std::uint64_t states,
                        std::size_t lanes) {
  const RingCase& rc = w_.rings[i];
  const RingAnswer& want = rc.want;
  std::vector<std::string> bad;
  expect_eq(bad, "states", states, want.states);
  expect_eq(bad, "deadlocks", got.deadlocks, want.deadlocks);
  expect_eq(bad, "livelock", got.livelock, want.livelock);
  expect_eq(bad, "closure", got.closure, want.closure);
  expect_eq(bad, "weak_convergence", got.weak, want.weak);
  expect_eq(bad, "recovery_steps", got.recovery, want.recovery);
  const bool full = std::string(engine) == "full";
  if (!full && have_full_[i]) {
    const RingVerdict& f = full_verdicts_[i];
    expect_eq(bad, "full==quotient deadlocks", got.deadlocks, f.deadlocks);
    expect_eq(bad, "full==quotient livelock", got.livelock, f.livelock);
    expect_eq(bad, "full==quotient closure", got.closure, f.closure);
    expect_eq(bad, "full==quotient weak", got.weak, f.weak);
    expect_eq(bad, "full==quotient recovery", got.recovery, f.recovery);
  }
  if (full) {
    full_verdicts_[i] = got;
    have_full_[i] = true;
  }
  ledger_.record(std::string(engine) + " " + rc.label + "@K=" +
                     std::to_string(rc.k) + lane_tag(lanes),
                 bad);
}

void Phases::check_array(std::size_t i, const ArrayCheckResult& got) {
  const ArrayCase& ac = w_.arrays[i];
  std::vector<std::string> bad;
  expect_eq(bad, "deadlocks", got.num_deadlocks_outside_i, ac.want.deadlocks);
  expect_eq(bad, "livelock", got.has_livelock, ac.want.livelock);
  expect_eq(bad, "terminates", got.terminates, ac.want.terminates);
  ledger_.record("array " + ac.label + "@n=" + std::to_string(ac.n), bad);
}

double Phases::full(std::size_t lanes) {
  double total = 0;
  for (std::size_t i = 0; i < inst_.rings.size(); ++i) {
    try {
      GlobalCheckResult r;
      total += timed([&] {
        const GlobalChecker checker(*inst_.rings[i], lanes);
        r = checker.check_all();
      });
      check_ring(i,
                 {r.num_deadlocks_outside_i, r.has_livelock, r.closure_ok,
                  r.weakly_converges, r.max_recovery_steps},
                 "full", r.num_states, lanes);
    } catch (const std::exception& e) {
      ledger_.record_error("full " + w_.rings[i].label, e.what());
    }
  }
  for (std::size_t i = 0; i < inst_.arrays.size(); ++i) {
    try {
      ArrayCheckResult r;
      total += timed([&] { r = ringstab::check_array(*inst_.arrays[i]); });
      check_array(i, r);
    } catch (const std::exception& e) {
      ledger_.record_error("array " + w_.arrays[i].label, e.what());
    }
  }
  return total;
}

void Phases::full_traced(std::size_t lanes) {
  tracer_.time("global.full_pass", lanes, [&] {
    for (std::size_t i = 0; i < inst_.rings.size(); ++i) {
      try {
        const GlobalChecker checker(*inst_.rings[i], lanes);
        RingVerdict v;
        tracer_.time("global.census", lanes, [&] {
          v.deadlocks = checker.count_deadlocks_outside_invariant();
        });
        tracer_.time("global.graph_build", lanes,
                     [&] { v.closure = checker.check_closure(); });
        tracer_.time("global.scc", lanes,
                     [&] { v.livelock = checker.find_livelock().has_value(); });
        tracer_.time("global.weak_convergence", lanes,
                     [&] { v.weak = checker.check_weak_convergence(); });
        if (v.closure && v.deadlocks == 0 && !v.livelock)
          tracer_.time("global.recovery", lanes,
                       [&] { v.recovery = checker.max_recovery_steps(); });
        check_ring(i, v, "full", inst_.rings[i]->num_states(), lanes);
      } catch (const std::exception& e) {
        ledger_.record_error("full " + w_.rings[i].label, e.what());
      }
    }
    for (std::size_t i = 0; i < inst_.arrays.size(); ++i) {
      try {
        ArrayCheckResult r;
        tracer_.time("global.array", lanes,
                     [&] { r = ringstab::check_array(*inst_.arrays[i]); });
        check_array(i, r);
      } catch (const std::exception& e) {
        ledger_.record_error("array " + w_.arrays[i].label, e.what());
      }
    }
  });
}

double Phases::quotient(std::size_t lanes) {
  double total = 0;
  for (std::size_t i = 0; i < inst_.rings.size(); ++i) {
    try {
      SymmetricCheckResult r;
      total += timed([&] { r = check_symmetric(*inst_.rings[i], 8, lanes); });
      std::vector<std::string> necklaces;
      expect_eq(necklaces, "necklaces", r.num_necklaces,
                w_.rings[i].want.necklaces);
      check_ring(i,
                 {r.num_deadlocks_outside_i, r.has_livelock, r.closure_ok,
                  r.weakly_converges, r.max_recovery_steps},
                 "quotient", r.num_states, lanes);
      if (!necklaces.empty())
        ledger_.record("quotient necklaces " + w_.rings[i].label, necklaces);
    } catch (const std::exception& e) {
      ledger_.record_error("quotient " + w_.rings[i].label, e.what());
    }
  }
  return total;
}

void Phases::quotient_traced(std::size_t lanes) {
  for (std::size_t i = 0; i < inst_.rings.size(); ++i) {
    try {
      NecklaceCensus census;
      tracer_.time("symmetry.census", lanes, [&] {
        census = necklace_census(*inst_.rings[i], 8, lanes);
      });
      SymmetricCheckResult r;
      tracer_.time("symmetry.check", lanes, [&] {
        r = check_symmetric(*inst_.rings[i], 8, lanes);
      });
      std::vector<std::string> census_bad;
      expect_eq(census_bad, "census deadlocks", census.num_deadlocks_outside_i,
                r.num_deadlocks_outside_i);
      expect_eq(census_bad, "census necklaces", census.num_necklaces,
                r.num_necklaces);
      ledger_.record("necklace_census " + w_.rings[i].label, census_bad);
      check_ring(i,
                 {r.num_deadlocks_outside_i, r.has_livelock, r.closure_ok,
                  r.weakly_converges, r.max_recovery_steps},
                 "quotient", r.num_states, lanes);
    } catch (const std::exception& e) {
      ledger_.record_error("quotient " + w_.rings[i].label, e.what());
    }
  }
}

SynthCounts Phases::run_synth(std::size_t lanes, bool traced) {
  SynthCounts counts;
  const auto call = [&](const char* span, auto&& fn) {
    counts.seconds += traced ? tracer_.time(span, lanes, fn) : timed(fn);
  };
  for (std::size_t i = 0; i < inst_.synth.size(); ++i) {
    const SynthCase& sc = w_.synth[i];
    try {
      SynthesisOptions opts;
      opts.num_threads = lanes;
      SynthesisResult r;
      call("synthesis.local",
           [&] { r = synthesize_convergence(inst_.synth[i], opts); });
      std::vector<std::string> bad;
      expect_eq(bad, "success", r.success, sc.want.success);
      expect_eq(bad, "solutions", r.solutions.size(), sc.want.solutions);
      expect_eq(bad, "candidates", r.candidates_examined, sc.want.candidates);
      ledger_.record("synthesize " + sc.label + lane_tag(lanes), bad);
      counts.candidates += static_cast<double>(r.candidates_examined);
      counts.solutions += static_cast<double>(r.solutions.size());
      for (const CandidateReport& rep : r.reports)
        counts.static_rejects += rep.static_reject ? 1 : 0;
    } catch (const std::exception& e) {
      ledger_.record_error("synthesize " + sc.label, e.what());
    }
  }
  for (std::size_t i = 0; i < inst_.global_synth.size(); ++i) {
    const GlobalSynthCase& gc = w_.global_synth[i];
    try {
      GlobalSynthesisOptions opts;
      opts.min_ring = gc.min_ring;
      opts.max_ring = gc.max_ring;
      opts.num_threads = lanes;
      GlobalSynthesisResult r;
      call("synthesis.global", [&] {
        r = synthesize_convergence_global(inst_.global_synth[i], opts);
      });
      std::vector<std::string> bad;
      expect_eq(bad, "success", r.success, gc.want.success);
      expect_eq(bad, "solutions", r.solutions.size(), gc.want.solutions);
      expect_eq(bad, "candidates", r.candidates_examined, gc.want.candidates);
      expect_eq(bad, "states_explored", r.states_explored,
                gc.want.states_explored);
      ledger_.record("synthesize_global " + gc.label + "@K=" +
                         std::to_string(gc.min_ring) + ".." +
                         std::to_string(gc.max_ring) + lane_tag(lanes),
                     bad);
      counts.solutions += static_cast<double>(r.solutions.size());
      counts.global_states += static_cast<double>(r.states_explored);
    } catch (const std::exception& e) {
      ledger_.record_error("synthesize_global " + gc.label, e.what());
    }
  }
  return counts;
}

double Phases::synth(std::size_t lanes) {
  return run_synth(lanes, false).seconds;
}

SynthCounts Phases::synth_traced(std::size_t lanes) {
  return run_synth(lanes, true);
}

const serve::ExecResult& Phases::reference(const serve::Request& req) {
  const std::string key = serve::cache_key(req);
  auto it = refs_.find(key);
  if (it == refs_.end()) it = refs_.emplace(key, serve::execute(req)).first;
  return it->second;
}

void Phases::check_replies(const ServeHarness::Pass& pass) {
  for (std::size_t i = 0; i < pass.requests.size(); ++i) {
    const serve::Request& req = pass.requests[i];
    const ServeHarness::Reply& reply = pass.replies[i];
    const std::string op = "serve " + req.cmd + " " + req.name;
    if (!reply.ok) {
      ledger_.record_error(op, "ok=false: " + reply.error);
      continue;
    }
    const serve::ExecResult& ref = reference(req);
    std::vector<std::string> bad;
    expect_eq(bad, "exit_code", reply.exit_code, ref.exit_code);
    expect_eq(bad, "output bytes (hash)", reply.output_hash,
              serve::hash_bytes(ref.output));
    ledger_.record(op, bad);
  }
}

double Phases::serve(ServeHarness& harness, std::vector<double>& latency_s) {
  std::vector<serve::Request> requests =
      stream_.pass(w_.serve.requests_per_pass);
  ServeHarness::Pass pass;
  tracer_.time("serve.pass", nlanes_,
               [&] { pass = harness.run(std::move(requests)); });
  check_replies(pass);
  latency_s.insert(latency_s.end(), pass.latency_s.begin(),
                   pass.latency_s.end());
  return pass.wall_s;
}

// ── single-layer probes ──

std::vector<serve::Request> Phases::execute_probes(const std::string& cmd) {
  constexpr std::size_t kPerCmd = 3;
  std::vector<serve::Request> out;
  if (cmd == "synthesize") {
    // The workload's own synthesis inputs.
    for (std::size_t i = 0; i < w_.synth.size() && out.size() < kPerCmd;
         ++i) {
      serve::Request r;
      r.cmd = cmd;
      r.source = w_.synth[i].source;
      r.name = w_.synth[i].label + ".ring";
      out.push_back(std::move(r));
    }
  } else if (cmd == "simulate") {
    // Herman's ring at K=9, as the stream asks for it.
    for (std::size_t i = 0; i < kPerCmd; ++i) {
      serve::Request r;
      r.cmd = cmd;
      r.source = herman_source_;
      r.name = "herman.ring";
      r.k = 9;
      r.options.trajectories = 200;
      r.options.round_cap = 20'000;
      r.options.target = "one-token";
      r.options.sim_seed = 1 + i + (seed_ & 0xffff);
      out.push_back(std::move(r));
    }
  } else {
    // The most popular keys of the command in the stream.
    for (const serve::Request& req : stream_.universe())
      if (req.cmd == cmd && out.size() < kPerCmd) out.push_back(req);
  }
  return out;
}

void Phases::probes(MetricMap& out) {
  Rng rng(seed_ ^ 0xc0ffee);

  // symmetry: canonical_rotation() over a seeded sample of each ring.
  {
    constexpr std::size_t kSample = 50'000;
    double secs = 0;
    std::size_t calls = 0;
    GlobalStateId sink = 0;
    for (const auto& ring : inst_.rings) {
      std::vector<GlobalStateId> states(kSample);
      for (GlobalStateId& s : states) s = rng.below(ring->num_states());
      secs += tracer_.time("symmetry.canonicalize", 0, [&] {
        for (const GlobalStateId s : states)
          sink ^= canonical_rotation(*ring, s);
      });
      calls += states.size();
    }
    g_sink = sink;
    out["symmetry.canonicalize_ns"] = {
        calls ? 1e9 * secs / static_cast<double>(calls) : 0, "ns"};
  }

  // parallel: n-lane fork-join over one trivial item per lane.
  {
    constexpr int kCalls = 2000;
    std::atomic<std::uint64_t> touched{0};
    const double secs = tracer_.time("parallel.fork_join", nlanes_, [&] {
      for (int c = 0; c < kCalls; ++c)
        parallel_for(nlanes_, nlanes_, 1, [&](const ChunkRange&, std::size_t) {
          touched.fetch_add(1, std::memory_order_relaxed);
        });
    });
    out["parallel.fork_join_us"] = {1e6 * secs / kCalls, "us"};
  }

  // Every protocol of the workload, for the local and analysis layers.
  std::vector<const Protocol*> protocols;
  std::vector<std::string> sources;
  for (std::size_t i = 0; i < inst_.rings.size(); ++i) {
    protocols.push_back(&inst_.rings[i]->protocol());
    sources.push_back(w_.rings[i].source);
  }
  for (std::size_t i = 0; i < inst_.synth.size(); ++i) {
    protocols.push_back(&inst_.synth[i]);
    sources.push_back(w_.synth[i].source);
  }

  // local: Theorem 4.2 deadlock analysis and Theorem 5.14 livelock search.
  {
    double dl = 0;
    double ll = 0;
    for (const Protocol* p : protocols) {
      dl += tracer_.time("local.deadlock", 0, [&] { analyze_deadlocks(*p); });
      ll += tracer_.time("local.livelock", 0,
                         [&] { check_livelock_freedom(*p); });
    }
    out["local.deadlock_ms"] = {1e3 * dl, "ms"};
    out["local.livelock_ms"] = {1e3 * ll, "ms"};
  }

  // analysis: lint passes, abstract interpretation, synthesis pre-filter.
  {
    double lint = 0;
    double absint = 0;
    for (std::size_t i = 0; i < protocols.size(); ++i) {
      lint += tracer_.time("analysis.lint", 0,
                           [&] { lint_protocol(*protocols[i]); });
      const ProtocolSource src = parse_protocol_source(sources[i]);
      absint += tracer_.time("analysis.absint", 0,
                             [&] { analyze_source(src); });
    }
    out["analysis.lint_ms"] = {1e3 * lint, "ms"};
    out["analysis.absint_ms"] = {1e3 * absint, "ms"};
  }

  // synthesis: candidate enumeration and the per-candidate pre-filter.
  {
    double enumerate = 0;
    double prefilter = 0;
    std::size_t prefiltered = 0;
    for (const Protocol& p : inst_.synth) {
      std::vector<std::vector<LocalStateId>> resolve;
      std::vector<std::vector<LocalTransition>> first;
      enumerate += tracer_.time("synthesis.enumerate", 0, [&] {
        resolve = enumerate_resolve_sets(p);
        for (std::size_t r = 0; r < resolve.size(); ++r) {
          auto sets = enumerate_candidate_sets(p, resolve[r]);
          if (r == 0) first = std::move(sets);
        }
      });
      constexpr std::size_t kMaxPrefilter = 256;
      for (std::size_t c = 0; c < first.size() && c < kMaxPrefilter; ++c) {
        const Protocol candidate = p.with_added(p.name() + "_c", first[c]);
        prefilter += tracer_.time("synthesis.prefilter", 0,
                                  [&] { lint_candidate_errors(candidate); });
        ++prefiltered;
      }
    }
    out["synthesis.enumerate_ms"] = {1e3 * enumerate, "ms"};
    out["synthesis.prefilter_us"] = {
        prefiltered ? 1e6 * prefilter / static_cast<double>(prefiltered) : 0,
        "us"};
  }

  // serve: execute() without a socket, cache keys and the wire codec.
  {
    for (const char* cmd :
         {"check", "lint", "analyze", "synthesize", "simulate"}) {
      std::vector<double> ms;
      for (const serve::Request& req : execute_probes(cmd))
        ms.push_back(1e3 * tracer_.time(std::string("serve.execute.") + cmd,
                                        0, [&] { serve::execute(req); }));
      out[std::string("serve.execute_ms.") + cmd] = {median(ms), "ms"};
    }
    // Replies as served, computed before the timed codec loop.
    const auto& universe = stream_.universe();
    std::vector<serve::Response> replies(universe.size());
    for (std::size_t i = 0; i < universe.size(); ++i) {
      replies[i].ok = true;
      replies[i].output = reference(universe[i]).output;
    }
    std::size_t bytes = 0;
    const double key_s = tracer_.time("serve.cache_key", 0, [&] {
      for (const serve::Request& req : universe)
        bytes += serve::cache_key(req).size();
    });
    const double wire_s = tracer_.time("serve.wire", 0, [&] {
      for (std::size_t i = 0; i < universe.size(); ++i) {
        bytes += serve::decode_request(serve::encode_request(universe[i]))
                     .source.size();
        bytes += serve::decode_response(serve::encode_response(replies[i]))
                     .output.size();
      }
    });
    g_sink = bytes;
    const double n = static_cast<double>(universe.size());
    out["serve.cache_key_us"] = {1e6 * key_s / n, "us"};
    out["serve.wire_us"] = {1e6 * wire_s / n, "us"};
  }

  // sim: Herman's ring under the synchronous coin, one-token target.
  {
    EstimateOptions opts;
    opts.target = ConvergenceTarget::kOneIllegit;
    opts.seed = 1 + (seed_ & 0xffff);
    opts.trajectories = 400;
    const Protocol herman = protocols::herman_ring();
    ConvergenceEstimate est;
    const double secs = tracer_.time("sim.estimate", 0, [&] {
      est = estimate_convergence_rounds(herman, 9, opts);
    });
    out["sim.steps_per_s"] = {
        static_cast<double>(est.total_process_steps) / secs, "1/s"};
  }

  // core: parse_protocol() per source.
  {
    constexpr int kRepeats = 20;
    std::vector<double> per_source;
    for (const std::string& text : sources) {
      const double secs = tracer_.time("core.parse", 0, [&] {
        for (int r = 0; r < kRepeats; ++r) parse_protocol(text);
      });
      per_source.push_back(1e6 * secs / kRepeats);
    }
    double sum = 0;
    for (const double us : per_source) sum += us;
    out["core.parse_us"] = {
        per_source.empty() ? 0 : sum / static_cast<double>(per_source.size()),
        "us"};
  }
}

}  // namespace ringbench
