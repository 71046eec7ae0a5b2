// The measured phases. Every call into the library goes through the
// public headers; the benchmark times each call from outside and checks
// each verdict against the workload's known answer.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.hpp"
#include "core/parser.hpp"
#include "global/array_instance.hpp"
#include "global/ring_instance.hpp"
#include "inputs.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace ringbench {

/// What set-up builds from the workload's .ring sources.
struct Instances {
  std::vector<std::unique_ptr<ringstab::RingInstance>> rings;
  std::vector<std::unique_ptr<ringstab::ArrayInstance>> arrays;
  std::vector<ringstab::Protocol> synth;
  std::vector<ringstab::Protocol> global_synth;
};

/// Parses every source and builds the instances (part of set-up time).
Instances build_instances(const Workload& w);

/// An in-process daemon plus one closed-loop client per lane.
class ServeHarness {
 public:
  /// Starts the server at `socket_path`, connects `clients` clients and
  /// primes it: a `stats` round trip per client, then one `lint` and one
  /// `analyze` request per workload source.
  ServeHarness(const Workload& w, const std::string& socket_path,
               std::size_t clients);

  struct Reply {
    bool ok = false;
    int exit_code = 0;
    std::uint64_t output_hash = 0;
    std::string error;
  };
  struct Pass {
    std::vector<ringstab::serve::Request> requests;
    std::vector<Reply> replies;
    std::vector<double> latency_s;  // send to reply, per request
    double wall_s = 0;
  };

  /// Sends `requests`, each client waiting for its reply before taking the
  /// next request (closed loop).
  Pass run(std::vector<ringstab::serve::Request> requests);

  ringstab::serve::ServerStats stats();

 private:
  std::unique_ptr<ringstab::serve::Server> server_;  // stops when destroyed
  // Declared after server_, so the connections close before the drain.
  std::vector<ringstab::serve::Client> clients_;
};

/// Summary of one fixed-K verdict, for the full == quotient comparison.
struct RingVerdict {
  std::size_t deadlocks = 0;
  bool livelock = false;
  bool closure = true;
  bool weak = false;
  std::size_t recovery = 0;
};

/// Time in the synthesizers, and the counts read from their results.
struct SynthCounts {
  double seconds = 0;
  double candidates = 0;
  double solutions = 0;
  double static_rejects = 0;
  double global_states = 0;
};

/// Runs the phases on one workload's instances and records every verdict.
class Phases {
 public:
  Phases(const Workload& w, const Instances& inst, Ledger& ledger,
         Tracer& tracer, std::size_t nlanes, std::uint64_t seed);

  // ── End-to-end passes; each returns the summed time of the calls. ──
  /// GlobalChecker::check_all() per ring plus check_array() per array.
  double full(std::size_t lanes);
  /// check_symmetric() per ring.
  double quotient(std::size_t lanes);
  /// synthesize_convergence() per skeleton plus the fixed-K global runs.
  double synth(std::size_t lanes);
  /// One closed-loop serve pass of the next requests of the stream; adds
  /// its latencies to `latency_s`.
  double serve(ServeHarness& harness, std::vector<double>& latency_s);

  // ── Traced passes: the same work, split per layer call, in spans. ──
  /// The fused engine's stages called one by one, in pipeline order, on
  /// one fresh checker per ring.
  void full_traced(std::size_t lanes);
  /// necklace_census() and check_symmetric() per ring.
  void quotient_traced(std::size_t lanes);
  SynthCounts synth_traced(std::size_t lanes);
  /// Single-layer probes outside the end-to-end passes; writes their
  /// metrics into `out`.
  void probes(MetricMap& out);

 private:
  void check_ring(std::size_t i, const RingVerdict& got, const char* engine,
                  std::uint64_t states, std::size_t lanes);
  void check_array(std::size_t i, const ringstab::ArrayCheckResult& got);
  SynthCounts run_synth(std::size_t lanes, bool traced);
  void check_replies(const ServeHarness::Pass& pass);
  const ringstab::serve::ExecResult& reference(
      const ringstab::serve::Request& req);
  /// The requests serve.execute_ms.<cmd> times: the stream's most popular
  /// keys of `cmd`, the workload's synthesis inputs for `synthesize`, and
  /// Herman's ring for `simulate`.
  std::vector<ringstab::serve::Request> execute_probes(const std::string& cmd);

  const Workload& w_;
  const Instances& inst_;
  Ledger& ledger_;
  Tracer& tracer_;
  std::size_t nlanes_;
  std::uint64_t seed_;
  RequestStream stream_;
  std::string herman_source_;
  std::vector<RingVerdict> full_verdicts_;  // last full pass, per ring
  std::vector<bool> have_full_;
  // Local serve::execute() of every key served so far: the known answer
  // for served bytes.
  std::unordered_map<std::string, ringstab::serve::ExecResult> refs_;
};

}  // namespace ringbench
