// The benchmark's workloads: which .ring sources each one checks,
// synthesizes and serves, the known answer for every verdict, and the
// seeded serve request stream.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "serve/exec.hpp"

namespace ringbench {

/// Known answer of one fixed-K ring check; the quotient engine must agree.
struct RingAnswer {
  std::uint64_t states = 0;
  std::size_t deadlocks = 0;  // global deadlocks outside I
  bool livelock = false;
  bool closure = true;
  bool weak = false;          // weak convergence
  std::size_t recovery = 0;   // max recovery steps (0 unless converging)
  std::size_t necklaces = 0;  // rotation orbits the quotient engine visits
};

struct RingCase {
  std::string label;
  std::string source;  // .ring text
  std::size_t k = 0;
  RingAnswer want;
};

struct ArrayAnswer {
  std::size_t deadlocks = 0;
  bool livelock = false;
  bool terminates = false;
};

struct ArrayCase {
  std::string label;
  std::string source;
  std::size_t n = 0;
  ArrayAnswer want;
};

struct SynthAnswer {
  bool success = false;
  std::size_t solutions = 0;
  std::size_t candidates = 0;
};

struct SynthCase {
  std::string label;
  std::string source;
  SynthAnswer want;
};

struct GlobalSynthAnswer {
  bool success = false;
  std::size_t solutions = 0;
  std::size_t candidates = 0;
  std::uint64_t states_explored = 0;
};

struct GlobalSynthCase {
  std::string label;
  std::string source;
  std::size_t min_ring = 2;
  std::size_t max_ring = 2;
  GlobalSynthAnswer want;
};

struct ServeSource {
  std::string name;  // request display name
  std::string text;
  std::size_t domain_size = 0;
  bool synthesis_input = false;  // no actions: also served `synthesize`
  bool herman = false;           // also served `simulate`
};

struct ServeSpec {
  std::vector<ServeSource> sources;
  std::vector<std::size_t> check_sizes;  // `check` ring sizes per source
  std::size_t simulate_seeds = 0;        // distinct seeds per herman source
  std::size_t requests_per_pass = 0;
  // 8 entries in each of the cache's 16 shards: with fewer, which keys
  // shared a shard (a function of the seeded skeleton texts) decided which
  // ones missed, and p99 moved with the seed.
  std::size_t cache_capacity = 128;
};

/// A workload is data: every workload runs the same phases (full and
/// quotient checks, synthesis, serving) on its own inputs; the inputs decide
/// which layer carries the time.
struct Workload {
  std::string name;
  std::vector<RingCase> rings;
  std::vector<ArrayCase> arrays;
  std::vector<SynthCase> synth;
  std::vector<GlobalSynthCase> global_synth;
  ServeSpec serve;
};

/// Builds workload `name`; throws std::invalid_argument for an unknown one.
/// `tiny` swaps in small sizes (the self-test); `repo_root` locates the
/// examples/rings zoo the daemon serves; `seed` draws the random synthesis
/// skeletons.
Workload make_workload(const std::string& name, bool tiny, std::uint64_t seed,
                       const std::string& repo_root);

/// Seeded closed-loop request stream over a fixed key universe (every
/// source x every command), ranked by a fixed shuffle and given Zipf
/// popularity; each pass holds every key in proportion to its popularity.
/// The seed orders each pass and picks the Monte Carlo seeds.
class RequestStream {
 public:
  RequestStream(const ServeSpec& spec, std::uint64_t seed);

  /// The next `n` requests.
  std::vector<ringstab::serve::Request> pass(std::size_t n);
  const std::vector<ringstab::serve::Request>& universe() const {
    return universe_;
  }

 private:
  std::vector<ringstab::serve::Request> universe_;
  std::vector<double> weight_;  // popularity, summing to 1
  Rng rng_;
};

}  // namespace ringbench
