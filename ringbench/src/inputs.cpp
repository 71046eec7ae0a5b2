#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/parser.hpp"
#include "core/ring_writer.hpp"
#include "protocols/agreement.hpp"
#include "protocols/arrays.hpp"
#include "protocols/coloring.hpp"
#include "protocols/matching.hpp"
#include "protocols/sum_not_two.hpp"

namespace ringbench {

namespace p = ringstab::protocols;
using ringstab::to_ring_source;

namespace {

// Popularity skew of every serve key universe: the standard Zipf law, the
// usual model of request popularity in front of a cache. No recorded daemon
// traffic exists to fit it to.
constexpr double kZipfS = 1.0;
// Seeded random skeletons added to every workload's serve stream, so its key
// universe exceeds the daemon's cache.
constexpr std::size_t kRandomSkeletons = 48;
constexpr std::size_t kTinyRandomSkeletons = 4;

// Known answers. The qualitative verdicts are the paper's (Sections 4-6) and
// the zoo's `# expect:` lines; the exact counts were pinned from the engines
// at the commit that introduced this benchmark. Each size has a full entry
// and a tiny one (the self-test's).
struct Sized {
  std::size_t k;
  RingAnswer want;
};

RingCase ring(bool tiny, std::string label, std::string source, Sized full,
              Sized small) {
  const Sized& s = tiny ? small : full;
  return {std::move(label), std::move(source), s.k, s.want};
}

// A random synthesis input over a unidirectional ring: domain 3 (so every
// seed gives skeletons of the same cost class) and a legitimacy predicate
// that forbids one to three adjacent value pairs.
std::string random_skeleton(Rng& rng, std::size_t index) {
  constexpr std::uint64_t d = 3;
  const std::uint64_t forbidden = 1 + rng.below(d);
  std::vector<std::uint64_t> pairs(d * d);
  for (std::uint64_t i = 0; i < pairs.size(); ++i) pairs[i] = i;
  for (std::uint64_t i = 0; i < forbidden; ++i)
    std::swap(pairs[i], pairs[i + rng.below(pairs.size() - i)]);
  std::string legit;
  for (std::uint64_t i = 0; i < forbidden; ++i) {
    if (i) legit += " && ";
    legit += "!(x[-1] == " + std::to_string(pairs[i] / d) +
             " && x[0] == " + std::to_string(pairs[i] % d) + ")";
  }
  return "protocol rnd" + std::to_string(index) + ";\ndomain " +
         std::to_string(d) + ";\nreads -1 .. 0;\nlegit: " + legit + ";\n";
}

std::string zoo(const std::string& root, const std::string& file) {
  return ringstab::read_source_file(root + "/examples/rings/" + file);
}

ServeSource serve_source(std::string name, std::string text) {
  ServeSource s;
  s.name = std::move(name);
  s.text = std::move(text);
  const ringstab::ProtocolSource parsed =
      ringstab::parse_protocol_source(s.text);
  s.domain_size = parsed.domain.size();
  s.synthesis_input = parsed.actions.empty();
  return s;
}

Workload check_converging(bool tiny) {
  Workload w;
  const std::string snt = to_ring_source(p::sum_not_two_solution());
  const std::string mg = to_ring_source(p::matching_generalizable());
  const std::string sort = to_ring_source(p::array_sort(3));
  w.rings.push_back(ring(tiny, "sum_not_two_ss", snt,
                         {14, {4782969, 0, false, true, true, 27, 341802}},
                         {6, {729, 0, false, true, true, 11, 130}}));
  w.rings.push_back(ring(tiny, "matching_generalizable", mg,
                         {13, {1594323, 0, false, true, true, 23, 122643}},
                         {6, {729, 0, false, true, true, 9, 130}}));
  w.arrays.push_back({"array_sort3", sort, tiny ? 5u : 12u, {0, false, true}});
  w.synth.push_back({"sum_not_two_empty",
                     to_ring_source(p::sum_not_two_empty()), {true, 4, 8}});
  w.synth.push_back({"matching_skeleton",
                     to_ring_source(p::matching_skeleton()), {true, 64, 4213}});
  w.global_synth.push_back(
      {"sum_not_two_empty", to_ring_source(p::sum_not_two_empty()), 2,
       tiny ? 4u : 8u,
       tiny ? GlobalSynthAnswer{true, 6, 8, 774}
            : GlobalSynthAnswer{true, 6, 8, 59094}});
  return w;
}

Workload check_livelock(bool tiny) {
  Workload w;
  const std::string col = to_ring_source(p::three_coloring_rotation());
  const std::string agr = to_ring_source(p::agreement_both());
  const std::string mng = to_ring_source(p::matching_nongeneralizable());
  w.rings.push_back(ring(tiny, "three_coloring_rotation", col,
                         {13, {1594323, 0, true, true, false, 0, 122643}},
                         {6, {729, 0, true, true, true, 0, 130}}));
  w.rings.push_back(ring(tiny, "agreement_both", agr,
                         {18, {262144, 0, true, true, true, 0, 14602}},
                         {8, {256, 0, true, true, true, 0, 36}}));
  w.rings.push_back(ring(tiny, "matching_nongeneralizable", mng,
                         {13, {1594323, 104, false, true, false, 0, 122643}},
                         {6, {729, 6, false, true, false, 0, 130}}));
  // The one stabilizing ring: a small control, so recovery layering still
  // runs here, on a sliver of the workload's states.
  w.rings.push_back(ring(tiny, "matching_generalizable",
                         to_ring_source(p::matching_generalizable()),
                         {10, {59049, 0, false, true, true, 17, 5934}},
                         {6, {729, 0, false, true, true, 9, 130}}));
  const std::string broken = to_ring_source(p::array_two_coloring_broken());
  w.arrays.push_back({"array_two_coloring_broken", broken, tiny ? 6u : 16u,
                      tiny ? ArrayAnswer{19, false, true} : ArrayAnswer{2582, false, true}});
  w.synth.push_back({"coloring_empty3", to_ring_source(p::coloring_empty(3)),
                     {false, 0, 8}});
  w.synth.push_back({"agreement_empty", to_ring_source(p::agreement_empty()),
                     {true, 2, 2}});
  w.synth.push_back({"matching_skeleton",
                     to_ring_source(p::matching_skeleton()), {true, 64, 4213}});
  w.global_synth.push_back(
      {"coloring_empty3", to_ring_source(p::coloring_empty(3)), 2,
       tiny ? 4u : 9u,
       GlobalSynthAnswer{false, 0, 8, 450}});
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, bool tiny, std::uint64_t seed,
                       const std::string& repo_root) {
  Workload w;
  if (name == "check_converging") {
    w = check_converging(tiny);
  } else if (name == "check_livelock") {
    w = check_livelock(tiny);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  w.name = name;
  // Every workload's daemon serves the same stream: the examples/rings zoo,
  // Herman's ring (`simulate`) among it, plus seeded random skeletons.
  for (const char* file :
       {"agreement.ring", "array_two_coloring.ring", "forbidden_pairs.ring",
        "herman.ring", "matching_gen.ring", "reset_to_zero.ring",
        "sum_not_two.ring", "sum_not_two_ss.ring", "three_coloring.ring",
        "token_pair.ring"}) {
    ServeSource s = serve_source(file, zoo(repo_root, file));
    s.herman = std::string(file) == "herman.ring";
    w.serve.sources.push_back(std::move(s));
  }
  w.serve.simulate_seeds = tiny ? 4 : 32;
  // The random skeletons make the key universe exceed the cache, so misses,
  // evictions and memo growth occur.
  Rng rng(seed ^ 0x5eed5eed5eed5eedull);
  const std::size_t skeletons = tiny ? kTinyRandomSkeletons : kRandomSkeletons;
  for (std::size_t i = 0; i < skeletons; ++i)
    w.serve.sources.push_back(serve_source("rnd" + std::to_string(i) + ".ring",
                                           random_skeleton(rng, i)));
  w.serve.check_sizes = tiny ? std::vector<std::size_t>{4, 5, 6}
                             : std::vector<std::size_t>{6, 8, 10};
  w.serve.requests_per_pass = 3000;
  if (tiny) {
    w.serve.requests_per_pass = 200;
    w.serve.cache_capacity = 16;  // below every tiny key universe
  }
  return w;
}

RequestStream::RequestStream(const ServeSpec& spec, std::uint64_t seed)
    : rng_(seed) {
  using ringstab::serve::Request;
  const auto make = [](const ServeSource& s, const char* cmd) {
    Request r;
    r.cmd = cmd;
    r.source = s.text;
    r.name = s.name;
    return r;
  };
  for (const ServeSource& s : spec.sources) {
    for (const std::size_t k : spec.check_sizes) {
      Request r = make(s, "check");
      r.k = k;
      universe_.push_back(std::move(r));
    }
    universe_.push_back(make(s, "lint"));
    universe_.push_back(make(s, "analyze"));
    if (s.synthesis_input)
      universe_.push_back(make(s, "synthesize"));
    if (s.herman) {
      for (std::size_t i = 0; i < spec.simulate_seeds; ++i) {
        Request r = make(s, "simulate");
        r.k = 9;
        r.options.trajectories = 200;
        r.options.round_cap = 20'000;
        r.options.target = "one-token";
        r.options.sim_seed = 1 + rng_.below(1u << 30);
        universe_.push_back(std::move(r));
      }
    }
  }
  // Popularity rank: a fixed shuffle, the same for every seed, so the hit
  // ratio and the miss mix do not depend on the seed; the seed draws the
  // request sequence.
  Rng rank(0x72616e6b);
  for (std::size_t i = universe_.size(); i > 1; --i)
    std::swap(universe_[i - 1], universe_[rank.below(i)]);
  double sum = 0;
  for (std::size_t i = 0; i < universe_.size(); ++i) {
    weight_.push_back(1.0 / std::pow(static_cast<double>(i + 1), kZipfS));
    sum += weight_.back();
  }
  for (double& w : weight_) w /= sum;
}

std::vector<ringstab::serve::Request> RequestStream::pass(std::size_t n) {
  std::vector<ringstab::serve::Request> out;
  out.reserve(n);
  // Largest-remainder apportionment: key i appears about n * weight_[i]
  // times, so every pass carries the same mix of cheap and costly keys.
  std::vector<std::size_t> count(universe_.size());
  std::vector<std::pair<double, std::size_t>> remainder;
  std::size_t placed = 0;
  for (std::size_t i = 0; i < universe_.size(); ++i) {
    const double exact = static_cast<double>(n) * weight_[i];
    count[i] = static_cast<std::size_t>(exact);
    placed += count[i];
    remainder.emplace_back(exact - static_cast<double>(count[i]), i);
  }
  std::stable_sort(remainder.begin(), remainder.end(),
                   [](const auto& a, const auto& b) {
                     return a.first > b.first;
                   });
  for (std::size_t j = 0; placed < n && j < remainder.size(); ++j, ++placed)
    ++count[remainder[j].second];
  for (std::size_t i = 0; i < universe_.size(); ++i)
    out.insert(out.end(), count[i], universe_[i]);
  for (std::size_t i = out.size(); i > 1; --i)
    std::swap(out[i - 1], out[rng_.below(i)]);
  return out;
}

}  // namespace ringbench
