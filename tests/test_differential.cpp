// Differential test: every source of a global verdict — GlobalChecker and
// the rotation quotient at 1 and 4 lanes, and the array and tree checks — is
// compared against the brute-force oracle (tests/oracle.hpp) over the
// protocol zoo, seeded random rings, arrays and random tree shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "global/array_instance.hpp"
#include "global/checker.hpp"
#include "global/symmetry.hpp"
#include "global/tree_instance.hpp"
#include "helpers.hpp"
#include "oracle.hpp"
#include "protocols/arrays.hpp"
#include "protocols/coloring.hpp"
#include "protocols/sum_not_two.hpp"

namespace ringstab {
namespace {

using testing::oracle;
using testing::OracleVerdict;

/// `cycle` is a genuine computation cycle of `ring` entirely outside I.
void expect_real_cycle(const RingInstance& ring,
                       const std::vector<GlobalStateId>& cycle,
                       const std::string& where) {
  ASSERT_FALSE(cycle.empty()) << where;
  std::vector<RingInstance::Step> succ;
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    EXPECT_FALSE(ring.in_invariant(cycle[i])) << where;
    ring.successors(cycle[i], succ);
    const GlobalStateId next = cycle[(i + 1) % cycle.size()];
    EXPECT_TRUE(std::any_of(succ.begin(), succ.end(),
                            [&](const auto& s) { return s.target == next; }))
        << where << " edge " << i;
  }
}

/// The canonical necklace id of s: its smallest rotation, by brute force.
GlobalStateId min_rotation(const RingInstance& ring, GlobalStateId s) {
  std::vector<Value> digits = ring.decode(s);
  GlobalStateId best = s;
  for (std::size_t r = 1; r < digits.size(); ++r) {
    std::rotate(digits.begin(), digits.begin() + 1, digits.end());
    best = std::min(best, ring.encode(digits));
  }
  return best;
}

/// The smallest necklace id whose states are in I and have a move leaving I
/// (none if I is closed).
std::optional<GlobalStateId> smallest_escaping_necklace(
    const RingInstance& ring) {
  std::optional<GlobalStateId> best;
  std::vector<RingInstance::Step> succ;
  for (GlobalStateId s = 0; s < ring.num_states(); ++s) {
    if (!ring.in_invariant(s)) continue;
    ring.successors(s, succ);
    if (std::none_of(succ.begin(), succ.end(), [&](const auto& st) {
          return !ring.in_invariant(st.target);
        }))
      continue;
    const GlobalStateId id = min_rotation(ring, s);
    if (!best || id < *best) best = id;
  }
  return best;
}

/// The first 8 necklace ids of the deadlocks outside I, ascending.
std::vector<GlobalStateId> deadlock_necklaces(const RingInstance& ring) {
  std::set<GlobalStateId> ids;
  for (GlobalStateId s = 0; s < ring.num_states(); ++s)
    if (!ring.in_invariant(s) && ring.is_deadlock(s))
      ids.insert(min_rotation(ring, s));
  std::vector<GlobalStateId> out(ids.begin(), ids.end());
  if (out.size() > 8) out.resize(8);
  return out;
}

void expect_same(const SymmetricCheckResult& got,
                 const SymmetricCheckResult& want, const std::string& at) {
  EXPECT_EQ(got.ring_size, want.ring_size) << at;
  EXPECT_EQ(got.num_states, want.num_states) << at;
  EXPECT_EQ(got.num_necklaces, want.num_necklaces) << at;
  EXPECT_EQ(got.num_deadlocks_outside_i, want.num_deadlocks_outside_i) << at;
  EXPECT_EQ(got.deadlock_orbit_reps, want.deadlock_orbit_reps) << at;
  EXPECT_EQ(got.has_livelock, want.has_livelock) << at;
  EXPECT_EQ(got.livelock_cycle, want.livelock_cycle) << at;
  EXPECT_EQ(got.closure_ok, want.closure_ok) << at;
  EXPECT_EQ(got.closure_violation, want.closure_violation) << at;
  EXPECT_EQ(got.weakly_converges, want.weakly_converges) << at;
  EXPECT_EQ(got.max_recovery_steps, want.max_recovery_steps) << at;
  EXPECT_EQ(got.canonical_states_visited, want.canonical_states_visited)
      << at;
}

void check_ring(const Protocol& p, std::size_t k) {
  const RingInstance ring(p, k);
  const OracleVerdict want = oracle(ring);
  const std::string where = p.name() + " K=" + std::to_string(k);
  const bool converges = !want.closure_violation && want.deadlocks == 0 &&
                         want.livelock_states.empty();

  for (const std::size_t lanes : {1u, 4u}) {
    const GlobalChecker checker(ring, lanes);
    const GlobalCheckResult got = checker.check_all();
    const std::string at = where + " lanes=" + std::to_string(lanes);
    EXPECT_EQ(got.num_deadlocks_outside_i, want.deadlocks) << at;
    EXPECT_EQ(got.deadlock_samples, want.deadlock_samples) << at;
    EXPECT_EQ(got.closure_violation, want.closure_violation) << at;
    EXPECT_EQ(checker.livelock_states(), want.livelock_states) << at;
    EXPECT_EQ(got.has_livelock, !want.livelock_states.empty()) << at;
    if (got.has_livelock) {
      // The witness is anchored at the smallest livelocked state.
      EXPECT_EQ(got.livelock_cycle.front(), want.livelock_states.front()) << at;
      expect_real_cycle(ring, got.livelock_cycle, at);
    }
    EXPECT_EQ(got.weakly_converges, want.weakly_converges) << at;
    EXPECT_EQ(got.strongly_converges(), converges) << at;
    if (want.recovery)
      EXPECT_EQ(checker.max_recovery_steps(), *want.recovery) << at;
    else
      EXPECT_THROW(checker.max_recovery_steps(), ModelError) << at;
  }

  const SymmetricCheckResult sym = check_symmetric(ring, 8, 1);
  expect_same(check_symmetric(ring, 8, 4), sym, where + " quotient lanes=4");
  EXPECT_EQ(sym.num_deadlocks_outside_i, want.deadlocks) << where;
  EXPECT_EQ(sym.deadlock_orbit_reps, deadlock_necklaces(ring)) << where;
  EXPECT_EQ(sym.closure_ok, !want.closure_violation) << where;
  if (sym.closure_violation) {
    // The smallest escaping necklace, reported as one of its actual moves.
    EXPECT_EQ(sym.closure_violation->first, smallest_escaping_necklace(ring))
        << where;
    std::vector<RingInstance::Step> succ;
    ring.successors(sym.closure_violation->first, succ);
    EXPECT_TRUE(std::any_of(succ.begin(), succ.end(), [&](const auto& st) {
      return st.target == sym.closure_violation->second;
    })) << where;
    EXPECT_FALSE(ring.in_invariant(sym.closure_violation->second)) << where;
  }
  EXPECT_EQ(sym.has_livelock, !want.livelock_states.empty()) << where;
  if (sym.has_livelock) expect_real_cycle(ring, sym.livelock_cycle, where);
  EXPECT_EQ(sym.weakly_converges, want.weakly_converges) << where;
  EXPECT_EQ(sym.max_recovery_steps, converges ? *want.recovery : 0) << where;
}

template <class Result>
void expect_matches(const Result& got, const OracleVerdict& want,
                    const std::string& where) {
  EXPECT_EQ(got.num_deadlocks_outside_i, want.deadlocks) << where;
  EXPECT_EQ(got.has_livelock, !want.livelock_states.empty()) << where;
  EXPECT_EQ(got.terminates, want.terminates) << where;
}

/// Array protocols: the bundled ones plus seeded random ones, half of which
/// may fire from legitimate states (so computations can cycle, inside I
/// too).
std::vector<Protocol> array_protocols() {
  std::vector<Protocol> out = {
      protocols::array_agreement(2), protocols::array_agreement(3),
      protocols::array_sort(3), protocols::array_two_coloring(),
      protocols::array_two_coloring_broken()};
  std::mt19937_64 rng(0x5eed);
  for (int i = 0; i < 40; ++i)
    out.push_back(testing::random_array_protocol(rng, i % 2 != 0));
  return out;
}

TEST(Differential, ZooRingsMatchOracle) {
  for (const Protocol& p : testing::protocol_zoo())
    for (std::size_t k = 2; k <= 8; ++k) check_ring(p, k);
}

// At K=10 the peel's frontiers and the residue sweep span several
// chunks, so the atomic decrements and frontier merges run on several
// lanes (scripts/check.sh runs this file under TSan).
TEST(Differential, TenProcessRingsMatchOracle) {
  check_ring(protocols::sum_not_two_solution(), 10);
  check_ring(protocols::three_coloring_rotation(), 10);
}

TEST(Differential, RandomRingsMatchOracle) {
  // 240 seeded protocols: half of them bidirectional, a third dense enough
  // to livelock often, and a quarter firing from legitimate states too, so
  // closure can fail.
  for (std::uint64_t seed = 1; seed <= 240; ++seed) {
    std::mt19937_64 rng(seed);
    testing::RandomProtocolOptions opts;
    opts.allow_bidirectional = seed % 2 == 0;
    if (seed % 3 == 0) opts.transition_density = 0.7;
    opts.legit_fires = seed % 4 == 1;
    const Protocol p = testing::random_protocol(rng, opts);
    for (std::size_t k = 3; k <= 6; ++k) check_ring(p, k);
  }
}

TEST(Differential, ArraysMatchOracle) {
  for (const Protocol& p : array_protocols())
    for (std::size_t n = 2; n <= 8; ++n) {
      const ArrayInstance inst(p, n);
      expect_matches(check_array(inst), oracle(inst),
                     p.name() + " n=" + std::to_string(n));
    }
}

TEST(Differential, TreesMatchOracle) {
  for (const Protocol& p : array_protocols())
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      const TreeInstance inst(p, random_tree_shape(3 + seed % 5, seed));
      expect_matches(check_tree(inst), oracle(inst),
                     p.name() + " tree seed=" + std::to_string(seed));
    }
}

}  // namespace
}  // namespace ringstab
