// The census → ¬I CSR build (global/state_space.hpp) through a hand-written
// adapter over seeded random digraphs, against a brute-force ¬I projection
// of the same graph: I membership and the deadlock census, rank → index
// ids, per-source edge order (duplicates kept), steps-into-I bits and the
// first closure violation, at 1 and 4 lanes. The graphs span a dozen
// chunks and end mid-word, so chunk-start ranks, the chunk-order merges and
// the trailing word are all exercised.
#include "global/state_space.hpp"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

namespace ringstab {
namespace {

struct RandomGraph {
  std::vector<bool> in_inv;
  std::vector<std::vector<GlobalStateId>> succ;
};

/// `n` indices, about 30% in I, 0-4 successors each (repeats allowed). An I
/// index steps outside I with probability `escape` per move, so violations
/// are absent, sparse or common.
RandomGraph random_graph(std::uint64_t seed, GlobalStateId n, double escape) {
  std::mt19937_64 rng(seed);
  RandomGraph g;
  std::vector<GlobalStateId> inv_ids;
  for (GlobalStateId i = 0; i < n; ++i) {
    g.in_inv.push_back(rng() % 10 < 3);
    if (g.in_inv.back()) inv_ids.push_back(i);
  }
  std::bernoulli_distribution leave(escape);
  g.succ.resize(n);
  for (GlobalStateId i = 0; i < n; ++i)
    for (std::uint64_t k = rng() % 5; k > 0; --k)
      g.succ[i].push_back(g.in_inv[i] && !leave(rng)
                              ? inv_ids[rng() % inv_ids.size()]
                              : rng() % n);
  return g;
}

/// The builder adapter: index i's moves are g.succ[i], in order.
struct GraphSpace {
  const RandomGraph& g;

  struct Cursor {
    const RandomGraph* g;
    GlobalStateId i;

    void advance() { ++i; }
    std::uint8_t classify() const {
      return static_cast<std::uint8_t>(
          (g->in_inv[i] ? kClassInvariant : 0) |
          (g->succ[i].empty() ? kClassDeadlock : 0));
    }
    template <class Emit>
    void successors(const Emit& emit) const {
      for (const GlobalStateId t : g->succ[i]) emit(t);
    }
    std::optional<Transition> escape(const PackedBitset& inv) const {
      for (const GlobalStateId t : g->succ[i])
        if (!inv.test(t)) return Transition{i, t};
      return std::nullopt;
    }
  };
  Cursor cursor(GlobalStateId begin) const { return {&g, begin}; }
};

TEST(StateSpace, MatchesBruteForceProjection) {
  constexpr GlobalStateId kStates = 50'001;
  constexpr std::size_t kSamples = 5;
  for (const double escape : {0.0, 1e-4, 0.05}) {
    const RandomGraph g = random_graph(7, kStates, escape);
    ASSERT_GE(num_chunks(kStates, 0), 8u);

    // Brute force: ranks by counting, rows by filtering each successor list.
    std::uint64_t deadlocks = 0;
    std::vector<GlobalStateId> samples, ids;
    std::vector<std::uint32_t> rank(kStates, 0);
    for (GlobalStateId i = 0; i < kStates; ++i) {
      if (g.in_inv[i]) continue;
      if (g.succ[i].empty() && deadlocks++ < kSamples) samples.push_back(i);
      rank[i] = static_cast<std::uint32_t>(ids.size());
      ids.push_back(i);
    }
    std::vector<std::uint64_t> row = {0};
    std::vector<std::uint32_t> col;
    std::vector<bool> to_inv;
    std::optional<Transition> violation;
    for (GlobalStateId i = 0; i < kStates; ++i) {
      bool into = false;
      for (const GlobalStateId t : g.succ[i]) {
        if (g.in_inv[i] && !g.in_inv[t] && !violation) violation = {i, t};
        if (g.in_inv[i]) continue;
        if (g.in_inv[t])
          into = true;
        else
          col.push_back(rank[t]);
      }
      if (g.in_inv[i]) continue;
      row.push_back(col.size());
      to_inv.push_back(into);
    }
    if (escape > 0) {
      ASSERT_TRUE(violation.has_value());
    }

    for (const std::size_t lanes : {1u, 4u}) {
      const std::string at = "escape=" + std::to_string(escape) +
                             " lanes=" + std::to_string(lanes);
      const SpaceCensus census =
          space_census(GraphSpace{g}, kStates, kSamples, lanes);
      for (GlobalStateId i = 0; i < kStates; ++i)
        ASSERT_EQ(census.inv.test(i), g.in_inv[i]) << at << " i=" << i;
      EXPECT_EQ(census.deadlocks, deadlocks) << at;
      EXPECT_EQ(census.deadlock_samples, samples) << at;

      const NotInvGraph got =
          build_not_inv_graph(GraphSpace{g}, census.inv, lanes);
      EXPECT_EQ(got.ids, ids) << at;
      EXPECT_EQ(got.csr.row, row) << at;
      EXPECT_EQ(got.csr.col, col) << at;
      ASSERT_EQ(got.to_inv.size(), to_inv.size()) << at;
      for (std::size_t r = 0; r < to_inv.size(); ++r)
        ASSERT_EQ(got.to_inv.test(r), to_inv[r]) << at << " rank=" << r;
      EXPECT_EQ(got.closure_violation, violation) << at;
    }
  }
}

}  // namespace
}  // namespace ringstab
