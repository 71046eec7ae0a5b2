#include <gtest/gtest.h>

#include <random>

#include "graph/cycles.hpp"
#include "graph/digraph.hpp"
#include "graph/dot.hpp"
#include "graph/feedback.hpp"
#include "graph/scc.hpp"
#include "graph/walks.hpp"

namespace ringstab {
namespace {

Digraph ring_graph(std::size_t n) {
  Digraph g(n);
  for (VertexId v = 0; v < n; ++v)
    g.add_arc(v, static_cast<VertexId>((v + 1) % n));
  return g;
}

TEST(Digraph, AddArcIsIdempotent) {
  Digraph g(3);
  g.add_arc(0, 1);
  g.add_arc(0, 1);
  EXPECT_EQ(g.num_arcs(), 1u);
  EXPECT_TRUE(g.has_arc(0, 1));
  EXPECT_FALSE(g.has_arc(1, 0));
}

TEST(Digraph, OutIsSorted) {
  Digraph g(4);
  g.add_arc(0, 3);
  g.add_arc(0, 1);
  g.add_arc(0, 2);
  EXPECT_EQ(g.out(0), (std::vector<VertexId>{1, 2, 3}));
}

TEST(Digraph, InducedKeepsOnlyMaskedArcs) {
  Digraph g = ring_graph(4);
  const Digraph sub = g.induced({true, true, false, true});
  EXPECT_TRUE(sub.has_arc(0, 1));
  EXPECT_FALSE(sub.has_arc(1, 2));
  EXPECT_FALSE(sub.has_arc(2, 3));
  EXPECT_TRUE(sub.has_arc(3, 0));
}

TEST(Digraph, ReversedFlipsArcs) {
  Digraph g(3);
  g.add_arc(0, 1);
  const Digraph r = g.reversed();
  EXPECT_TRUE(r.has_arc(1, 0));
  EXPECT_FALSE(r.has_arc(0, 1));
}

TEST(Digraph, InDegrees) {
  Digraph g = ring_graph(3);
  g.add_arc(0, 2);
  EXPECT_EQ(g.in_degrees(), (std::vector<std::size_t>{1, 1, 2}));
}

TEST(Scc, RingIsOneComponent) {
  const auto scc = strongly_connected_components(ring_graph(5));
  EXPECT_EQ(scc.num_components, 1u);
  EXPECT_EQ(scc.component_size[0], 5u);
}

TEST(Scc, ChainIsAllSingletons) {
  Digraph g(4);
  g.add_arc(0, 1);
  g.add_arc(1, 2);
  g.add_arc(2, 3);
  const auto scc = strongly_connected_components(g);
  EXPECT_EQ(scc.num_components, 4u);
  for (VertexId v = 0; v < 4; ++v) EXPECT_FALSE(scc.on_cycle(v));
}

TEST(Scc, SelfLoopIsOnCycle) {
  Digraph g(2);
  g.add_arc(0, 0);
  const auto scc = strongly_connected_components(g);
  EXPECT_TRUE(scc.on_cycle(0));
  EXPECT_FALSE(scc.on_cycle(1));
}

TEST(Scc, TwoComponents) {
  Digraph g(5);
  g.add_arc(0, 1);
  g.add_arc(1, 0);
  g.add_arc(1, 2);
  g.add_arc(2, 3);
  g.add_arc(3, 4);
  g.add_arc(4, 2);
  const auto scc = strongly_connected_components(g);
  EXPECT_EQ(scc.num_components, 2u);
  EXPECT_EQ(scc.component[0], scc.component[1]);
  EXPECT_EQ(scc.component[2], scc.component[3]);
  EXPECT_NE(scc.component[0], scc.component[2]);
}

// Property: on_cycle agrees with brute-force "v reaches v in ≥1 step".
TEST(Scc, MatchesBruteForceOnRandomGraphs) {
  std::mt19937_64 rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 2 + rng() % 10;
    Digraph g(n);
    const std::size_t arcs = rng() % (n * n);
    for (std::size_t a = 0; a < arcs; ++a)
      g.add_arc(static_cast<VertexId>(rng() % n),
                static_cast<VertexId>(rng() % n));
    const auto scc = strongly_connected_components(g);
    for (VertexId v = 0; v < n; ++v) {
      // BFS from successors of v.
      std::vector<bool> seen(n, false);
      std::vector<VertexId> stack(g.out(v).begin(), g.out(v).end());
      bool reaches_self = false;
      while (!stack.empty()) {
        const VertexId u = stack.back();
        stack.pop_back();
        if (u == v) {
          reaches_self = true;
          break;
        }
        if (seen[u]) continue;
        seen[u] = true;
        for (VertexId w : g.out(u)) stack.push_back(w);
      }
      EXPECT_EQ(scc.on_cycle(v), reaches_self) << "trial " << trial;
    }
  }
}

TEST(Cycles, FindCycleThrough) {
  Digraph g = ring_graph(4);
  const auto c = find_cycle_through(g, 2);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->size(), 4u);
  EXPECT_EQ(c->front(), 2u);
}

TEST(Cycles, FindCycleRespectsAllowedMask) {
  Digraph g = ring_graph(4);
  g.add_arc(1, 0);  // short 2-cycle 0↔1
  std::vector<bool> allowed{true, true, false, false};
  const auto c = find_cycle_through(g, 0, &allowed);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(*c, (Cycle{0, 1}));
}

TEST(Cycles, SelfLoopIsLengthOne) {
  Digraph g(2);
  g.add_arc(1, 1);
  const auto c = find_cycle_through(g, 1);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(*c, (Cycle{1}));
  EXPECT_FALSE(find_cycle_through(g, 0).has_value());
}

TEST(Cycles, JohnsonEnumeratesAll) {
  // K3 complete digraph: 2 three-cycles + 3 two-cycles + 0 self loops = 5.
  Digraph g(3);
  for (VertexId u = 0; u < 3; ++u)
    for (VertexId v = 0; v < 3; ++v)
      if (u != v) g.add_arc(u, v);
  const auto cycles = simple_cycles(g);
  EXPECT_EQ(cycles.size(), 5u);
  for (const auto& c : cycles) {
    for (std::size_t i = 0; i < c.size(); ++i)
      EXPECT_TRUE(g.has_arc(c[i], c[(i + 1) % c.size()]));
    EXPECT_EQ(*std::min_element(c.begin(), c.end()), c.front())
        << "canonical rotation";
  }
}

TEST(Cycles, ThroughMarkedFilters) {
  Digraph g(4);
  g.add_arc(0, 1);
  g.add_arc(1, 0);
  g.add_arc(2, 3);
  g.add_arc(3, 2);
  std::vector<bool> marked{false, false, true, false};
  const auto cycles = simple_cycles_through(g, marked);
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0], (Cycle{2, 3}));
}

TEST(Feedback, SingleCycleAllVerticesAreMinimalSets) {
  Digraph g = ring_graph(3);
  std::vector<bool> all(3, true);
  const auto sets = minimal_feedback_sets(g, all, all);
  EXPECT_EQ(sets.size(), 3u);
  for (const auto& s : sets) EXPECT_EQ(s.size(), 1u);
}

TEST(Feedback, RestrictedCandidates) {
  Digraph g = ring_graph(3);
  std::vector<bool> marked(3, true);
  std::vector<bool> cand{true, false, false};
  const auto sets = minimal_feedback_sets(g, marked, cand);
  ASSERT_EQ(sets.size(), 1u);
  EXPECT_EQ(sets[0], (std::vector<VertexId>{0}));
}

TEST(Feedback, OnlyMarkedCyclesNeedBreaking) {
  // Two disjoint 2-cycles; only the first is marked.
  Digraph g(4);
  g.add_arc(0, 1);
  g.add_arc(1, 0);
  g.add_arc(2, 3);
  g.add_arc(3, 2);
  std::vector<bool> marked{true, false, false, false};
  std::vector<bool> cand{true, true, true, true};
  const auto sets = minimal_feedback_sets(g, marked, cand);
  ASSERT_FALSE(sets.empty());
  for (const auto& s : sets) {
    EXPECT_LE(s.size(), 1u);
    EXPECT_TRUE(breaks_all_marked_cycles(g, marked, s));
  }
}

TEST(Feedback, InfeasibleThrows) {
  Digraph g = ring_graph(3);
  std::vector<bool> marked(3, true);
  std::vector<bool> cand(3, false);
  EXPECT_THROW(minimal_feedback_sets(g, marked, cand), ModelError);
}

TEST(Feedback, ResultsAreMinimalAndSufficient) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 3 + rng() % 5;
    Digraph g(n);
    for (std::size_t a = 0; a < n * 2; ++a)
      g.add_arc(static_cast<VertexId>(rng() % n),
                static_cast<VertexId>(rng() % n));
    std::vector<bool> marked(n, true);
    std::vector<bool> cand(n, true);
    for (const auto& s : minimal_feedback_sets(g, marked, cand)) {
      EXPECT_TRUE(breaks_all_marked_cycles(g, marked, s));
      for (std::size_t drop = 0; drop < s.size(); ++drop) {
        auto smaller = s;
        smaller.erase(smaller.begin() + static_cast<long>(drop));
        EXPECT_FALSE(breaks_all_marked_cycles(g, marked, smaller))
            << "set is not minimal";
      }
    }
  }
}

TEST(Walks, RingSpectrumIsMultiples) {
  const Digraph g = ring_graph(4);
  std::vector<bool> marked{true, false, false, false};
  const auto spec = closed_walk_lengths(g, marked, 20);
  for (std::size_t k = 1; k <= 20; ++k)
    EXPECT_EQ(spec.at(k), k % 4 == 0) << k;
  EXPECT_EQ(spec.smallest(), 4u);
}

TEST(Walks, TwoCyclesComposeLengths) {
  // Cycles of length 2 and 3 sharing vertex 0: lengths {2,3,4,5,...}.
  Digraph g(4);
  g.add_arc(0, 1);
  g.add_arc(1, 0);
  g.add_arc(0, 2);
  g.add_arc(2, 3);
  g.add_arc(3, 0);
  std::vector<bool> marked{true, false, false, false};
  const auto spec = closed_walk_lengths(g, marked, 12);
  EXPECT_FALSE(spec.at(1));
  for (std::size_t k = 2; k <= 12; ++k) EXPECT_TRUE(spec.at(k)) << k;
}

TEST(Walks, WitnessIsAValidClosedWalk) {
  Digraph g(4);
  g.add_arc(0, 1);
  g.add_arc(1, 0);
  g.add_arc(0, 2);
  g.add_arc(2, 3);
  g.add_arc(3, 0);
  std::vector<bool> marked{true, false, false, false};
  for (std::size_t len = 2; len <= 10; ++len) {
    const auto walk = closed_walk_of_length(g, marked, len);
    ASSERT_TRUE(walk.has_value()) << len;
    EXPECT_EQ(walk->size(), len);
    EXPECT_TRUE(marked[(*walk)[0]]);
    for (std::size_t i = 0; i < len; ++i)
      EXPECT_TRUE(g.has_arc((*walk)[i], (*walk)[(i + 1) % len]));
  }
  EXPECT_FALSE(closed_walk_of_length(g, marked, 1).has_value());
}

TEST(Dot, RendersVerticesAndArcs) {
  Digraph g(2);
  g.add_arc(0, 1);
  DotOptions opts;
  opts.label = [](VertexId v) { return v == 0 ? "zero" : "one"; };
  const std::string dot = to_dot(g, opts);
  EXPECT_NE(dot.find("zero"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
}

TEST(Dot, IncludeFilterDropsVertices) {
  Digraph g(3);
  g.add_arc(0, 1);
  g.add_arc(1, 2);
  DotOptions opts;
  opts.include = [](VertexId v) { return v != 2; };
  const std::string dot = to_dot(g, opts);
  EXPECT_EQ(dot.find("n2"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
}

}  // namespace
}  // namespace ringstab
