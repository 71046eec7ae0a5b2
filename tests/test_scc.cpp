// The one Tarjan (graph/scc.hpp): canonical labels checked against
// brute-force mutual reachability on randomized digraphs, a linear-work
// count on a graph that is quadratic for pivot-based decompositions, the
// `skip` set the verdict tail uses, plus the global engines' livelock sets
// and witnesses at 1 and 4 lanes over the protocol zoo. (Agreement with an
// independent oracle lives in test_differential.cpp.)
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "global/checker.hpp"
#include "global/symmetry.hpp"
#include "graph/digraph.hpp"
#include "graph/scc.hpp"
#include "helpers.hpp"

namespace ringstab {
namespace {

Digraph random_digraph(std::mt19937& rng, std::size_t n, double avg_degree) {
  Digraph g(n);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  const double p = std::min(1.0, avg_degree / static_cast<double>(n));
  for (VertexId u = 0; u < n; ++u)
    for (VertexId v = 0; v < n; ++v)
      if (coin(rng) < p) g.add_arc(u, v);  // self-loops included
  return g;
}

/// reach[u][v]: v is reachable from u in one or more steps.
std::vector<std::vector<bool>> reachability(const Digraph& g) {
  const std::size_t n = g.num_vertices();
  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  for (VertexId u = 0; u < n; ++u) {
    std::vector<VertexId> stack(g.out(u).begin(), g.out(u).end());
    while (!stack.empty()) {
      const VertexId v = stack.back();
      stack.pop_back();
      if (reach[u][v]) continue;
      reach[u][v] = true;
      for (const VertexId w : g.out(v)) stack.push_back(w);
    }
  }
  return reach;
}

/// Every field of the Tarjan result against brute force: v's label is the
/// smallest vertex mutually reachable with v, and v is on a cycle iff it
/// reaches itself.
void check_against_brute_force(const Digraph& g) {
  const std::size_t n = g.num_vertices();
  const auto reach = reachability(g);
  const SccResult r = strongly_connected_components(g);
  ASSERT_EQ(r.component.size(), n);
  ASSERT_EQ(r.vertices_visited, n);
  ASSERT_EQ(r.edges_scanned, g.num_arcs());
  std::vector<std::uint32_t> size(n, 0);
  std::uint64_t labels = 0;
  for (VertexId v = 0; v < n; ++v) {
    VertexId label = v;
    for (VertexId u = 0; u < v; ++u)
      if (reach[u][v] && reach[v][u]) {
        label = u;
        break;
      }
    ASSERT_EQ(r.component[v], label) << "vertex " << v;
    ASSERT_EQ(r.on_cycle(v), reach[v][v]) << "vertex " << v;
    ASSERT_EQ(r.self_loop.test(v), g.has_arc(v, v)) << "vertex " << v;
    ++size[label];
    if (label == v) ++labels;
  }
  ASSERT_EQ(r.num_components, labels);
  for (VertexId v = 0; v < n; ++v) {
    ASSERT_EQ(r.component_size[v], size[v]) << "vertex " << v;
    ASSERT_EQ(r.nontrivial.test(v), size[r.component[v]] > 1) << v;
  }
}

/// A linear certificate that `r` is the SCC partition of `g`, for graphs
/// too large for brute force: every component is strongly connected (a
/// forward and a backward search from its label, inside the component,
/// reach all of it), and the condensation is acyclic (Kahn's algorithm
/// removes every component). Labels must also be each component's minimum.
void check_partition(const Digraph& g, const SccResult& r) {
  const std::size_t n = g.num_vertices();
  const Digraph tr = g.reversed();
  std::vector<std::uint32_t> size(n, 0), min_member(n, ~0u);
  for (VertexId v = 0; v < n; ++v) {
    ++size[r.component[v]];
    min_member[r.component[v]] = std::min(min_member[r.component[v]], v);
  }
  for (const Digraph* dir : {&g, &tr}) {
    std::vector<bool> seen(n, false);
    std::vector<std::uint32_t> reached(n, 0);
    for (VertexId c = 0; c < n; ++c) {
      if (size[c] == 0) continue;
      ASSERT_EQ(min_member[c], c) << "label " << c << " is not the minimum";
      std::vector<VertexId> stack{c};
      seen[c] = true;
      while (!stack.empty()) {
        const VertexId v = stack.back();
        stack.pop_back();
        ++reached[c];
        for (const VertexId w : dir->out(v))
          if (r.component[w] == c && !seen[w]) {
            seen[w] = true;
            stack.push_back(w);
          }
      }
      ASSERT_EQ(reached[c], size[c]) << "component " << c << " is split";
    }
  }
  std::vector<std::uint32_t> in_arcs(n, 0);
  for (VertexId u = 0; u < n; ++u)
    for (const VertexId v : g.out(u))
      if (r.component[u] != r.component[v]) ++in_arcs[r.component[v]];
  std::vector<VertexId> ready;
  std::vector<std::vector<VertexId>> members(n);
  for (VertexId v = 0; v < n; ++v) members[r.component[v]].push_back(v);
  for (VertexId c = 0; c < n; ++c)
    if (size[c] > 0 && in_arcs[c] == 0) ready.push_back(c);
  std::size_t removed = 0;
  while (!ready.empty()) {
    const VertexId c = ready.back();
    ready.pop_back();
    ++removed;
    for (const VertexId u : members[c])
      for (const VertexId v : g.out(u))
        if (r.component[v] != c && --in_arcs[r.component[v]] == 0)
          ready.push_back(r.component[v]);
  }
  ASSERT_EQ(removed, r.num_components) << "the condensation has a cycle";
}

TEST(Tarjan, EmptyGraph) {
  const CsrGraph g;  // zero vertices
  const SccResult r = strongly_connected_components(g);
  EXPECT_EQ(r.num_components, 0u);
  EXPECT_TRUE(r.component.empty());
  EXPECT_EQ(r.edges_scanned, 0u);
}

TEST(Tarjan, SingletonAndSelfLoop) {
  Digraph g(2);
  g.add_arc(1, 1);
  check_against_brute_force(g);
  const SccResult r = strongly_connected_components(g);
  EXPECT_FALSE(r.on_cycle(0));
  EXPECT_TRUE(r.on_cycle(1));
  EXPECT_TRUE(r.self_loop.test(1));
  EXPECT_FALSE(r.nontrivial.test(1));  // its SCC is still {1}
}

TEST(Tarjan, ChainIsAllSingletons) {
  Digraph g(64);
  for (VertexId v = 0; v + 1 < 64; ++v) g.add_arc(v, v + 1);
  check_against_brute_force(g);
  const SccResult r = strongly_connected_components(g);
  EXPECT_EQ(r.num_components, 64u);
  for (VertexId v = 0; v < 64; ++v) EXPECT_FALSE(r.on_cycle(v));
}

TEST(Tarjan, TwoCyclesAndABridge) {
  // 0→1→2→0 and 5→6→5, bridged 2→5, plus a dead tail 3→4.
  Digraph g(7);
  g.add_arc(0, 1);
  g.add_arc(1, 2);
  g.add_arc(2, 0);
  g.add_arc(2, 5);
  g.add_arc(5, 6);
  g.add_arc(6, 5);
  g.add_arc(3, 4);
  check_against_brute_force(g);
  const SccResult r = strongly_connected_components(g);
  EXPECT_EQ(r.component[0], r.component[1]);
  EXPECT_EQ(r.component[0], 0u);  // labeled by smallest member
  EXPECT_EQ(r.component[5], 5u);
  EXPECT_NE(r.component[0], r.component[5]);
  const auto cyc = extract_component_cycle(to_csr(g), r, 0);
  ASSERT_EQ(cyc.size(), 3u);
  EXPECT_EQ(cyc[0], 0u);
}

TEST(Tarjan, RandomDigraphsMatchMutualReachability) {
  std::mt19937 rng(20260809);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (int round = 0; round < 40; ++round) {
    const std::size_t n = 1 + rng() % 120;
    const double density = 0.5 + 3.0 * coin(rng);  // avg out-degree
    check_against_brute_force(random_digraph(rng, n, density));
  }
}

TEST(Tarjan, LargeRandomDigraphIsAnExactPartition) {
  // Avg out-degree 2 over 20k vertices: a giant SCC among thousands of
  // trivial ones, checked by the linear partition certificate.
  std::mt19937 rng(7);
  const std::size_t n = 20000;
  Digraph g(n);
  for (VertexId u = 0; u < n; ++u)
    for (int e = 0; e < 2; ++e)
      g.add_arc(u, static_cast<VertexId>(rng() % n));
  const SccResult r = strongly_connected_components(g);
  check_partition(g, r);
  EXPECT_EQ(r.edges_scanned, g.num_arcs());
}

TEST(Tarjan, ChainOfTwoCyclesScansEachEdgeOnce) {
  // 25k 2-cycles {2i, 2i+1}, each linked to the next by 2i+1 → 2i+2: the
  // forward set of every smallest-vertex pivot is the whole remaining
  // chain, so a forward–backward decomposition takes ~25k pivots, each
  // rescanning what is left. Tarjan reads each edge exactly once.
  const std::uint32_t n = 50000;
  CsrGraph g;
  g.row.push_back(0);
  for (std::uint32_t v = 0; v < n; ++v) {
    g.col.push_back(v ^ 1u);
    if (v % 2 == 1 && v + 1 < n) g.col.push_back(v + 1);
    g.row.push_back(g.col.size());
  }
  const SccResult r = strongly_connected_components(g);
  EXPECT_EQ(r.edges_scanned, g.num_edges());
  EXPECT_EQ(r.edges_scanned, 3u * n / 2 - 1);
  EXPECT_EQ(r.vertices_visited, n);
  EXPECT_EQ(r.num_components, n / 2);
  for (std::uint32_t v = 0; v < n; ++v) {
    ASSERT_EQ(r.component[v], v & ~1u) << "vertex " << v;
    ASSERT_TRUE(r.nontrivial.test(v)) << "vertex " << v;
  }
}

TEST(Tarjan, SkippedVerticesAreLeftOut) {
  // Skipping a vertex set is the SCC of the induced subgraph on the rest;
  // skipped vertices keep their own label and lie on no cycle, and only
  // the rest's out-edges are read.
  std::mt19937 rng(31);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (int round = 0; round < 30; ++round) {
    const std::size_t n = 1 + rng() % 80;
    const Digraph g = random_digraph(rng, n, 0.5 + 3.0 * coin(rng));
    PackedBitset skip(n);
    std::vector<bool> keep(n, true);
    std::uint64_t live_out = 0;
    for (VertexId v = 0; v < n; ++v) {
      if (coin(rng) < 0.3) {
        skip.set(v);
        keep[v] = false;
      } else {
        live_out += g.out_degree(v);
      }
    }
    const SccResult r = strongly_connected_components(to_csr(g), &skip);
    const SccResult induced = strongly_connected_components(g.induced(keep));
    EXPECT_EQ(r.edges_scanned, live_out);
    EXPECT_EQ(r.vertices_visited, n - skip.count());
    for (VertexId v = 0; v < n; ++v) {
      if (skip.test(v)) {
        EXPECT_EQ(r.component[v], v);
        EXPECT_FALSE(r.on_cycle(v));
      } else {
        EXPECT_EQ(r.component[v], induced.component[v]) << "vertex " << v;
        EXPECT_EQ(r.on_cycle(v), induced.on_cycle(v)) << "vertex " << v;
      }
    }
  }
}

TEST(Tarjan, WitnessCycleIsClosedAndInComponent) {
  std::mt19937 rng(99);
  const std::size_t n = 400;
  Digraph g(n);
  for (VertexId u = 0; u < n; ++u)
    for (int e = 0; e < 3; ++e) g.add_arc(u, static_cast<VertexId>(rng() % n));
  const CsrGraph csr = to_csr(g);
  const SccResult r = strongly_connected_components(csr);
  for (VertexId v = 0; v < n; ++v) {
    if (!r.on_cycle(v)) continue;
    const auto cyc = extract_component_cycle(csr, r, v);
    ASSERT_FALSE(cyc.empty());
    EXPECT_EQ(cyc.front(), v);
    for (std::size_t i = 0; i < cyc.size(); ++i) {
      EXPECT_EQ(r.component[cyc[i]], r.component[v]);
      EXPECT_TRUE(g.has_arc(cyc[i], cyc[(i + 1) % cyc.size()]));
    }
  }
}

/// The global engine's livelock state sets and witness cycles must be
/// bit-identical between 1 and 4 threads over the zoo, and the witness must
/// be a genuine cycle inside the livelocked set.
TEST(ParallelScc, GlobalEngineWitnessIsThreadInvariantOverZoo) {
  for (const Protocol& p : testing::protocol_zoo()) {
    for (std::size_t k = 2; k <= 8; ++k) {
      RingInstance ring(p, k);
      const GlobalChecker serial(ring, 1);
      const GlobalChecker par(ring, 4);

      const auto states = serial.livelock_states();
      ASSERT_EQ(states, par.livelock_states()) << p.name() << " K=" << k;

      const auto w1 = serial.find_livelock();
      const auto w4 = par.find_livelock();
      ASSERT_EQ(w1.has_value(), !states.empty()) << p.name() << " K=" << k;
      ASSERT_EQ(w1, w4) << p.name() << " K=" << k;
      if (!w1) continue;

      // The witness is a genuine computation cycle entirely outside I and
      // inside the livelocked state set.
      const auto& cyc = *w1;
      for (std::size_t i = 0; i < cyc.size(); ++i) {
        EXPECT_FALSE(ring.in_invariant(cyc[i])) << p.name() << " K=" << k;
        EXPECT_TRUE(std::binary_search(states.begin(), states.end(), cyc[i]));
        std::vector<RingInstance::Step> succ;
        ring.successors(cyc[i], succ);
        const GlobalStateId next = cyc[(i + 1) % cyc.size()];
        EXPECT_TRUE(std::any_of(
            succ.begin(), succ.end(),
            [&](const RingInstance::Step& s) { return s.target == next; }))
            << p.name() << " K=" << k << " edge " << i;
      }
    }
  }
}

/// The symmetry quotient's livelock pass rides the same verdict tail; its
/// lifted witness must be thread-count-invariant across the
/// zoo and agree with the full-space engine on the verdict.
TEST(ParallelScc, SymmetryQuotientWitnessIsThreadInvariant) {
  for (const Protocol& p : testing::protocol_zoo()) {
    for (std::size_t k = 2; k <= 10; ++k) {
      RingInstance ring(p, k);
      const SymmetricCheckResult serial = check_symmetric(ring, 8, 1);
      const SymmetricCheckResult par = check_symmetric(ring, 8, 4);
      ASSERT_EQ(serial.has_livelock, par.has_livelock)
          << p.name() << " K=" << k;
      ASSERT_EQ(serial.livelock_cycle, par.livelock_cycle)
          << p.name() << " K=" << k;
      ASSERT_EQ(serial.has_livelock,
                GlobalChecker(ring, 2).find_livelock().has_value())
          << p.name() << " K=" << k;
    }
  }
}

}  // namespace
}  // namespace ringstab
