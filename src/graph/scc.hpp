// Strongly-connected components: one iterative Tarjan over compact CSR
// digraphs. The ¬I verdict tail (graph/peel.hpp) runs it on the peel's
// residue; the RCG/LTG analyses reach it through the Digraph adapters at
// the bottom.
//
// The walk is linear: every visited vertex is numbered, pushed and popped
// once, and each of its out-edges is read once (SccResult::edges_scanned
// counts them). It keeps flat u32 index/low arrays, an on-stack bitset and
// an explicit frame stack — no recursion, no per-region allocation.
//
// Labels are canonical: component[v] is the smallest vertex id in v's SCC,
// a pure function of the graph, so verdicts and witnesses built from them
// do not depend on root order or on the caller's lane count.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/digraph.hpp"
#include "parallel/bitset.hpp"

namespace ringstab {

/// Compact forward CSR over vertices [0, n): the out-edges of v are
/// col[row[v]], …, col[row[v]+1]-1] in a caller-chosen deterministic order.
struct CsrGraph {
  std::vector<std::uint64_t> row;  // size n + 1; row[0] == 0
  std::vector<std::uint32_t> col;

  std::uint32_t num_vertices() const {
    return row.empty() ? 0 : static_cast<std::uint32_t>(row.size() - 1);
  }
  std::uint64_t num_edges() const { return col.size(); }
};

struct SccResult {
  /// component[v] = smallest vertex id in v's SCC.
  std::vector<std::uint32_t> component;
  /// component_size[c] = number of members of the SCC labeled c; 0 when c
  /// is not a label.
  std::vector<std::uint32_t> component_size;
  /// v's SCC has >= 2 vertices.
  PackedBitset nontrivial;
  /// v has an edge v -> v (a one-vertex cycle; its SCC is still {v}).
  PackedBitset self_loop;
  /// SCCs among the visited vertices.
  std::uint64_t num_components = 0;
  /// Vertices the walk visited, and the out-edges it read from them.
  std::uint64_t vertices_visited = 0;
  std::uint64_t edges_scanned = 0;

  /// v lies on some directed cycle.
  bool on_cycle(std::uint32_t v) const {
    return nontrivial.test(v) || self_loop.test(v);
  }
};

/// Tarjan's SCC decomposition of `g`. Vertices in `skip` (when given) are
/// not visited and edges into them are ignored: each is left as its own
/// one-vertex SCC, on no cycle, and counted in no total.
SccResult strongly_connected_components(const CsrGraph& g,
                                        const PackedBitset* skip = nullptr);

/// A deterministic simple cycle through `start`, restricted to start's SCC:
/// {start} if start has a self-loop, else the first DFS path (CSR edge
/// order) from start back to itself through component members. `start` must
/// lie on a cycle.
std::vector<std::uint32_t> extract_component_cycle(const CsrGraph& g,
                                                   const SccResult& scc,
                                                   std::uint32_t start);

// ---- Digraph adapters -----------------------------------------------------

/// `g` as a CSR; each row keeps Digraph's ascending order.
CsrGraph to_csr(const Digraph& g);

SccResult strongly_connected_components(const Digraph& g);

/// True iff any vertex with `marked[v]` lies on a directed cycle.
bool any_marked_on_cycle(const Digraph& g, const std::vector<bool>& marked);

}  // namespace ringstab
