// The ¬I verdict tail shared by every explicit-state engine (ring,
// rotation quotient, array, tree), and the level-synchronous degree peel it
// is built on.
//
// Every engine reaches it through the one census → ¬I CSR build
// (global/state_space.hpp), which hands it the same two objects: a CSR over
// the states outside I (edges into I dropped) and a bitset of the states
// that step into I in one move. Arrays and trees build with nothing
// projected out, so their CSR is the whole graph and the tail's peel
// decides termination. Strong convergence is closure + no deadlock
// outside I + no cycle outside I (Proposition 2.1), and the recovery bound
// is the longest path to I. One out-degree peel over that CSR answers all
// of it:
//  * level 1 is every sink (a state that only steps into I, or a
//    deadlock); level L+1 is every state whose last live successor left at
//    level L. When nothing outside I deadlocks or cycles, a state's level is
//    its longest path to I, so the recovery bound is the number of levels;
//  * the unpeeled residue is exactly the set of states that can reach a
//    cycle outside I: the instance is acyclic iff the residue is empty;
//  * peeled states reach I unless a deadlock exists, so weak convergence
//    is "no deadlock, and a backward sweep from the residue's exits covers
//    the residue".
// Livelock witnesses come from the one Tarjan (graph/scc.hpp) run over the
// CSR with the peeled vertices skipped, so it visits the residue alone.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/scc.hpp"
#include "parallel/bitset.hpp"

namespace ringstab {

/// Everything the ¬I tail decides, over the vertex ids of its input CSR.
struct VerdictTail {
  /// Sinks that do not step into I: deadlocks outside I.
  std::uint64_t num_deadlocks = 0;
  /// Every vertex can reach I.
  bool weakly_converges = false;
  /// Peel levels: the longest path to I when acyclic() and deadlock-free.
  std::uint32_t levels = 0;
  /// Vertices the peel left: those that can reach a cycle.
  std::uint64_t residue = 0;
  /// Vertices on some cycle (a nontrivial SCC or a self-loop).
  PackedBitset on_cycle;
  /// A simple cycle through the smallest on-cycle vertex, in CSR edge order
  /// (extract_component_cycle); empty iff acyclic().
  std::vector<std::uint32_t> witness;

  bool acyclic() const { return residue == 0; }
};

/// Run the tail on the ¬I CSR `g`, where `to_inv[v]` marks the vertices with
/// a move into I.
VerdictTail verdict_tail(const CsrGraph& g, const PackedBitset& to_inv,
                         std::size_t num_threads);

}  // namespace ringstab
