// In-tree topology: every process reads its parent (the paper's Def. 4.1
// remark sketches RCG construction for trees). For parent-read localities
// (reads x[-1]..x[0]) the deadlock theory REDUCES to the array case: a
// deadlocked tree outside I exists for some tree shape iff a deadlocked
// array exists for some length — path trees are trees, and any bad tree
// contains a bad root-to-node path. This class provides the exhaustive
// ground truth used to validate that reduction.
#pragma once

#include <vector>

#include "global/array_instance.hpp"

namespace ringstab {

/// A rooted in-tree of n processes running an array-convention protocol
/// (domain's last value = ⊥). Node 0 is the root (its window's parent slot
/// is ⊥); parent[i] < i for every other node. The locality must be
/// {left=1, right=0}, so node i reads {parent(i), i}.
class TreeInstance : public WindowInstance {
 public:
  TreeInstance(Protocol protocol, std::vector<std::size_t> parent,
               GlobalStateId max_states = GlobalStateId{1} << 22);

  std::size_t size() const { return num_processes(); }

  /// Parent of node i (i ≥ 1).
  std::size_t parent(std::size_t i) const { return parent_[i - 1]; }

 private:
  std::vector<std::size_t> parent_;  // parent_[i-1] = parent of node i
};

using TreeCheckResult = ArrayCheckResult;

/// Exhaustive check (check_explicit; capped state space).
inline TreeCheckResult check_tree(const TreeInstance& inst) {
  return check_explicit(inst);
}

/// A uniformly random in-tree shape on n nodes (each node's parent drawn
/// from its predecessors).
std::vector<std::size_t> random_tree_shape(std::size_t n,
                                           std::uint64_t seed);

}  // namespace ringstab
