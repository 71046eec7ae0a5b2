// Brute-force reference verdicts for the differential tests.
//
// The oracle shares no code with the engines: it materializes the explicit
// transition relation through an instance's public successors() and
// in_invariant() and answers each question by its textbook definition —
// Kosaraju SCCs for cycles, backward reachability for weak convergence,
// memoized longest path for recovery. It is meant for small instances
// (thousands of states).
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "core/types.hpp"

namespace ringstab::testing {

/// An explicit state space: in_inv[s] and the successor list of each s.
struct ExplicitSpace {
  std::vector<bool> in_inv;
  std::vector<std::vector<GlobalStateId>> succ;
};

struct OracleVerdict {
  std::size_t deadlocks = 0;                     // outside I, no successor
  std::vector<GlobalStateId> deadlock_samples;   // first 8, ascending
  /// The smallest I-state with a successor outside I, and its first such
  /// successor in successor order.
  std::optional<std::pair<GlobalStateId, GlobalStateId>> closure_violation;
  /// States on a cycle entirely outside I, ascending.
  std::vector<GlobalStateId> livelock_states;
  bool weakly_converges = false;  // every state reaches I
  bool terminates = false;        // no cycle anywhere
  /// Longest path to I; set only when the instance strongly converges.
  std::optional<std::size_t> recovery;
};

OracleVerdict oracle_verdict(const ExplicitSpace& space);

/// The oracle over any instance with num_states(), in_invariant(s) and
/// successors(s, steps) — rings, arrays and trees alike.
template <class Instance>
OracleVerdict oracle(const Instance& inst) {
  ExplicitSpace space;
  std::vector<typename Instance::Step> steps;
  space.succ.resize(inst.num_states());
  for (GlobalStateId s = 0; s < inst.num_states(); ++s) {
    space.in_inv.push_back(inst.in_invariant(s));
    inst.successors(s, steps);
    for (const auto& step : steps) space.succ[s].push_back(step.target);
  }
  return oracle_verdict(space);
}

}  // namespace ringstab::testing
