// Explicit-state verification of concrete ring instances (the global
// baseline the paper contrasts with local reasoning).
#pragma once

#include <optional>
#include <vector>

#include "global/ring_instance.hpp"
#include "global/state_space.hpp"
#include "graph/peel.hpp"
#include "parallel/bitset.hpp"

namespace ringstab {

/// Results of checking one instance p(K) exhaustively.
struct GlobalCheckResult {
  std::size_t ring_size = 0;
  GlobalStateId num_states = 0;

  std::size_t num_deadlocks_outside_i = 0;
  std::vector<GlobalStateId> deadlock_samples;  // capped

  bool has_livelock = false;
  /// Witness cycle of global states, all outside I (empty if none).
  std::vector<GlobalStateId> livelock_cycle;

  bool closure_ok = true;
  std::optional<std::pair<GlobalStateId, GlobalStateId>> closure_violation;

  /// Every global state can reach I (weak convergence).
  bool weakly_converges = false;

  /// Strong convergence to I = closure + no deadlock outside I + no cycle
  /// outside I (Proposition 2.1).
  bool strongly_converges() const {
    return closure_ok && num_deadlocks_outside_i == 0 && !has_livelock;
  }

  /// Worst-case number of steps to reach I over all states and all
  /// schedules; meaningful only when strongly_converges() (else 0).
  std::size_t max_recovery_steps = 0;
};

/// Exhaustive checker over |D|^K global states.
///
/// The ring is an adapter of the shared census → ¬I CSR build
/// (global/state_space.hpp), so the state space is decoded exactly twice
/// per full verdict, both times by the rolling cursor. Pass 1 classifies
/// every state (invariant membership + deadlock census). Pass 2 walks
/// successors once, recording the first closure violation of I and
/// materializing the ¬I transition graph as a compact CSR over ¬I *ranks*
/// plus a steps-into-I bitset. Livelock, weak convergence and the recovery
/// bound then come out of the shared ¬I verdict tail (graph/peel.hpp): one
/// out-degree peel of the CSR, a backward sweep over its residue, and a
/// serial Tarjan over the residue only. Each stage runs once and is cached, so
/// after find_livelock() the weak-convergence and recovery queries are
/// reads.
///
/// Verdicts, counts, samples, witness cycles and step bounds are identical
/// at every thread count: per-chunk partial results are merged in ascending
/// chunk order over a thread-count-independent chunk partition, the peel is
/// a unique fixpoint, and the SCC labeling is canonical (smallest member).
///
/// `num_threads > 1` runs the sweeps as chunked scans on the shared pool.
/// A checker instance caches its sweeps and is not safe for concurrent use.
class GlobalChecker {
 public:
  explicit GlobalChecker(const RingInstance& ring, std::size_t num_threads = 1)
      : ring_(&ring), num_threads_(num_threads == 0 ? 1 : num_threads) {}

  std::size_t num_threads() const { return num_threads_; }

  /// The packed I(K) membership mask, built (in parallel) on first use and
  /// cached for the checker's lifetime.
  const PackedBitset& invariant_mask() const;

  /// Count (and sample the first min(`max_samples`, 8), ascending) global
  /// deadlocks outside I.
  std::size_t count_deadlocks_outside_invariant(
      std::vector<GlobalStateId>* samples = nullptr,
      std::size_t max_samples = 8) const;

  /// Find a cycle of global states entirely outside I (a livelock witness).
  std::optional<std::vector<GlobalStateId>> find_livelock() const;

  /// All states lying on some cycle outside I (the union of nontrivial
  /// ¬I SCCs), ascending.
  std::vector<GlobalStateId> livelock_states() const;

  /// Closure of I (Section 2.3): no transition leaves I. The violation
  /// reported is the one with the smallest source state.
  bool check_closure(
      std::optional<std::pair<GlobalStateId, GlobalStateId>>* violation =
          nullptr) const;

  /// Every global state can reach I (weak convergence).
  bool check_weak_convergence() const;

  /// Longest path to I in the (acyclic, deadlock-free) ¬I subgraph.
  /// Throws ModelError if called on a non-strongly-converging instance.
  std::size_t max_recovery_steps() const;

  /// Everything at once.
  GlobalCheckResult check_all() const;

 private:
  static constexpr std::size_t kMaxCachedSamples = 8;

  // Pipeline stages, each cached after the first call.
  const SpaceCensus& census() const;  // pass 1: invariant mask + deadlocks
  const NotInvGraph& graph() const;   // pass 2: closure + ¬I CSR
  const VerdictTail& tail() const;    // peel / reach / residue SCC

  const RingInstance* ring_;
  std::size_t num_threads_;

  mutable std::optional<SpaceCensus> census_;
  mutable std::optional<NotInvGraph> graph_;
  mutable std::optional<VerdictTail> tail_;
};

/// Convenience: does p(K) strongly self-stabilize to I(K)?
bool strongly_stabilizing(const RingInstance& ring,
                          std::size_t num_threads = 1);

}  // namespace ringstab
