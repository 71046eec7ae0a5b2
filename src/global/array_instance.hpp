// Explicit-state view of an array (open chain) protocol instance: the
// ground truth for the array extension of Theorem 4.2.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "graph/peel.hpp"
#include "local/array.hpp"

namespace ringstab {

/// An array of `n` processes running an array protocol (domain's last value
/// reserved as ⊥; see local/array.hpp). Global states range over the REAL
/// values only: |D−1|^n codes.
class ArrayInstance {
 public:
  ArrayInstance(Protocol protocol, std::size_t length,
                GlobalStateId max_states = GlobalStateId{1} << 24);

  const Protocol& protocol() const { return protocol_; }
  std::size_t length() const { return n_; }
  GlobalStateId num_states() const { return num_states_; }

  Value value(GlobalStateId s, std::size_t i) const {
    return static_cast<Value>((s / pow_[i]) % real_d_);
  }
  std::vector<Value> decode(GlobalStateId s) const;
  GlobalStateId encode(std::span<const Value> values) const;

  /// Local state of process i (window padded with ⊥ past the ends).
  LocalStateId local_state(GlobalStateId s, std::size_t i) const;

  bool in_invariant(GlobalStateId s) const;
  bool is_deadlock(GlobalStateId s) const;

  struct Step {
    GlobalStateId target = 0;
    std::size_t process = 0;
    LocalTransition transition;
  };
  void successors(GlobalStateId s, std::vector<Step>& out) const;

  std::string brief(GlobalStateId s) const;

 private:
  Protocol protocol_;
  std::size_t n_;
  std::size_t real_d_;  // |D| − 1 (⊥ excluded from real variables)
  GlobalStateId num_states_;
  std::vector<GlobalStateId> pow_;
};

/// Exhaustive verdicts for array and tree instances.
struct ArrayCheckResult {
  std::size_t num_deadlocks_outside_i = 0;
  bool has_livelock = false;
  bool terminates = false;  // no infinite computation at all
};

/// The exhaustive check shared by arrays and trees, over any instance with
/// num_states(), in_invariant(s) and successors(s, steps): one successor
/// pass builds the ¬I CSR (for the ¬I verdict tail of graph/peel.hpp:
/// deadlocks and livelock) and the whole transition CSR, whose out-degree
/// peel decides termination.
template <class Instance>
ArrayCheckResult check_explicit(const Instance& inst) {
  const GlobalStateId n = inst.num_states();
  if (n >> 32) throw CapacityError("explicit check: more than 2^32 states");
  PackedBitset inv(n);
  std::vector<std::uint32_t> rank(n);  // ¬I rank of each ¬I state
  std::uint32_t nni = 0;
  for (GlobalStateId s = 0; s < n; ++s) {
    inv.set(s, inst.in_invariant(s));
    rank[s] = nni;
    if (!inv.test(s)) ++nni;
  }
  CsrGraph all, outside;
  PackedBitset to_inv(nni);
  all.row.assign(n + 1, 0);
  outside.row.assign(nni + 1, 0);
  std::vector<typename Instance::Step> succ;
  for (GlobalStateId s = 0; s < n; ++s) {
    inst.successors(s, succ);
    for (const auto& step : succ)
      all.col.push_back(static_cast<std::uint32_t>(step.target));
    all.row[s + 1] = all.col.size();
    if (inv.test(s)) continue;
    for (const auto& step : succ)
      if (inv.test(step.target))
        to_inv.set(rank[s]);
      else
        outside.col.push_back(rank[step.target]);
    outside.row[rank[s] + 1] = outside.col.size();
  }

  ArrayCheckResult res;
  const VerdictTail tail = verdict_tail(outside, to_inv, 1);
  res.num_deadlocks_outside_i = tail.num_deadlocks;
  res.has_livelock = !tail.acyclic();
  // Termination: no cycle anywhere, i.e. the whole graph peels away.
  std::vector<std::uint32_t> degree(n);
  for (GlobalStateId s = 0; s < n; ++s)
    degree[s] = static_cast<std::uint32_t>(all.row[s + 1] - all.row[s]);
  res.terminates =
      peel(transpose(all, 1), std::move(degree), 1).num_peeled == n;
  return res;
}

ArrayCheckResult check_array(const ArrayInstance& inst);

}  // namespace ringstab
