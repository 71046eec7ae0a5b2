#include "global/checker.hpp"

#include <bit>

#include "obs/obs.hpp"

namespace ringstab {

// ---------------------------------------------------------------------------
// Two decode passes, then everything runs on the cached CSR.
// ---------------------------------------------------------------------------

const SpaceCensus& GlobalChecker::census() const {
  if (!census_) {
    const obs::Span span("checker.census");
    census_ = space_census(*ring_, ring_->num_states(),
                           kMaxCachedSamples, num_threads_);
    obs::counter("checker.states_swept").add(ring_->num_states());
    if (obs::enabled())
      obs::counter("checker.invariant_states").add(census_->inv.count());
    obs::counter("checker.deadlocks_found").add(census_->deadlocks);
  }
  return *census_;
}

const NotInvGraph& GlobalChecker::graph() const {
  if (!graph_) {
    const PackedBitset& inv = census().inv;
    const obs::Span span("checker.graph_build");
    graph_ = build_not_inv_graph(*ring_, inv, num_threads_);
    obs::counter("checker.states_swept").add(ring_->num_states());
    obs::counter("checker.graph_edges").add(graph_->csr.num_edges());
  }
  return *graph_;
}

const VerdictTail& GlobalChecker::tail() const {
  if (!tail_) tail_ = verdict_tail(graph().csr, graph().to_inv, num_threads_);
  return *tail_;
}

// ---------------------------------------------------------------------------
// Public interface: each query reads the stage that answers it.
// ---------------------------------------------------------------------------

const PackedBitset& GlobalChecker::invariant_mask() const {
  return census().inv;
}

std::size_t GlobalChecker::count_deadlocks_outside_invariant(
    std::vector<GlobalStateId>* samples, std::size_t max_samples) const {
  if (samples)
    for (const GlobalStateId s : census().deadlock_samples)
      if (samples->size() < max_samples) samples->push_back(s);
  return census().deadlocks;
}

std::optional<std::vector<GlobalStateId>> GlobalChecker::find_livelock()
    const {
  // The tail's witness is anchored at the smallest rank on any ¬I cycle.
  if (tail().witness.empty()) return std::nullopt;
  std::vector<GlobalStateId> cycle;
  cycle.reserve(tail().witness.size());
  for (const std::uint32_t r : tail().witness) cycle.push_back(graph().ids[r]);
  return cycle;
}

std::vector<GlobalStateId> GlobalChecker::livelock_states() const {
  const PackedBitset& on_cycle = tail().on_cycle;
  std::vector<GlobalStateId> out;
  for (std::uint64_t w = 0; w < on_cycle.num_words(); ++w)
    for (std::uint64_t word = on_cycle.word(w); word; word &= word - 1)
      out.push_back(graph().ids[w * 64 + static_cast<std::uint64_t>(
                                            std::countr_zero(word))]);
  return out;  // ids are ascending, so the result is sorted
}

bool GlobalChecker::check_closure(
    std::optional<std::pair<GlobalStateId, GlobalStateId>>* violation) const {
  const auto& found = graph().closure_violation;
  if (found && violation) *violation = *found;
  return !found;
}

bool GlobalChecker::check_weak_convergence() const {
  return tail().weakly_converges;
}

std::size_t GlobalChecker::max_recovery_steps() const {
  if (tail().num_deadlocks > 0)
    throw ModelError("deadlock outside I: not strongly converging");
  if (!tail().acyclic())
    throw ModelError("cycle outside I: not strongly converging");
  return tail().levels;
}

GlobalCheckResult GlobalChecker::check_all() const {
  const obs::Span span("checker.check_all");
  GlobalCheckResult res;
  res.ring_size = ring_->ring_size();
  res.num_states = ring_->num_states();
  res.num_deadlocks_outside_i =
      count_deadlocks_outside_invariant(&res.deadlock_samples);
  auto cycle = find_livelock();
  res.has_livelock = cycle.has_value();
  if (cycle) res.livelock_cycle = std::move(*cycle);
  res.closure_ok = check_closure(&res.closure_violation);
  res.weakly_converges = check_weak_convergence();
  if (res.strongly_converges()) res.max_recovery_steps = max_recovery_steps();
  return res;
}

bool strongly_stabilizing(const RingInstance& ring, std::size_t num_threads) {
  const GlobalChecker checker(ring, num_threads);
  if (!checker.check_closure()) return false;
  if (checker.count_deadlocks_outside_invariant() > 0) return false;
  return !checker.find_livelock().has_value();
}

}  // namespace ringstab
