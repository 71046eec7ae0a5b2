#include "global/symmetry.hpp"

#include <algorithm>
#include <unordered_map>

#include "core/fmt.hpp"
#include "global/necklace.hpp"
#include "global/state_space.hpp"
#include "graph/peel.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"

namespace ringstab {
namespace {

/// Chunk grain over the necklace prefix-slot space: a pure function of the
/// slot count so the chunk partition — and therefore any ascending-order
/// merge — is identical for every thread count.
std::uint64_t slot_grain(std::uint64_t slots) {
  return std::max<std::uint64_t>(1, slots / 1024);
}

struct CensusBuild {
  NecklaceCensus census;
  // Filled only when `collect`: the necklace ids in ascending order, and
  // which of them are in I.
  std::vector<GlobalStateId> ids;
  PackedBitset inv;
};

/// One pass of the parallel FKM enumeration: orbit-weighted deadlock census
/// and (optionally) the dense necklace arrays, merged in ascending slot
/// order.
CensusBuild run_census(const RingInstance& ring, std::size_t max_samples,
                       std::size_t num_threads, bool collect) {
  const obs::Span span("symmetry.necklace_census");
  const NecklaceEnumerator enumerator(ring.ring_size(), ring.domain_size());
  const std::uint64_t slots = enumerator.num_slots();
  const std::uint64_t grain = slot_grain(slots);
  const std::uint64_t chunks = num_chunks(slots, grain);
  const std::size_t k = ring.ring_size();

  struct Chunk {
    std::uint64_t necklaces = 0;
    std::uint64_t orbit_states = 0;
    std::uint64_t deadlocks = 0;
    std::vector<GlobalStateId> reps;
    std::vector<GlobalStateId> ids;
    std::vector<std::uint8_t> flags;
  };
  std::vector<Chunk> tally(chunks);

  // Per-FKM-block census latency: the necklace enumerator's blocks are
  // uneven (prefix-dependent), so this distribution is the evidence for
  // the block-size heuristic in slot_grain().
  obs::Histogram* block_ns =
      obs::enabled() ? &obs::histogram("symmetry.block_ns") : nullptr;
  parallel_for(slots, num_threads, grain,
               [&](const ChunkRange& chunk, std::size_t) {
    const obs::Ticks t0 = block_ns != nullptr ? obs::now() : 0;
    Chunk& t = tally[chunk.index];
    enumerator.visit_slots(chunk.begin, chunk.end,
                           [&](const Value* digits, GlobalStateId id,
                               std::uint32_t orbit) {
      // Fused rotation-invariant predicates off the canonical digits: stop
      // as soon as both are decided.
      bool in_inv = true, dead = true;
      for (std::size_t i = 0; i < k; ++i) {
        const LocalStateId ls = ring.local_state_from(digits, i);
        if (!ring.legit_local(ls)) in_inv = false;
        if (ring.enabled_local(ls)) dead = false;
        if (!in_inv && !dead) break;
      }
      ++t.necklaces;
      t.orbit_states += orbit;
      if (!in_inv && dead) {
        t.deadlocks += orbit;
        if (t.reps.size() < max_samples) t.reps.push_back(id);
      }
      if (collect) {
        t.ids.push_back(id);
        t.flags.push_back(static_cast<std::uint8_t>(in_inv));
      }
    });
    if (block_ns != nullptr) block_ns->record(obs::now() - t0);
  });

  CensusBuild out;
  std::uint64_t total = 0;
  for (const Chunk& t : tally) total += t.necklaces;
  if (collect) {
    out.ids.reserve(total);
    out.inv.assign(total);
  }
  for (const Chunk& t : tally) {
    out.census.num_necklaces += t.necklaces;
    out.census.orbit_states += t.orbit_states;
    out.census.num_deadlocks_outside_i += t.deadlocks;
    for (GlobalStateId id : t.reps)
      if (out.census.deadlock_orbit_reps.size() < max_samples)
        out.census.deadlock_orbit_reps.push_back(id);
    if (collect) {
      for (std::size_t j = 0; j < t.flags.size(); ++j)
        if (t.flags[j]) out.inv.set(out.ids.size() + j);
      out.ids.insert(out.ids.end(), t.ids.begin(), t.ids.end());
    }
  }
  RINGSTAB_ASSERT(out.census.orbit_states == ring.num_states(),
                  "necklace orbit sizes must partition |D|^K");
  obs::counter("symmetry.necklaces").add(out.census.num_necklaces);
  obs::counter("symmetry.orbit_states").add(out.census.orbit_states);
  obs::counter("symmetry.deadlocks_found")
      .add(out.census.num_deadlocks_outside_i);
  return out;
}

/// The rotation quotient as a builder space: index r is the r-th necklace
/// in ascending id order. A necklace outside I emits its successors
/// canonicalized, as necklace indices (binary search over the sorted ids),
/// sorted and deduplicated. A necklace in I looks for its first move
/// leaving I with a digit-level test, so no I successor is canonicalized,
/// and reports it as an actual transition: canonical source, raw target.
struct QuotientSpace {
  const RingInstance& ring;
  const std::vector<GlobalStateId>& ids;

  struct Cursor {
    const QuotientSpace* q;
    std::uint64_t r;
    std::vector<Value> digits;
    std::vector<RingInstance::Step> succ;
    std::vector<std::uint64_t> targets;

    void advance() { ++r; }

    template <class Emit>
    void successors(const Emit& emit) {
      const RingInstance& ring = q->ring;
      const std::span<const GlobalStateId> pow{ring.powers()};
      targets.clear();
      each_target([&](const RingInstance::Step&) {
        const GlobalStateId id =
            canonical_necklace_id(digits.data(), ring.ring_size(), pow);
        const auto it = std::lower_bound(q->ids.begin(), q->ids.end(), id);
        RINGSTAB_ASSERT(
            it != q->ids.end() && *it == id,
            "canonicalized successor is not an enumerated necklace");
        targets.push_back(static_cast<std::uint64_t>(it - q->ids.begin()));
        return false;
      });
      std::sort(targets.begin(), targets.end());
      targets.erase(std::unique(targets.begin(), targets.end()),
                    targets.end());
      for (const std::uint64_t t : targets) emit(t);
    }

    std::optional<Transition> escape(const PackedBitset&) {
      const RingInstance& ring = q->ring;
      std::optional<Transition> out;
      each_target([&](const RingInstance::Step& step) {
        for (std::size_t i = 0; i < ring.ring_size() && !out; ++i)
          if (!ring.legit_local(ring.local_state_from(digits.data(), i)))
            out = Transition{q->ids[r], step.target};
        return out.has_value();
      });
      return out;
    }

    /// Calls visit(step) for each move of necklace r, in successor order,
    /// with `digits` holding the move's target, until visit returns true.
    template <class Visit>
    void each_target(const Visit& visit) {
      const RingInstance& ring = q->ring;
      ring.decode_into(q->ids[r], digits);
      ring.successors_from(q->ids[r], digits.data(), succ);
      for (const auto& step : succ) {
        const Value old_self = digits[step.process];
        digits[step.process] = ring.protocol().space().self(step.transition.to);
        if (visit(step)) return;
        digits[step.process] = old_self;
      }
    }
  };
  Cursor cursor(std::uint64_t begin) const { return {this, begin, {}, {}, {}}; }
};

/// Lift a quotient cycle to a genuine full-space cycle: walk actual
/// transitions whose canonicalizations follow the quotient cycle. Each lap
/// returns to some rotation of the start; the walk through (state, lap
/// position 0) pairs must repeat within ord(rotation) ≤ K laps, and the
/// segment between the repeats is a real cycle, entirely outside I.
std::vector<GlobalStateId> lift_quotient_cycle(
    const RingInstance& ring, const std::vector<GlobalStateId>& ids,
    const std::vector<std::uint64_t>& cycle) {
  const std::size_t k = ring.ring_size();
  const std::span<const GlobalStateId> pow{ring.powers()};
  std::vector<GlobalStateId> path;
  std::unordered_map<GlobalStateId, std::size_t> seen_at_start;
  std::vector<RingInstance::Step> succ;
  std::vector<Value> digits;
  GlobalStateId x = ids[cycle[0]];
  for (std::size_t lap = 0; lap <= k; ++lap) {
    const auto [it, fresh] = seen_at_start.emplace(x, path.size());
    if (!fresh) {
      std::vector<GlobalStateId> witness(path.begin() + it->second,
                                         path.end());
      obs::counter("symmetry.lift_steps").add(witness.size());
      return witness;
    }
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      path.push_back(x);
      const GlobalStateId want = ids[cycle[(i + 1) % cycle.size()]];
      ring.successors(x, succ);
      bool stepped = false;
      for (const auto& step : succ) {
        ring.decode_into(step.target, digits);
        if (canonical_necklace_id(digits.data(), k, pow) == want) {
          x = step.target;
          stepped = true;
          break;
        }
      }
      RINGSTAB_ASSERT(stepped, "quotient edge failed to lift");
    }
  }
  RINGSTAB_ASSERT(false, "quotient cycle lift did not close within K laps");
  return {};
}

}  // namespace

GlobalStateId canonical_rotation(const RingInstance& ring, GlobalStateId s) {
  const auto digits = ring.decode(s);
  return canonical_necklace_id(digits.data(), ring.ring_size(),
                               std::span<const GlobalStateId>{ring.powers()});
}

std::size_t rotation_orbit_size(const RingInstance& ring, GlobalStateId s) {
  const auto digits = ring.decode(s);
  return cyclic_period(digits.data(), ring.ring_size());
}

NecklaceCensus necklace_census(const RingInstance& ring,
                               std::size_t max_samples,
                               std::size_t num_threads) {
  return run_census(ring, max_samples, num_threads == 0 ? 1 : num_threads,
                    /*collect=*/false)
      .census;
}

SymmetricCheckResult check_symmetric(const RingInstance& ring,
                                     std::size_t max_samples,
                                     std::size_t num_threads) {
  const obs::Span span("symmetry.check");
  if (num_threads == 0) num_threads = 1;
  SymmetricCheckResult res;
  res.ring_size = ring.ring_size();
  res.num_states = ring.num_states();

  CensusBuild build =
      run_census(ring, max_samples, num_threads, /*collect=*/true);
  res.num_necklaces = build.census.num_necklaces;
  res.canonical_states_visited = build.census.num_necklaces;
  res.num_deadlocks_outside_i = build.census.num_deadlocks_outside_i;
  res.deadlock_orbit_reps = std::move(build.census.deadlock_orbit_reps);

  NotInvGraph g;
  {
    const obs::Span graph_span("symmetry.quotient_graph");
    g = build_not_inv_graph(QuotientSpace{ring, build.ids}, build.inv,
                            num_threads);
  }
  obs::counter("symmetry.quotient_edges").add(g.csr.num_edges());
  res.closure_ok = !g.closure_violation;
  res.closure_violation = g.closure_violation;

  const VerdictTail tail = verdict_tail(g.csr, g.to_inv, num_threads);
  res.weakly_converges = tail.weakly_converges;
  if (!tail.witness.empty()) {
    std::vector<std::uint64_t> cycle;
    cycle.reserve(tail.witness.size());
    for (const std::uint32_t r : tail.witness) cycle.push_back(g.ids[r]);
    res.has_livelock = true;
    res.livelock_cycle = lift_quotient_cycle(ring, build.ids, cycle);
  }
  if (res.strongly_converges()) res.max_recovery_steps = tail.levels;
  return res;
}

}  // namespace ringstab
