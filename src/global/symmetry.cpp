#include "global/symmetry.hpp"

#include <algorithm>
#include <unordered_map>

#include "core/fmt.hpp"
#include "global/necklace.hpp"
#include "graph/peel.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"

namespace ringstab {
namespace {

constexpr std::uint32_t kUnvisited = 0xffffffffu;

/// Dense view of the rotation quotient: necklaces in ascending canonical-id
/// order, their flags, and the ¬I transition graph as a CSR over ¬I ranks
/// (the i-th necklace outside I has rank i). Targets are canonicalized,
/// deduplicated and kept in ascending order per source; edges into I are
/// dropped from the CSR and recorded in to_inv instead.
struct Quotient {
  std::vector<GlobalStateId> ids;
  std::vector<std::uint8_t> flags;  // 1 iff the necklace is in I
  std::vector<std::uint32_t> ni_of;  // ¬I rank -> necklace rank
  CsrGraph csr;
  PackedBitset to_inv;
  /// The transition leaving I from the smallest violating necklace.
  std::optional<std::pair<GlobalStateId, GlobalStateId>> escape;

  std::uint32_t size() const {
    return static_cast<std::uint32_t>(ids.size());
  }
  bool in_inv(std::uint32_t r) const { return flags[r] != 0; }
};

/// Chunk grain over the necklace prefix-slot space: a pure function of the
/// slot count so the chunk partition — and therefore any ascending-order
/// merge — is identical for every thread count.
std::uint64_t slot_grain(std::uint64_t slots) {
  return std::max<std::uint64_t>(1, slots / 1024);
}

struct CensusBuild {
  NecklaceCensus census;
  // Filled only when `collect`:
  std::vector<GlobalStateId> ids;
  std::vector<std::uint8_t> flags;
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
    out.flags.reserve(total);
  }
  for (const Chunk& t : tally) {
    out.census.num_necklaces += t.necklaces;
    out.census.orbit_states += t.orbit_states;
    out.census.num_deadlocks_outside_i += t.deadlocks;
    for (GlobalStateId id : t.reps)
      if (out.census.deadlock_orbit_reps.size() < max_samples)
        out.census.deadlock_orbit_reps.push_back(id);
    if (collect) {
      out.ids.insert(out.ids.end(), t.ids.begin(), t.ids.end());
      out.flags.insert(out.flags.end(), t.flags.begin(), t.flags.end());
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

/// One successor pass over the necklaces: the ¬I quotient CSR (successors
/// canonicalized, ranked, deduplicated) plus the closure check. A necklace
/// in I only looks for its first successor outside I, and once a chunk has
/// found one its later I-necklaces are skipped: the merge keeps the
/// smallest violating necklace, reported as an actual transition.
void build_quotient_graph(const RingInstance& ring, Quotient& q,
                          std::size_t num_threads) {
  const obs::Span span("symmetry.quotient_graph");
  const std::uint32_t n = q.size();
  const std::size_t k = ring.ring_size();
  const auto& space = ring.protocol().space();
  const std::span<const GlobalStateId> pow{ring.powers()};

  std::vector<std::uint32_t> ni_rank(n, kUnvisited);  // inverse of ni_of
  for (std::uint32_t r = 0; r < n; ++r)
    if (!q.in_inv(r)) {
      ni_rank[r] = static_cast<std::uint32_t>(q.ni_of.size());
      q.ni_of.push_back(r);
    }
  q.to_inv.assign(q.ni_of.size());
  auto rank_of = [&](GlobalStateId id) {
    const auto it = std::lower_bound(q.ids.begin(), q.ids.end(), id);
    RINGSTAB_ASSERT(it != q.ids.end() && *it == id,
                    "canonicalized successor is not an enumerated necklace");
    return static_cast<std::uint32_t>(it - q.ids.begin());
  };
  auto digits_in_inv = [&](const std::vector<Value>& digits) {
    for (std::size_t i = 0; i < k; ++i)
      if (!ring.legit_local(ring.local_state_from(digits.data(), i)))
        return false;
    return true;
  };

  const std::uint64_t chunks = num_chunks(n, 0);
  struct Chunk {
    std::vector<std::uint32_t> deg;  // per ¬I necklace in the chunk
    std::vector<std::uint32_t> col;
    std::optional<std::pair<GlobalStateId, GlobalStateId>> escape;
  };
  std::vector<Chunk> built(chunks);
  parallel_for(n, num_threads, 0, [&](const ChunkRange& chunk, std::size_t) {
    Chunk& c = built[chunk.index];
    std::vector<Value> digits;
    std::vector<RingInstance::Step> succ;
    std::vector<std::uint32_t> targets;
    for (std::uint64_t r = chunk.begin; r < chunk.end; ++r) {
      const bool in_inv = q.in_inv(static_cast<std::uint32_t>(r));
      if (in_inv && c.escape) continue;
      ring.decode_into(q.ids[r], digits);
      ring.successors_from(q.ids[r], digits.data(), succ);
      targets.clear();
      bool into_inv = false;
      for (const auto& step : succ) {
        const Value old_self = digits[step.process];
        digits[step.process] = space.self(step.transition.to);
        if (in_inv) {
          if (!digits_in_inv(digits)) {
            c.escape = {q.ids[r], step.target};
            break;
          }
        } else {
          const std::uint32_t t =
              rank_of(canonical_necklace_id(digits.data(), k, pow));
          if (q.in_inv(t))
            into_inv = true;
          else
            targets.push_back(ni_rank[t]);
        }
        digits[step.process] = old_self;
      }
      if (in_inv) continue;
      std::sort(targets.begin(), targets.end());
      targets.erase(std::unique(targets.begin(), targets.end()),
                    targets.end());
      c.deg.push_back(static_cast<std::uint32_t>(targets.size()));
      c.col.insert(c.col.end(), targets.begin(), targets.end());
      // ¬I ranks are not chunk-word-aligned: neighbor chunks share words.
      if (into_inv) q.to_inv.set_atomic(ni_rank[r]);
    }
  });

  CsrGraph& g = q.csr;
  g.row.assign(q.ni_of.size() + 1, 0);
  std::uint64_t rank = 0;
  for (const Chunk& c : built) {
    if (!q.escape) q.escape = c.escape;
    for (const std::uint32_t d : c.deg) {
      g.row[rank + 1] = g.row[rank] + d;
      ++rank;
    }
  }
  g.col.reserve(g.row.back());
  for (const Chunk& c : built)
    g.col.insert(g.col.end(), c.col.begin(), c.col.end());
  obs::counter("symmetry.quotient_edges").add(g.num_edges());
  if (obs::enabled())
    obs::gauge("mem.csr_bytes")
        .set(g.row.size() * sizeof(g.row[0]) + g.col.size() * sizeof(g.col[0]));
}

/// Lift a quotient cycle to a genuine full-space cycle: walk actual
/// transitions whose canonicalizations follow the quotient cycle. Each lap
/// returns to some rotation of the start; the walk through (state, lap
/// position 0) pairs must repeat within ord(rotation) ≤ K laps, and the
/// segment between the repeats is a real cycle, entirely outside I.
std::vector<GlobalStateId> lift_quotient_cycle(
    const RingInstance& ring, const Quotient& q,
    const std::vector<std::uint32_t>& cycle) {
  const std::size_t k = ring.ring_size();
  const std::span<const GlobalStateId> pow{ring.powers()};
  std::vector<GlobalStateId> path;
  std::unordered_map<GlobalStateId, std::size_t> seen_at_start;
  std::vector<RingInstance::Step> succ;
  std::vector<Value> digits;
  GlobalStateId x = q.ids[cycle[0]];
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
      const GlobalStateId want = q.ids[cycle[(i + 1) % cycle.size()]];
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

  Quotient q;
  q.ids = std::move(build.ids);
  q.flags = std::move(build.flags);
  RINGSTAB_ASSERT(q.ids.size() < kUnvisited,
                  "quotient too large for 32-bit ranks");
  build_quotient_graph(ring, q, num_threads);
  res.closure_ok = !q.escape;
  res.closure_violation = q.escape;

  const VerdictTail tail = verdict_tail(q.csr, q.to_inv, num_threads);
  res.weakly_converges = tail.weakly_converges;
  if (!tail.witness.empty()) {
    std::vector<std::uint32_t> cycle;
    cycle.reserve(tail.witness.size());
    for (const std::uint32_t r : tail.witness) cycle.push_back(q.ni_of[r]);
    res.has_livelock = true;
    res.livelock_cycle = lift_quotient_cycle(ring, q, cycle);
  }
  if (res.strongly_converges()) res.max_recovery_steps = tail.levels;
  return res;
}

}  // namespace ringstab
