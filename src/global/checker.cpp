#include "global/checker.hpp"

#include <algorithm>
#include <bit>

#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"

namespace ringstab {

// ---------------------------------------------------------------------------
// Two decode passes, then everything runs on the cached CSR.
// ---------------------------------------------------------------------------

std::uint32_t GlobalChecker::rank_of(GlobalStateId s) const {
  const std::uint64_t w = s >> 6;
  const std::uint64_t below = (std::uint64_t{1} << (s & 63)) - 1;
  return static_cast<std::uint32_t>(
      word_rank_[w] +
      static_cast<std::uint64_t>(std::popcount(~inv_mask_.word(w) & below)));
}

void GlobalChecker::ensure_masks() const {
  if (census_done_) return;
  const GlobalStateId n = ring_->num_states();
  const obs::Span span("checker.census");
  obs::Counter& swept = obs::counter("checker.states_swept");
  PackedBitset mask(n);
  const std::uint64_t chunks = num_chunks(n, 0);
  std::vector<std::size_t> counts(chunks, 0);
  std::vector<std::vector<GlobalStateId>> found(chunks);
  // Chunks start on multiples of a 64-aligned grain, so each chunk's mask
  // bits live in chunk-private words: plain set() is race-free.
  parallel_for(n, num_threads_, 0, [&](const ChunkRange& chunk, std::size_t) {
    auto cur = ring_->cursor(chunk.begin);
    std::size_t count = 0;
    for (GlobalStateId s = chunk.begin; s < chunk.end; ++s, cur.advance()) {
      const std::uint8_t cls = cur.classify();
      if (cls & RingInstance::kClassInvariant) {
        mask.set(s);
      } else if (cls & RingInstance::kClassDeadlock) {
        ++count;
        if (found[chunk.index].size() < kMaxCachedSamples)
          found[chunk.index].push_back(s);
      }
    }
    counts[chunk.index] = count;
    swept.add(chunk.end - chunk.begin);
  });
  deadlock_count_ = 0;
  deadlock_samples_.clear();
  for (std::uint64_t c = 0; c < chunks; ++c) {
    deadlock_count_ += counts[c];
    for (GlobalStateId s : found[c])
      if (deadlock_samples_.size() < kMaxCachedSamples)
        deadlock_samples_.push_back(s);
  }
  if (obs::enabled())
    obs::counter("checker.invariant_states").add(mask.count());
  obs::counter("checker.deadlocks_found").add(deadlock_count_);
  inv_mask_ = std::move(mask);
  census_done_ = true;
}

void GlobalChecker::ensure_graph() const {
  if (graph_built_) return;
  ensure_masks();
  const GlobalStateId n = ring_->num_states();
  const obs::Span span("checker.graph_build");
  obs::Counter& swept = obs::counter("checker.states_swept");

  // Rank structure: word_rank_[w] = number of ¬I states in words [0, w), so
  // a successor's rank is one prefix read plus one popcount.
  const std::uint64_t words = inv_mask_.num_words();
  word_rank_.assign(words + 1, 0);
  for (std::uint64_t w = 0; w < words; ++w) {
    const std::uint64_t live = std::min<std::uint64_t>(64, n - w * 64);
    word_rank_[w + 1] =
        word_rank_[w] + live -
        static_cast<std::uint64_t>(std::popcount(inv_mask_.word(w)));
  }
  const std::uint64_t nni = words == 0 ? 0 : word_rank_[words];
  if (nni >> 32)
    throw CapacityError("global checker: more than 2^32 states outside I");

  to_inv_.assign(nni);
  ni_ids_.assign(nni, 0);
  const std::uint64_t chunks = num_chunks(n, 0);
  struct ChunkGraph {
    std::vector<std::uint32_t> deg;  // per ¬I state of the chunk, ascending
    std::vector<std::uint32_t> col;  // concatenated successor ranks
    std::optional<std::pair<GlobalStateId, GlobalStateId>> violation;
  };
  std::vector<ChunkGraph> part(chunks);
  parallel_for(n, num_threads_, 0, [&](const ChunkRange& chunk, std::size_t) {
    ChunkGraph& mine = part[chunk.index];
    auto cur = ring_->cursor(chunk.begin);
    std::vector<RingInstance::Step> succ;
    // chunk.begin is a multiple of 64, so its rank is a word prefix.
    std::uint32_t r = static_cast<std::uint32_t>(word_rank_[chunk.begin >> 6]);
    for (GlobalStateId s = chunk.begin; s < chunk.end; ++s, cur.advance()) {
      if (inv_mask_.test(s)) {
        // Closure duty: only the chunk's first violation matters (the merge
        // below keeps the lowest), so later I-states skip the expansion.
        if (mine.violation) continue;
        cur.successors(succ);
        for (const auto& step : succ)
          if (!inv_mask_.test(step.target)) {
            mine.violation = {s, step.target};
            break;
          }
        continue;
      }
      cur.successors(succ);
      std::uint32_t deg = 0;
      bool into_inv = false;
      for (const auto& step : succ) {
        if (inv_mask_.test(step.target)) {
          into_inv = true;
          continue;
        }
        mine.col.push_back(rank_of(step.target));
        ++deg;
      }
      mine.deg.push_back(deg);
      // Rank-space bits are not chunk-word-aligned (chunks are 64-aligned
      // in *state* space), so neighbor chunks may share a to_inv_ word.
      if (into_inv) to_inv_.set_atomic(r);
      ni_ids_[r] = s;
      ++r;
    }
    swept.add(chunk.end - chunk.begin);
  });

  closure_violation_.reset();
  for (std::uint64_t c = 0; c < chunks && !closure_violation_; ++c)
    closure_violation_ = part[c].violation;

  csr_.row.assign(nni + 1, 0);
  std::vector<std::uint64_t> edge_base(chunks, 0);
  std::uint64_t total_edges = 0;
  {
    std::uint64_t r = 0;
    for (std::uint64_t c = 0; c < chunks; ++c) {
      edge_base[c] = total_edges;
      for (const std::uint32_t d : part[c].deg) {
        csr_.row[r + 1] = csr_.row[r] + d;
        total_edges += d;
        ++r;
      }
    }
    RINGSTAB_ASSERT(r == nni, "rank bookkeeping out of sync");
  }
  csr_.col.assign(total_edges, 0);
  parallel_for(chunks, num_threads_, 64,
               [&](const ChunkRange& ck, std::size_t) {
    for (std::uint64_t c = ck.begin; c < ck.end; ++c)
      std::copy(part[c].col.begin(), part[c].col.end(),
                csr_.col.begin() + edge_base[c]);
  });
  obs::counter("checker.graph_edges").add(total_edges);
  if (obs::enabled())
    obs::gauge("mem.csr_bytes")
        .set(csr_.row.size() * sizeof(csr_.row[0]) +
             csr_.col.size() * sizeof(csr_.col[0]));
  graph_built_ = true;
}

const VerdictTail& GlobalChecker::tail() const {
  if (!tail_) {
    ensure_graph();
    tail_ = verdict_tail(csr_, to_inv_, num_threads_);
  }
  return *tail_;
}

// ---------------------------------------------------------------------------
// Public interface: each query reads the stage that answers it.
// ---------------------------------------------------------------------------

const PackedBitset& GlobalChecker::invariant_mask() const {
  ensure_masks();
  return inv_mask_;
}

std::size_t GlobalChecker::count_deadlocks_outside_invariant(
    std::vector<GlobalStateId>* samples, std::size_t max_samples) const {
  ensure_masks();
  if (samples)
    for (GlobalStateId s : deadlock_samples_)
      if (samples->size() < max_samples) samples->push_back(s);
  return deadlock_count_;
}

std::optional<std::vector<GlobalStateId>> GlobalChecker::find_livelock()
    const {
  // The tail's witness is anchored at the smallest rank on any ¬I cycle.
  if (tail().witness.empty()) return std::nullopt;
  std::vector<GlobalStateId> cycle;
  cycle.reserve(tail().witness.size());
  for (const std::uint32_t r : tail().witness) cycle.push_back(ni_ids_[r]);
  return cycle;
}

std::vector<GlobalStateId> GlobalChecker::livelock_states() const {
  const PackedBitset& on_cycle = tail().on_cycle;
  std::vector<GlobalStateId> out;
  for (std::uint64_t w = 0; w < on_cycle.num_words(); ++w)
    for (std::uint64_t word = on_cycle.word(w); word; word &= word - 1)
      out.push_back(ni_ids_[w * 64 + static_cast<std::uint64_t>(
                                         std::countr_zero(word))]);
  return out;  // ni_ids_ is ascending, so the result is sorted
}

bool GlobalChecker::check_closure(
    std::optional<std::pair<GlobalStateId, GlobalStateId>>* violation) const {
  ensure_graph();
  if (closure_violation_ && violation) *violation = *closure_violation_;
  return !closure_violation_;
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
