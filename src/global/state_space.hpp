// The one census → ¬I CSR build behind every explicit-state engine.
//
// Ring, rotation quotient, array and tree each check a dense index space
// [0, n): classify every index (in I? deadlocked?), rank the indices
// outside I, expand each ¬I index's successors into a CSR over ¬I ranks
// plus a steps-into-I bit, and find the first transition leaving I. The ¬I
// verdict tail (graph/peel.hpp) takes it from there. An engine is an
// adapter whose cursor(begin) seats a per-chunk cursor at index `begin`
// with advance() to the next index, classify() → kClassInvariant |
// kClassDeadlock (read by space_census() only), successors(emit) calling
// emit(target index) per move in the order its CSR row keeps, and
// escape(inv) → an I index's first move leaving I, as the transition to
// report.
//
// Both passes run over parallel_for's thread-count-independent chunk
// partition and merge per-chunk results in ascending chunk order, so every
// product is identical at every lane count.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "graph/scc.hpp"
#include "obs/obs.hpp"
#include "parallel/bitset.hpp"
#include "parallel/thread_pool.hpp"

namespace ringstab {

/// Bits returned by a cursor's classify().
inline constexpr std::uint8_t kClassInvariant = 1;  // the index is in I
inline constexpr std::uint8_t kClassDeadlock = 2;   // it has no move

/// One global transition: (source, target).
using Transition = std::pair<GlobalStateId, GlobalStateId>;

/// The census pass: I membership and the deadlocks outside I.
struct SpaceCensus {
  PackedBitset inv;
  std::uint64_t deadlocks = 0;
  std::vector<GlobalStateId> deadlock_samples;  // the first few, ascending
};

/// Classify every index of [0, n): I membership, and the count and first
/// `max_samples` of the deadlocks outside I.
template <class Space>
SpaceCensus space_census(const Space& space, std::uint64_t n,
                         std::size_t max_samples, std::size_t num_threads) {
  SpaceCensus out;
  out.inv.assign(n);
  const std::uint64_t chunks = num_chunks(n, 0);
  std::vector<std::uint64_t> counts(chunks, 0);
  std::vector<std::vector<GlobalStateId>> found(chunks);
  // Chunks start on multiples of a 64-aligned grain, so each chunk's inv
  // bits live in chunk-private words: plain set() is race-free.
  parallel_for(n, num_threads, 0, [&](const ChunkRange& chunk, std::size_t) {
    auto cur = space.cursor(chunk.begin);
    std::uint64_t count = 0;
    for (std::uint64_t i = chunk.begin; i < chunk.end; ++i, cur.advance()) {
      const std::uint8_t cls = cur.classify();
      if (cls & kClassInvariant) {
        out.inv.set(i);
      } else if (cls & kClassDeadlock) {
        ++count;
        if (found[chunk.index].size() < max_samples)
          found[chunk.index].push_back(i);
      }
    }
    counts[chunk.index] = count;
  });
  for (std::uint64_t c = 0; c < chunks; ++c) {
    out.deadlocks += counts[c];
    for (const GlobalStateId s : found[c])
      if (out.deadlock_samples.size() < max_samples)
        out.deadlock_samples.push_back(s);
  }
  return out;
}

/// The ¬I graph over ranks: the index outside I with rank r is ids[r], the
/// r-th such index in ascending order.
struct NotInvGraph {
  std::vector<GlobalStateId> ids;
  /// Edges between ¬I ranks; each row keeps its cursor's emit order, and
  /// moves into I are dropped from it and recorded in to_inv instead.
  CsrGraph csr;
  PackedBitset to_inv;
  /// The first move leaving I from the smallest I index that has one.
  std::optional<Transition> closure_violation;
};

/// The successor pass over the index space of `inv`. An index in I only
/// looks for its escape, and once a chunk has found one its later I indices
/// are skipped: the merge keeps the lowest chunk's.
template <class Space>
NotInvGraph build_not_inv_graph(const Space& space, const PackedBitset& inv,
                                std::size_t num_threads) {
  // word_rank[w] = ¬I indices in words [0, w), so an index's rank is one
  // prefix read plus one popcount.
  const std::uint64_t n = inv.size();
  std::vector<std::uint64_t> word_rank(inv.num_words() + 1, 0);
  for (std::uint64_t w = 0; w < inv.num_words(); ++w)
    word_rank[w + 1] = word_rank[w] + std::min<std::uint64_t>(64, n - w * 64) -
                       static_cast<std::uint64_t>(std::popcount(inv.word(w)));
  const std::uint64_t nni = word_rank.back();
  if (nni >> 32)
    throw CapacityError(
        "explicit-state check: more than 2^32 states outside I");
  auto rank_of = [&](std::uint64_t i) {
    const std::uint64_t below = (std::uint64_t{1} << (i & 63)) - 1;
    return static_cast<std::uint32_t>(
        word_rank[i >> 6] +
        static_cast<std::uint64_t>(std::popcount(~inv.word(i >> 6) & below)));
  };

  NotInvGraph g;
  g.to_inv.assign(nni);
  g.ids.assign(nni, 0);
  struct ChunkRows {
    std::vector<std::uint32_t> deg;  // per ¬I index of the chunk, ascending
    std::vector<std::uint32_t> col;  // concatenated successor ranks
    std::optional<Transition> violation;
  };
  const std::uint64_t chunks = num_chunks(n, 0);
  std::vector<ChunkRows> part(chunks);
  parallel_for(n, num_threads, 0, [&](const ChunkRange& chunk, std::size_t) {
    ChunkRows& mine = part[chunk.index];
    auto cur = space.cursor(chunk.begin);
    // chunk.begin is a multiple of 64, so its rank is a word prefix.
    auto r = static_cast<std::uint32_t>(word_rank[chunk.begin >> 6]);
    for (std::uint64_t i = chunk.begin; i < chunk.end; ++i, cur.advance()) {
      if (inv.test(i)) {
        if (!mine.violation) mine.violation = cur.escape(inv);
        continue;
      }
      std::uint32_t deg = 0;
      bool into_inv = false;
      cur.successors([&](std::uint64_t t) {
        if (inv.test(t)) {
          into_inv = true;
        } else {
          mine.col.push_back(rank_of(t));
          ++deg;
        }
      });
      mine.deg.push_back(deg);
      // Rank-space bits are not chunk-word-aligned (chunks are 64-aligned
      // in index space), so neighbor chunks may share a to_inv word.
      if (into_inv) g.to_inv.set_atomic(r);
      g.ids[r++] = i;
    }
  });

  CsrGraph& csr = g.csr;
  csr.row.assign(nni + 1, 0);
  std::vector<std::uint64_t> edge_base(chunks, 0);
  std::uint64_t r = 0;
  for (std::uint64_t c = 0; c < chunks; ++c) {
    if (!g.closure_violation) g.closure_violation = part[c].violation;
    edge_base[c] = csr.row[r];
    for (const std::uint32_t d : part[c].deg) {
      csr.row[r + 1] = csr.row[r] + d;
      ++r;
    }
  }
  RINGSTAB_ASSERT(r == nni, "rank bookkeeping out of sync");
  csr.col.assign(csr.row.back(), 0);
  parallel_for(chunks, num_threads, 64,
               [&](const ChunkRange& ck, std::size_t) {
    for (std::uint64_t c = ck.begin; c < ck.end; ++c)
      std::copy(part[c].col.begin(), part[c].col.end(),
                csr.col.begin() + static_cast<std::ptrdiff_t>(edge_base[c]));
  });
  if (obs::enabled())
    obs::gauge("mem.csr_bytes")
        .set(csr.row.size() * sizeof(csr.row[0]) +
             csr.col.size() * sizeof(csr.col[0]));
  return g;
}

}  // namespace ringstab
