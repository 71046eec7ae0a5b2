#include "graph/peel.hpp"

#include <atomic>
#include <numeric>

#include "core/types.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"

namespace ringstab {
namespace {

constexpr std::uint32_t kNone = 0xffffffffu;

/// One level-synchronous frontier step: `expand(v, next)` runs for every
/// frontier vertex, chunked over the pool, and the per-chunk `next` lists
/// are concatenated in chunk order.
template <class Expand>
std::vector<std::uint32_t> next_frontier(
    const std::vector<std::uint32_t>& frontier, std::size_t num_threads,
    const Expand& expand) {
  std::vector<std::vector<std::uint32_t>> parts(
      num_chunks(frontier.size(), 0));
  parallel_for(frontier.size(), num_threads, 0,
               [&](const ChunkRange& chunk, std::size_t) {
    for (std::uint64_t i = chunk.begin; i < chunk.end; ++i)
      expand(frontier[i], parts[chunk.index]);
  });
  std::vector<std::uint32_t> next;
  for (const auto& part : parts)
    next.insert(next.end(), part.begin(), part.end());
  return next;
}

/// The vertices of [0, n) satisfying `pred`, ascending (per-chunk lists
/// merged in chunk order).
template <class Pred>
std::vector<std::uint32_t> vertices_where(std::uint32_t n,
                                          std::size_t num_threads,
                                          const Pred& pred) {
  std::vector<std::vector<std::uint32_t>> parts(num_chunks(n, 0));
  parallel_for(n, num_threads, 0, [&](const ChunkRange& chunk, std::size_t) {
    for (std::uint64_t v = chunk.begin; v < chunk.end; ++v)
      if (pred(static_cast<std::uint32_t>(v)))
        parts[chunk.index].push_back(static_cast<std::uint32_t>(v));
  });
  std::vector<std::uint32_t> out;
  for (const auto& part : parts)
    out.insert(out.end(), part.begin(), part.end());
  return out;
}

/// Backward sweep over the residue: a residue vertex with an exit — a move
/// into I, or onto a peeled vertex, all of which reach I once no deadlock
/// exists — reaches I, and so does every vertex that reaches it. A peeled
/// vertex has only peeled successors, so the predecessors of residue
/// vertices are residue vertices and the sweep never leaves the residue.
bool residue_reaches_inv(const CsrGraph& g, const CsrGraph& tr,
                         const PackedBitset& to_inv,
                         const PackedBitset& peeled, std::uint64_t residue,
                         std::size_t num_threads) {
  PackedBitset reached(g.num_vertices());
  std::vector<std::uint32_t> frontier =
      vertices_where(g.num_vertices(), num_threads, [&](std::uint32_t v) {
        if (peeled.test(v)) return false;
        if (to_inv.test(v)) return true;
        for (std::uint64_t e = g.row[v]; e < g.row[v + 1]; ++e)
          if (peeled.test(g.col[e])) return true;
        return false;
      });
  for (const std::uint32_t v : frontier) reached.set(v);
  std::uint64_t count = 0;
  while (!frontier.empty()) {
    count += frontier.size();
    frontier = next_frontier(
        frontier, num_threads,
        [&](std::uint32_t v, std::vector<std::uint32_t>& next) {
          for (std::uint64_t e = tr.row[v]; e < tr.row[v + 1]; ++e)
            if (reached.test_and_set_atomic(tr.col[e]))
              next.push_back(tr.col[e]);
        });
  }
  return count == residue;
}

/// Arc-reversed copy of `g`. In-edge order within a row follows the
/// schedule; the tail uses the transpose as a set.
CsrGraph transpose(const CsrGraph& g, std::size_t num_threads) {
  const std::uint32_t n = g.num_vertices();
  std::vector<std::uint64_t> cursor(n, 0);  // in-degrees, then offsets
  parallel_for(n, num_threads, 0, [&](const ChunkRange& chunk, std::size_t) {
    for (std::uint64_t e = g.row[chunk.begin]; e < g.row[chunk.end]; ++e)
      std::atomic_ref<std::uint64_t>(cursor[g.col[e]])
          .fetch_add(1, std::memory_order_relaxed);
  });
  CsrGraph tr;
  tr.row.assign(n + 1, 0);
  for (std::uint32_t v = 0; v < n; ++v) {
    tr.row[v + 1] = tr.row[v] + cursor[v];
    cursor[v] = tr.row[v];
  }
  tr.col.assign(g.num_edges(), 0);
  parallel_for(n, num_threads, 0, [&](const ChunkRange& chunk, std::size_t) {
    for (std::uint64_t v = chunk.begin; v < chunk.end; ++v)
      for (std::uint64_t e = g.row[v]; e < g.row[v + 1]; ++e)
        tr.col[std::atomic_ref<std::uint64_t>(cursor[g.col[e]])
                   .fetch_add(1, std::memory_order_relaxed)] =
            static_cast<std::uint32_t>(v);
  });
  return tr;
}

struct PeelResult {
  PackedBitset peeled;
  std::uint64_t num_peeled = 0;
  std::uint32_t levels = 0;  // frontier rounds; 0 iff nothing peeled
};

/// Level-synchronous out-degree peel: `degree[v]` is v's out-degree and
/// `reverse` the transpose, so peeling v decrements its predecessors. A
/// self-edge decrements its vertex only once that vertex is peeled, so a
/// self-looped vertex stays. The peeled set and the level count are the
/// unique fixpoint, identical for every thread count; frontier decrements
/// are atomic and each level's next frontier is merged in chunk order.
PeelResult peel(const CsrGraph& reverse, std::vector<std::uint32_t> degree,
                std::size_t num_threads) {
  PeelResult res;
  res.peeled.assign(reverse.num_vertices());
  std::vector<std::uint32_t> frontier = vertices_where(
      reverse.num_vertices(), num_threads,
      [&](std::uint32_t v) { return degree[v] == 0; });
  while (!frontier.empty()) {
    ++res.levels;
    res.num_peeled += frontier.size();
    frontier = next_frontier(
        frontier, num_threads,
        [&](std::uint32_t v, std::vector<std::uint32_t>& next) {
          res.peeled.set_atomic(v);
          for (std::uint64_t e = reverse.row[v]; e < reverse.row[v + 1]; ++e) {
            const std::uint32_t u = reverse.col[e];
            if (std::atomic_ref<std::uint32_t>(degree[u]).fetch_sub(
                    1, std::memory_order_relaxed) == 1)
              next.push_back(u);
          }
        });
  }
  return res;
}

}  // namespace

VerdictTail verdict_tail(const CsrGraph& g, const PackedBitset& to_inv,
                         std::size_t num_threads) {
  const obs::Span span("tail.verdict");
  const std::uint32_t n = g.num_vertices();
  VerdictTail out;
  out.on_cycle.assign(n);
  PackedBitset peeled;
  {
    CsrGraph tr;
    {
      const obs::Span transpose_span("tail.transpose");
      tr = transpose(g, num_threads);
    }
    std::vector<std::uint32_t> degree(n);
    std::vector<std::uint64_t> dead(num_chunks(n, 0), 0);
    parallel_for(n, num_threads, 0,
                 [&](const ChunkRange& chunk, std::size_t) {
      for (std::uint64_t v = chunk.begin; v < chunk.end; ++v) {
        degree[v] = static_cast<std::uint32_t>(g.row[v + 1] - g.row[v]);
        if (degree[v] == 0 && !to_inv.test(v)) ++dead[chunk.index];
      }
    });
    out.num_deadlocks = std::accumulate(dead.begin(), dead.end(),
                                        std::uint64_t{0});
    {
      const obs::Span peel_span("tail.peel");
      PeelResult p = peel(tr, std::move(degree), num_threads);
      out.levels = p.levels;
      out.residue = n - p.num_peeled;
      peeled = std::move(p.peeled);
    }
    if (out.num_deadlocks == 0) {
      const obs::Span reach_span("tail.reach");
      out.weakly_converges =
          out.acyclic() ||
          residue_reaches_inv(g, tr, to_inv, peeled, out.residue, num_threads);
    }
  }  // the transpose is released before the SCC allocates its arrays
  obs::counter("tail.peeled").add(n - out.residue);
  obs::counter("tail.levels").add(out.levels);
  obs::counter("tail.residue").add(out.residue);
  if (out.acyclic()) return out;

  const obs::Span scc_span("tail.scc");
  const SccResult scc = strongly_connected_components(g, &peeled);
  obs::counter("scc.vertices").add(scc.vertices_visited);
  obs::counter("scc.edges_scanned").add(scc.edges_scanned);
  std::uint32_t start = kNone;
  for (std::uint32_t v = 0; v < n; ++v)
    if (scc.on_cycle(v)) {
      out.on_cycle.set(v);
      if (start == kNone) start = v;
    }
  RINGSTAB_ASSERT(start != kNone, "a nonempty residue holds a cycle");
  out.witness = extract_component_cycle(g, scc, start);
  if (obs::enabled()) {
    // SCC size distribution over the residue. Labels are canonical
    // min-member ids, so this is problem-shaped: the merged histogram must
    // match at 1 vs N lanes (test_obs locks this in over the zoo).
    obs::Histogram& region_size = obs::histogram("scc.region_size");
    for (std::uint32_t v = 0; v < n; ++v)
      if (!peeled.test(v) && scc.component_size[v] > 0)
        region_size.record(scc.component_size[v]);
  }
  return out;
}

}  // namespace ringstab
