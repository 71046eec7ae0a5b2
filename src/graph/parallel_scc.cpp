#include "graph/parallel_scc.hpp"

#include <algorithm>
#include <unordered_map>

#include "core/types.hpp"
#include "graph/peel.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"

namespace ringstab {
namespace {

constexpr std::uint32_t kNone = 0xffffffffu;
// Regions at or below this size skip the FB machinery and run serial
// Tarjan: the sweep setup would cost more than the decomposition.
constexpr std::size_t kSerialRegion = 4096;

struct Run {
  const CsrGraph& g;
  CsrGraph tr;  // transpose
  std::size_t num_threads;
  ParallelSccResult res;
  std::vector<std::uint32_t> region;  // current region id per live vertex
  PackedBitset fwd, bwd;              // BFS scratch, cleared via visit lists

  explicit Run(const CsrGraph& graph, std::size_t threads)
      : g(graph), num_threads(threads) {}

  std::uint32_t n() const { return g.num_vertices(); }
  bool live(std::uint32_t v) const { return res.component[v] == kNone; }

  // ---- trim: peel vertices that cannot lie on a cycle ------------------
  // One out-degree and one in-degree peel (graph/peel.hpp). Self-loops
  // never keep a vertex alive: its SCC is {v} either way and the self_loop
  // bitset carries the cycle verdict. A vertex survives both peels iff it
  // reaches a cycle and is reached from one — exactly the survivors of a
  // combined in/out fixpoint — so the trim is the union of the two peels.
  // Every trimmed vertex is its own (trivial) SCC.
  void trim() {
    const obs::Span span("scc.trim");
    const std::uint32_t nv = n();
    std::vector<std::uint32_t> self(nv, 0);
    parallel_for(nv, num_threads, 0,
                 [&](const ChunkRange& chunk, std::size_t) {
      for (std::uint64_t v = chunk.begin; v < chunk.end; ++v) {
        for (std::uint64_t e = g.row[v]; e < g.row[v + 1]; ++e)
          if (g.col[e] == v) ++self[v];
        // 64-aligned chunks own their bitset words.
        if (self[v] > 0) res.self_loop.set(v);
      }
    });
    auto degrees = [&](const CsrGraph& dir) {
      std::vector<std::uint32_t> deg(nv);
      for (std::uint32_t v = 0; v < nv; ++v)
        deg[v] = static_cast<std::uint32_t>(dir.row[v + 1] - dir.row[v]) -
                 self[v];
      return deg;
    };
    const PackedBitset no_out = peel(tr, degrees(g), num_threads).peeled;
    const PackedBitset no_in = peel(g, degrees(tr), num_threads).peeled;
    std::uint64_t trimmed = 0;
    for (std::uint32_t v = 0; v < nv; ++v)
      if (no_out.test(v) || no_in.test(v)) {
        res.component[v] = v;
        ++trimmed;
      }
    obs::counter("scc.trimmed").add(trimmed);
  }

  // ---- level-synchronous BFS within one region -------------------------
  // Returns the visit list; the corresponding bits of `mark` are set and
  // must be cleared by the caller via the list.
  std::vector<std::uint32_t> bfs(const CsrGraph& graph, std::uint32_t pivot,
                                 std::uint32_t rid, PackedBitset& mark) {
    std::vector<std::uint32_t> visited{pivot};
    mark.set(pivot);
    std::vector<std::uint32_t> frontier{pivot};
    while (!frontier.empty()) {
      frontier = next_frontier(
          frontier, num_threads,
          [&](std::uint32_t v, std::vector<std::uint32_t>& next) {
            for (std::uint64_t e = graph.row[v]; e < graph.row[v + 1]; ++e) {
              const std::uint32_t w = graph.col[e];
              if (region[w] == rid && live(w) && mark.test_and_set_atomic(w))
                next.push_back(w);
            }
          });
      visited.insert(visited.end(), frontier.begin(), frontier.end());
    }
    return visited;
  }

  // ---- serial Tarjan leaf for small regions ----------------------------
  void tarjan_region(std::uint32_t rid,
                     const std::vector<std::uint32_t>& members) {
    std::unordered_map<std::uint32_t, std::uint32_t> index, low;
    index.reserve(members.size());
    low.reserve(members.size());
    PackedBitset on_stack(n());  // sparse use; members are few
    std::vector<std::uint32_t> stack;
    std::uint32_t next_index = 0;

    struct Frame {
      std::uint32_t v;
      std::uint64_t edge;
    };
    std::vector<Frame> call;
    auto in_region = [&](std::uint32_t w) {
      return region[w] == rid && live(w);
    };

    for (const std::uint32_t root : members) {
      if (!live(root) || index.count(root)) continue;
      call.push_back({root, g.row[root]});
      index[root] = low[root] = next_index++;
      stack.push_back(root);
      on_stack.set(root);
      while (!call.empty()) {
        Frame& f = call.back();
        const std::uint32_t v = f.v;
        bool descended = false;
        while (f.edge < g.row[v + 1]) {
          const std::uint32_t w = g.col[f.edge++];
          if (!in_region(w)) continue;
          if (!index.count(w)) {
            call.push_back({w, g.row[w]});
            index[w] = low[w] = next_index++;
            stack.push_back(w);
            on_stack.set(w);
            descended = true;
            break;
          }
          if (on_stack.test(w)) low[v] = std::min(low[v], index[w]);
        }
        if (descended) continue;
        if (low[v] == index[v]) {
          std::vector<std::uint32_t> comp;
          while (true) {
            const std::uint32_t w = stack.back();
            stack.pop_back();
            on_stack.reset(w);
            comp.push_back(w);
            if (w == v) break;
          }
          const std::uint32_t label =
              *std::min_element(comp.begin(), comp.end());
          for (const std::uint32_t w : comp) {
            res.component[w] = label;
            if (comp.size() > 1) res.nontrivial.set(w);
          }
        }
        call.pop_back();
        if (!call.empty())
          low[call.back().v] = std::min(low[call.back().v], low[v]);
      }
    }
  }

  // ---- FB/FWBW region recursion ----------------------------------------
  void decompose() {
    const std::uint32_t nv = n();
    std::vector<std::uint32_t> survivors;
    for (std::uint32_t v = 0; v < nv; ++v)
      if (live(v)) survivors.push_back(v);
    if (survivors.empty()) return;
    region.assign(nv, 0);
    fwd.assign(nv);
    bwd.assign(nv);

    struct Region {
      std::uint32_t id;
      std::vector<std::uint32_t> members;  // ascending
    };
    std::vector<Region> work;
    work.push_back({0, std::move(survivors)});
    std::uint32_t next_id = 1;
    std::uint64_t fb_sccs = 0, tarjan_regions = 0;

    while (!work.empty()) {
      Region r = std::move(work.back());
      work.pop_back();
      if (r.members.size() <= kSerialRegion) {
        ++tarjan_regions;
        tarjan_region(r.id, r.members);
        continue;
      }
      // Members are kept ascending, so the pivot — and with it the whole
      // decomposition — is a pure function of the graph.
      const std::uint32_t pivot = r.members.front();
      const auto f_list = bfs(g, pivot, r.id, fwd);
      const auto b_list = bfs(tr, pivot, r.id, bwd);
      ++fb_sccs;

      std::vector<std::uint32_t> f_only, b_only, rest;
      bool scc_nontrivial = false;
      for (const std::uint32_t v : r.members) {
        if (!live(v)) continue;
        const bool in_f = fwd.test(v), in_b = bwd.test(v);
        if (in_f && in_b) {
          // pivot = min(region) and pivot ∈ SCC, so pivot is also the
          // smallest member of the SCC: the canonical label.
          res.component[v] = pivot;
          if (v != pivot) scc_nontrivial = true;
        } else if (in_f) {
          f_only.push_back(v);
        } else if (in_b) {
          b_only.push_back(v);
        } else {
          rest.push_back(v);
        }
      }
      if (scc_nontrivial)
        for (const std::uint32_t v : r.members)
          if (res.component[v] == pivot) res.nontrivial.set(v);
      for (const std::uint32_t v : f_list) fwd.reset(v);
      for (const std::uint32_t v : b_list) bwd.reset(v);
      for (auto* part : {&f_only, &b_only, &rest}) {
        if (part->empty()) continue;
        const std::uint32_t id = next_id++;
        for (const std::uint32_t v : *part) region[v] = id;
        work.push_back({id, std::move(*part)});
      }
    }
    obs::counter("scc.fb_pivots").add(fb_sccs);
    obs::counter("scc.tarjan_regions").add(tarjan_regions);
  }
};

}  // namespace

ParallelSccResult parallel_scc(const CsrGraph& g, std::size_t num_threads) {
  const obs::Span span("scc.parallel");
  Run run(g, num_threads == 0 ? 1 : num_threads);
  const std::uint32_t n = run.n();
  run.res.component.assign(n, kNone);
  run.res.nontrivial.assign(n);
  run.res.self_loop.assign(n);
  if (n == 0) return std::move(run.res);
  run.tr = transpose(g, run.num_threads);
  run.trim();
  run.decompose();
  std::uint64_t comps = 0;
  for (std::uint32_t v = 0; v < n; ++v) {
    RINGSTAB_ASSERT(run.res.component[v] != kNone, "unlabeled vertex");
    if (run.res.component[v] == v) ++comps;
  }
  run.res.num_components = comps;
  obs::counter("scc.vertices").add(n);
  if (obs::enabled()) {
    // SCC size distribution. Component labels are canonical min-member ids
    // (bit-identical at every thread count), so these are problem-shaped —
    // the merged histogram must match at 1 vs N threads (test_obs locks
    // this in over the zoo).
    std::vector<std::uint32_t> size_of(n, 0);
    for (std::uint32_t v = 0; v < n; ++v) ++size_of[run.res.component[v]];
    obs::Histogram& region_size = obs::histogram("scc.region_size");
    for (std::uint32_t v = 0; v < n; ++v)
      if (size_of[v] > 0) region_size.record(size_of[v]);
  }
  return std::move(run.res);
}

std::vector<std::uint32_t> canonical_scc_labels(
    const std::vector<std::uint32_t>& component) {
  std::uint32_t max_id = 0;
  for (const std::uint32_t c : component) max_id = std::max(max_id, c);
  std::vector<std::uint32_t> first(component.empty() ? 0 : max_id + 1, kNone);
  for (std::uint32_t v = 0; v < component.size(); ++v)
    if (first[component[v]] == kNone) first[component[v]] = v;
  std::vector<std::uint32_t> out(component.size());
  for (std::uint32_t v = 0; v < component.size(); ++v)
    out[v] = first[component[v]];
  return out;
}

std::vector<std::uint32_t> extract_component_cycle(
    const CsrGraph& g, const ParallelSccResult& scc, std::uint32_t start) {
  if (scc.self_loop.test(start)) return {start};
  RINGSTAB_ASSERT(scc.nontrivial.test(start), "start is not on a cycle");
  const std::uint32_t comp = scc.component[start];
  std::unordered_map<std::uint32_t, std::uint32_t> parent;
  std::vector<std::uint32_t> stack{start};
  parent.emplace(start, start);
  while (!stack.empty()) {
    const std::uint32_t v = stack.back();
    stack.pop_back();
    for (std::uint64_t e = g.row[v]; e < g.row[v + 1]; ++e) {
      const std::uint32_t w = g.col[e];
      if (scc.component[w] != comp) continue;
      if (w == start) {
        std::vector<std::uint32_t> cyc{start};
        for (std::uint32_t x = v; x != start; x = parent.at(x))
          cyc.push_back(x);
        std::reverse(cyc.begin() + 1, cyc.end());
        return cyc;
      }
      if (!parent.emplace(w, v).second) continue;
      stack.push_back(w);
    }
  }
  RINGSTAB_ASSERT(false, "nontrivial SCC without a cycle through its root");
  return {};
}

}  // namespace ringstab
