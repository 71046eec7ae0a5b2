#include "graph/scc.hpp"

#include <algorithm>
#include <iterator>
#include <unordered_map>

#include "core/types.hpp"

namespace ringstab {
namespace {

constexpr std::uint32_t kNone = 0xffffffffu;

}  // namespace

SccResult strongly_connected_components(const CsrGraph& g,
                                        const PackedBitset* skip) {
  const std::uint32_t n = g.num_vertices();
  SccResult res;
  res.nontrivial.assign(n);
  res.self_loop.assign(n);
  // index[v] is kNone until v is visited, its DFS number while it is on the
  // stack, and its component label once its SCC is popped: edges into a
  // popped vertex are ignored, so only "visited" is read from then on.
  // low[v] is Tarjan's low-link while v is on the stack; a popped label
  // keeps its component's size there.
  std::vector<std::uint32_t> index(n, kNone), low(n, 0);
  if (skip != nullptr)
    for (std::uint32_t v = 0; v < n; ++v)
      if (skip->test(v)) {
        index[v] = v;
        low[v] = 1;
      }
  PackedBitset on_stack(n);
  std::vector<std::uint32_t> stack;
  struct Frame {
    std::uint32_t v;
    std::uint64_t edge;  // next out-edge to read
  };
  std::vector<Frame> call;
  std::uint32_t next_index = 0;
  std::uint64_t edges = 0;
  auto visit = [&](std::uint32_t v) {
    index[v] = low[v] = next_index++;
    stack.push_back(v);
    on_stack.set(v);
    call.push_back({v, g.row[v]});
  };

  for (std::uint32_t root = 0; root < n; ++root) {
    if (index[root] != kNone) continue;
    visit(root);
    while (!call.empty()) {
      Frame& f = call.back();
      const std::uint32_t v = f.v;
      bool descended = false;
      while (f.edge < g.row[v + 1]) {
        const std::uint32_t w = g.col[f.edge++];
        ++edges;
        if (index[w] == kNone) {
          visit(w);  // may reallocate `call`: `f` is dead from here
          descended = true;
          break;
        }
        if (w == v) res.self_loop.set(v);
        if (on_stack.test(w)) low[v] = std::min(low[v], index[w]);
      }
      if (descended) continue;
      call.pop_back();
      if (low[v] != index[v]) {
        // v's SCC is rooted at an ancestor, so v has a parent frame. (A
        // root's low-link cannot lower its parent's, so roots skip this.)
        Frame& parent = call.back();
        low[parent.v] = std::min(low[parent.v], low[v]);
        continue;
      }
      // v roots an SCC: the stack suffix starting at v, relabeled by its
      // smallest member.
      const auto first =
          std::prev(std::find(stack.rbegin(), stack.rend(), v).base());
      const std::uint32_t label = *std::min_element(first, stack.end());
      const auto size = static_cast<std::uint32_t>(stack.end() - first);
      for (auto it = first; it != stack.end(); ++it) {
        on_stack.reset(*it);
        index[*it] = label;
        if (size > 1) res.nontrivial.set(*it);
      }
      low[label] = size;
      stack.erase(first, stack.end());
      ++res.num_components;
    }
  }
  for (std::uint32_t v = 0; v < n; ++v)
    if (index[v] != v) low[v] = 0;
  res.component = std::move(index);
  res.component_size = std::move(low);
  res.vertices_visited = next_index;
  res.edges_scanned = edges;
  return res;
}

std::vector<std::uint32_t> extract_component_cycle(const CsrGraph& g,
                                                   const SccResult& scc,
                                                   std::uint32_t start) {
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

CsrGraph to_csr(const Digraph& g) {
  CsrGraph out;
  out.row.assign(g.num_vertices() + 1, 0);
  out.col.reserve(g.num_arcs());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    out.row[v + 1] = out.row[v] + g.out_degree(v);
    out.col.insert(out.col.end(), g.out(v).begin(), g.out(v).end());
  }
  return out;
}

SccResult strongly_connected_components(const Digraph& g) {
  return strongly_connected_components(to_csr(g));
}

bool any_marked_on_cycle(const Digraph& g, const std::vector<bool>& marked) {
  const SccResult scc = strongly_connected_components(g);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    if (marked[v] && scc.on_cycle(v)) return true;
  return false;
}

}  // namespace ringstab
