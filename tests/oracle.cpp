#include "oracle.hpp"

#include <algorithm>
#include <functional>

namespace ringstab::testing {
namespace {

constexpr std::size_t kNoComponent = ~std::size_t{0};

/// Kosaraju over the states with keep[s]: out[s] iff s lies on a cycle of
/// kept states (an SCC of two or more states, or a self-loop).
std::vector<bool> on_kept_cycle(const ExplicitSpace& sp,
                                const std::vector<bool>& keep) {
  const std::size_t n = sp.succ.size();
  std::vector<std::vector<GlobalStateId>> pred(n);
  for (GlobalStateId s = 0; s < n; ++s)
    for (const GlobalStateId t : sp.succ[s])
      if (keep[s] && keep[t]) pred[t].push_back(s);

  // Pass 1: DFS finishing order over the kept graph.
  std::vector<GlobalStateId> order;
  std::vector<bool> seen(n, false);
  for (GlobalStateId root = 0; root < n; ++root) {
    if (!keep[root] || seen[root]) continue;
    std::vector<std::pair<GlobalStateId, std::size_t>> stack{{root, 0}};
    seen[root] = true;
    while (!stack.empty()) {
      auto& [v, next] = stack.back();
      if (next < sp.succ[v].size()) {
        const GlobalStateId w = sp.succ[v][next++];
        if (keep[w] && !seen[w]) {
          seen[w] = true;
          stack.push_back({w, 0});
        }
      } else {
        order.push_back(v);
        stack.pop_back();
      }
    }
  }
  // Pass 2: components of the transpose, in reverse finishing order.
  std::vector<std::size_t> comp(n, kNoComponent), size;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if (comp[*it] != kNoComponent) continue;
    const std::size_t id = size.size();
    size.push_back(0);
    std::vector<GlobalStateId> stack{*it};
    comp[*it] = id;
    while (!stack.empty()) {
      const GlobalStateId v = stack.back();
      stack.pop_back();
      ++size[id];
      for (const GlobalStateId u : pred[v])
        if (comp[u] == kNoComponent) {
          comp[u] = id;
          stack.push_back(u);
        }
    }
  }
  std::vector<bool> out(n, false);
  for (GlobalStateId s = 0; s < n; ++s)
    out[s] = keep[s] && (size[comp[s]] > 1 ||
                         std::find(sp.succ[s].begin(), sp.succ[s].end(), s) !=
                             sp.succ[s].end());
  return out;
}

}  // namespace

OracleVerdict oracle_verdict(const ExplicitSpace& sp) {
  const std::size_t n = sp.succ.size();
  OracleVerdict v;
  std::vector<bool> outside(n);
  for (GlobalStateId s = 0; s < n; ++s) {
    outside[s] = !sp.in_inv[s];
    if (outside[s] && sp.succ[s].empty()) {
      ++v.deadlocks;
      if (v.deadlock_samples.size() < 8) v.deadlock_samples.push_back(s);
    }
    if (!v.closure_violation && sp.in_inv[s])
      for (const GlobalStateId t : sp.succ[s])
        if (!sp.in_inv[t]) {
          v.closure_violation = {s, t};
          break;
        }
  }

  const std::vector<bool> livelocked = on_kept_cycle(sp, outside);
  for (GlobalStateId s = 0; s < n; ++s)
    if (livelocked[s]) v.livelock_states.push_back(s);
  const std::vector<bool> cyclic =
      on_kept_cycle(sp, std::vector<bool>(n, true));
  v.terminates = std::find(cyclic.begin(), cyclic.end(), true) == cyclic.end();

  // Weak convergence: backward reachability from I.
  std::vector<std::vector<GlobalStateId>> pred(n);
  for (GlobalStateId s = 0; s < n; ++s)
    for (const GlobalStateId t : sp.succ[s]) pred[t].push_back(s);
  std::vector<bool> reaches = sp.in_inv;
  std::vector<GlobalStateId> stack;
  for (GlobalStateId s = 0; s < n; ++s)
    if (sp.in_inv[s]) stack.push_back(s);
  while (!stack.empty()) {
    const GlobalStateId t = stack.back();
    stack.pop_back();
    for (const GlobalStateId s : pred[t])
      if (!reaches[s]) {
        reaches[s] = true;
        stack.push_back(s);
      }
  }
  v.weakly_converges =
      std::find(reaches.begin(), reaches.end(), false) == reaches.end();

  // Recovery: the longest path to I, finite once ¬I has no deadlock and no
  // cycle.
  if (v.deadlocks == 0 && v.livelock_states.empty()) {
    std::vector<std::optional<std::size_t>> depth(n);
    const std::function<std::size_t(GlobalStateId)> longest =
        [&](GlobalStateId s) -> std::size_t {
      if (sp.in_inv[s]) return 0;
      if (!depth[s]) {
        std::size_t d = 0;
        for (const GlobalStateId t : sp.succ[s])
          d = std::max(d, 1 + longest(t));
        depth[s] = d;
      }
      return *depth[s];
    };
    std::size_t best = 0;
    for (GlobalStateId s = 0; s < n; ++s) best = std::max(best, longest(s));
    v.recovery = best;
  }
  return v;
}

}  // namespace ringstab::testing
