#include "global/tree_instance.hpp"

#include <random>

namespace ringstab {

TreeInstance::TreeInstance(Protocol protocol,
                           std::vector<std::size_t> parent,
                           GlobalStateId max_states)
    : WindowInstance(std::move(protocol)), parent_(std::move(parent)) {
  if (this->protocol().locality() != Locality{1, 0})
    throw ModelError(
        "tree instances require a parent-read locality (reads -1 .. 0)");
  const std::size_t n = parent_.size() + 1;
  if (n < 2) throw ModelError("tree must have at least 2 nodes");
  for (std::size_t i = 1; i < n; ++i)
    if (parent_[i - 1] >= i)
      throw ModelError("tree parents must satisfy parent(i) < i");
  std::vector<std::uint32_t> window = {static_cast<std::uint32_t>(n), 0};
  for (std::size_t i = 1; i < n; ++i) {
    window.push_back(static_cast<std::uint32_t>(parent_[i - 1]));
    window.push_back(static_cast<std::uint32_t>(i));
  }
  seat(n, std::move(window), max_states);
}

std::vector<std::size_t> random_tree_shape(std::size_t n,
                                           std::uint64_t seed) {
  RINGSTAB_ASSERT(n >= 2, "tree must have at least 2 nodes");
  std::mt19937_64 rng(seed);
  std::vector<std::size_t> parent(n - 1);
  for (std::size_t i = 1; i < n; ++i)
    parent[i - 1] = rng() % i;
  return parent;
}

}  // namespace ringstab
