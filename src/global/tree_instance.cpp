#include "global/tree_instance.hpp"

#include <random>

#include "core/fmt.hpp"

namespace ringstab {

TreeInstance::TreeInstance(Protocol protocol,
                           std::vector<std::size_t> parent,
                           GlobalStateId max_states)
    : protocol_(std::move(protocol)),
      parent_(std::move(parent)),
      real_d_(protocol_.domain().size() - 1) {
  validate_array_protocol(protocol_);
  if (protocol_.locality() != Locality{1, 0})
    throw ModelError(
        "tree instances require a parent-read locality (reads -1 .. 0)");
  const std::size_t n = parent_.size() + 1;
  if (n < 2) throw ModelError("tree must have at least 2 nodes");
  for (std::size_t i = 1; i < n; ++i)
    if (parent_[i - 1] >= i)
      throw ModelError("tree parents must satisfy parent(i) < i");

  GlobalStateId count = 1;
  pow_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pow_.push_back(count);
    if (count > max_states / real_d_)
      throw CapacityError("tree state space exceeds the budget");
    count *= real_d_;
  }
  num_states_ = count;
}

std::vector<Value> TreeInstance::decode(GlobalStateId s) const {
  std::vector<Value> out(size());
  for (std::size_t i = 0; i < size(); ++i) out[i] = value(s, i);
  return out;
}

GlobalStateId TreeInstance::encode(std::span<const Value> values) const {
  RINGSTAB_ASSERT(values.size() == size(), "tree valuation has wrong size");
  GlobalStateId s = 0;
  for (std::size_t i = 0; i < size(); ++i) {
    RINGSTAB_ASSERT(values[i] < real_d_, "value out of the real domain");
    s += pow_[i] * values[i];
  }
  return s;
}

LocalStateId TreeInstance::local_state(GlobalStateId s, std::size_t i) const {
  const Value prev =
      (i == 0) ? boundary_value(protocol_) : value(s, parent(i));
  const std::vector<Value> window{prev, value(s, i)};
  return protocol_.space().encode(window);
}

bool TreeInstance::in_invariant(GlobalStateId s) const {
  for (std::size_t i = 0; i < size(); ++i)
    if (!protocol_.is_legit(local_state(s, i))) return false;
  return true;
}

bool TreeInstance::is_deadlock(GlobalStateId s) const {
  for (std::size_t i = 0; i < size(); ++i)
    if (protocol_.is_enabled(local_state(s, i))) return false;
  return true;
}

void TreeInstance::successors(GlobalStateId s, std::vector<Step>& out) const {
  out.clear();
  for (std::size_t i = 0; i < size(); ++i) {
    const LocalStateId ls = local_state(s, i);
    for (const auto& t : protocol_.transitions_from(ls)) {
      const Value old_self = protocol_.space().self(t.from);
      const Value new_self = protocol_.space().self(t.to);
      out.push_back({s + pow_[i] * new_self - pow_[i] * old_self, i, t});
    }
  }
}

std::string TreeInstance::brief(GlobalStateId s) const {
  std::string out;
  for (std::size_t i = 0; i < size(); ++i)
    out.push_back(protocol_.domain().abbrev(value(s, i)));
  return out;
}

TreeCheckResult check_tree(const TreeInstance& inst) {
  return check_explicit(inst);
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
