#include "global/array_instance.hpp"

#include "core/fmt.hpp"

namespace ringstab {

ArrayInstance::ArrayInstance(Protocol protocol, std::size_t length,
                             GlobalStateId max_states)
    : protocol_(std::move(protocol)),
      n_(length),
      real_d_(protocol_.domain().size() - 1) {
  validate_array_protocol(protocol_);
  if (n_ < 2) throw ModelError("array length must be at least 2");
  GlobalStateId n = 1;
  pow_.reserve(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    pow_.push_back(n);
    if (n > max_states / real_d_)
      throw CapacityError(cat("(|D|-1)^n = ", real_d_, "^", n_,
                              " exceeds the state budget"));
    n *= real_d_;
  }
  num_states_ = n;
}

std::vector<Value> ArrayInstance::decode(GlobalStateId s) const {
  std::vector<Value> out(n_);
  for (std::size_t i = 0; i < n_; ++i) out[i] = value(s, i);
  return out;
}

GlobalStateId ArrayInstance::encode(std::span<const Value> values) const {
  RINGSTAB_ASSERT(values.size() == n_, "array valuation has wrong size");
  GlobalStateId s = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    RINGSTAB_ASSERT(values[i] < real_d_, "value out of the real domain");
    s += pow_[i] * values[i];
  }
  return s;
}

LocalStateId ArrayInstance::local_state(GlobalStateId s, std::size_t i) const {
  const auto& loc = protocol_.locality();
  const Value bot = boundary_value(protocol_);
  LocalStateId ls = 0;
  LocalStateId mult = 1;
  for (int off = -loc.left; off <= loc.right; ++off) {
    const long long j = static_cast<long long>(i) + off;
    const Value v = (j < 0 || j >= static_cast<long long>(n_))
                        ? bot
                        : value(s, static_cast<std::size_t>(j));
    ls += static_cast<LocalStateId>(v) * mult;
    mult *= static_cast<LocalStateId>(protocol_.domain().size());
  }
  return ls;
}

bool ArrayInstance::in_invariant(GlobalStateId s) const {
  for (std::size_t i = 0; i < n_; ++i)
    if (!protocol_.is_legit(local_state(s, i))) return false;
  return true;
}

bool ArrayInstance::is_deadlock(GlobalStateId s) const {
  for (std::size_t i = 0; i < n_; ++i)
    if (protocol_.is_enabled(local_state(s, i))) return false;
  return true;
}

void ArrayInstance::successors(GlobalStateId s, std::vector<Step>& out) const {
  out.clear();
  for (std::size_t i = 0; i < n_; ++i) {
    const LocalStateId ls = local_state(s, i);
    for (const auto& t : protocol_.transitions_from(ls)) {
      const Value old_self = protocol_.space().self(t.from);
      const Value new_self = protocol_.space().self(t.to);
      out.push_back({s + pow_[i] * new_self - pow_[i] * old_self, i, t});
    }
  }
}

std::string ArrayInstance::brief(GlobalStateId s) const {
  std::string out;
  for (std::size_t i = 0; i < n_; ++i)
    out.push_back(protocol_.domain().abbrev(value(s, i)));
  return out;
}

ArrayCheckResult check_array(const ArrayInstance& inst) {
  return check_explicit(inst);
}

}  // namespace ringstab
