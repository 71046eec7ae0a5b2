#include "global/array_instance.hpp"

#include "core/fmt.hpp"
#include "global/state_space.hpp"
#include "graph/peel.hpp"

namespace ringstab {

WindowInstance::WindowInstance(Protocol protocol)
    : protocol_(std::move(protocol)),
      real_d_(protocol_.domain().size() - 1) {
  validate_array_protocol(protocol_);
}

void WindowInstance::seat(std::size_t n, std::vector<std::uint32_t> window,
                          GlobalStateId max_states) {
  n_ = n;
  window_ = std::move(window);
  GlobalStateId count = 1;
  pow_.reserve(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    pow_.push_back(count);
    if (count > max_states / real_d_)
      throw CapacityError(cat("(|D|-1)^n = ", real_d_, "^", n_,
                              " exceeds the state budget"));
    count *= real_d_;
  }
  num_states_ = count;
  LocalStateId mult = 1;
  for (int p = 0; p < protocol_.locality().window(); ++p) {
    lpow_.push_back(mult);
    mult *= static_cast<LocalStateId>(protocol_.domain().size());
  }
}

std::vector<Value> WindowInstance::decode(GlobalStateId s) const {
  std::vector<Value> out(n_);
  for (std::size_t i = 0; i < n_; ++i) out[i] = value(s, i);
  return out;
}

GlobalStateId WindowInstance::encode(std::span<const Value> values) const {
  RINGSTAB_ASSERT(values.size() == n_, "valuation has wrong size");
  GlobalStateId s = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    RINGSTAB_ASSERT(values[i] < real_d_, "value out of the real domain");
    s += pow_[i] * values[i];
  }
  return s;
}

LocalStateId WindowInstance::local_state(GlobalStateId s,
                                         std::size_t i) const {
  return Cursor(*this, s).local_state(i);
}

bool WindowInstance::in_invariant(GlobalStateId s) const {
  return Cursor(*this, s).expand([](const Step&) {});
}

bool WindowInstance::is_deadlock(GlobalStateId s) const {
  bool moves = false;
  Cursor(*this, s).expand([&](const Step&) { moves = true; });
  return !moves;
}

void WindowInstance::successors(GlobalStateId s,
                                std::vector<Step>& out) const {
  out.clear();
  Cursor(*this, s).expand([&](const Step& step) { out.push_back(step); });
}

std::string WindowInstance::brief(GlobalStateId s) const {
  std::string out;
  for (std::size_t i = 0; i < n_; ++i)
    out.push_back(protocol_.domain().abbrev(value(s, i)));
  return out;
}

WindowInstance::Cursor::Cursor(const WindowInstance& inst, GlobalStateId start)
    : inst_(&inst), s_(start), digits_(inst.decode(start)) {
  digits_.push_back(boundary_value(inst.protocol_));
}

void WindowInstance::Cursor::advance() {
  ++s_;
  const auto top = static_cast<Value>(inst_->real_d_ - 1);
  for (std::size_t i = 0; i < inst_->n_; ++i) {
    if (digits_[i] != top) {
      ++digits_[i];
      return;
    }
    digits_[i] = 0;
  }
}

LocalStateId WindowInstance::Cursor::local_state(std::size_t i) const {
  const std::size_t w = inst_->lpow_.size();
  const std::uint32_t* row = inst_->window_.data() + i * w;
  LocalStateId ls = 0;
  for (std::size_t p = 0; p < w; ++p)
    ls += static_cast<LocalStateId>(digits_[row[p]]) * inst_->lpow_[p];
  return ls;
}

ArrayInstance::ArrayInstance(Protocol protocol, std::size_t length,
                             GlobalStateId max_states)
    : WindowInstance(std::move(protocol)) {
  if (length < 2) throw ModelError("array length must be at least 2");
  const Locality& loc = this->protocol().locality();
  std::vector<std::uint32_t> window;
  for (std::size_t i = 0; i < length; ++i)
    for (int off = -loc.left; off <= loc.right; ++off) {
      const long long j = static_cast<long long>(i) + off;
      window.push_back(j < 0 || j >= static_cast<long long>(length)
                           ? static_cast<std::uint32_t>(length)
                           : static_cast<std::uint32_t>(j));
    }
  seat(length, std::move(window), max_states);
}

namespace {

/// An array or tree as a builder space with nothing projected out: the CSR
/// is the whole transition graph, and each expansion records its state's I
/// membership in `legit` (chunks are 64-aligned, so each owns its words).
struct WholeSpace {
  const WindowInstance& inst;
  PackedBitset& legit;

  struct Cursor {
    WindowInstance::Cursor cur;
    PackedBitset* legit;

    void advance() { cur.advance(); }
    template <class Emit>
    void successors(const Emit& emit) {
      const bool in_inv = cur.expand(
          [&](const WindowInstance::Step& step) { emit(step.target); });
      if (in_inv) legit->set(cur.state());
    }
    std::optional<Transition> escape(const PackedBitset&) { return {}; }
  };
  Cursor cursor(GlobalStateId begin) const {
    return {WindowInstance::Cursor(inst, begin), &legit};
  }
};

}  // namespace

ArrayCheckResult check_explicit(const WindowInstance& inst) {
  const GlobalStateId n = inst.num_states();
  PackedBitset legit(n);
  const NotInvGraph g =
      build_not_inv_graph(WholeSpace{inst, legit}, PackedBitset(n), 1);
  const CsrGraph& all = g.csr;

  ArrayCheckResult res;
  for (GlobalStateId s = 0; s < n; ++s)
    if (!legit.test(s) && all.row[s + 1] == all.row[s])
      ++res.num_deadlocks_outside_i;
  // Termination: no cycle anywhere, i.e. the whole graph peels away.
  res.terminates = verdict_tail(all, g.to_inv, 1).acyclic();
  if (!res.terminates) {
    const SccResult scc = strongly_connected_components(all, &legit);
    res.has_livelock = !scc.nontrivial.none() || !scc.self_loop.none();
  }
  return res;
}

}  // namespace ringstab
