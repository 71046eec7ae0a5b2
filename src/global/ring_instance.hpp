// A parameterized protocol instantiated on a concrete ring of size K.
#pragma once

#include <concepts>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/protocol.hpp"
#include "global/state_space.hpp"  // the builder cursor's vocabulary
#include "local/precedence.hpp"  // ScheduledStep

namespace ringstab {

/// Explicit-state view of p(K): global states are mixed-radix uint64 codes
/// of the K ring variables. This is the substrate for the "global reasoning"
/// baseline the paper contrasts with (model checking / fixed-K synthesis).
///
/// Construction precomputes three tables that keep the per-state work of
/// full-space sweeps division-free:
///  * a per-local-state flag byte (legit? enabled?) so predicate checks are
///    one table read instead of a Protocol query;
///  * the window powers |D|^p, so a local state is a Horner sum over the
///    window digits;
///  * the wrapped ring index of every (process, window offset) pair, so no
///    modulo is taken while scanning.
/// Sweeps should decode a state's digits once (or roll them forward with
/// Cursor) and reuse them for all K processes.
class RingInstance {
 public:
  /// Throws CapacityError if |D|^K exceeds `max_states` (default 2^24) or
  /// does not fit in 64 bits.
  RingInstance(Protocol protocol, std::size_t ring_size,
               GlobalStateId max_states = GlobalStateId{1} << 24);

  const Protocol& protocol() const { return protocol_; }
  std::size_t ring_size() const { return k_; }
  GlobalStateId num_states() const { return num_states_; }
  std::size_t domain_size() const { return d_; }

  Value value(GlobalStateId s, std::size_t i) const {
    return static_cast<Value>((s / pow_[i]) % d_);
  }
  /// pow_[i] = |D|^i, the mixed-radix place values (pow_[0] = 1).
  const std::vector<GlobalStateId>& powers() const { return pow_; }
  std::vector<Value> decode(GlobalStateId s) const;
  /// decode() into a caller-owned buffer (resized to K); the only divisions
  /// a sweep needs per state.
  void decode_into(GlobalStateId s, std::vector<Value>& digits) const;
  GlobalStateId encode(std::span<const Value> ring) const;

  /// Local state of process i (its readable window) in global state s.
  LocalStateId local_state(GlobalStateId s, std::size_t i) const;

  /// Local state of process i from predecoded digits: a division-free
  /// Horner sum over the window (digits must have length K).
  LocalStateId local_state_from(const Value* digits, std::size_t i) const {
    const std::uint32_t* idx = widx_.data() + i * window_;
    LocalStateId ls = 0;
    for (std::size_t p = 0; p < window_; ++p)
      ls += static_cast<LocalStateId>(digits[idx[p]]) * lpow_[p];
    return ls;
  }

  /// Precomputed LC_r / enablement of a local state (one byte read).
  bool legit_local(LocalStateId ls) const { return local_flags_[ls] & kLegit; }
  bool enabled_local(LocalStateId ls) const {
    return local_flags_[ls] & kEnabled;
  }

  bool process_enabled(GlobalStateId s, std::size_t i) const {
    return enabled_local(local_state(s, i));
  }

  /// s ∈ I(K): every process satisfies LC_r.
  bool in_invariant(GlobalStateId s) const;

  bool is_deadlock(GlobalStateId s) const;

  /// One outgoing global transition.
  struct Step {
    GlobalStateId target = 0;
    std::size_t process = 0;
    LocalTransition transition;
  };

  /// All outgoing global transitions of s (interleaving semantics: one
  /// process moves). Appended to `out` (cleared first).
  void successors(GlobalStateId s, std::vector<Step>& out) const;

  /// successors() from predecoded digits of s (division-free).
  void successors_from(GlobalStateId s, const Value* digits,
                       std::vector<Step>& out) const;

  /// Number of enabled processes in s.
  std::size_t num_enabled(GlobalStateId s) const;

  /// Compact dump using domain abbreviations, e.g. "lsrls".
  std::string brief(GlobalStateId s) const;

  /// Rolling decoder for dense state-space sweeps: holds the digit vector
  /// of the current state and advances by one with a mixed-radix carry —
  /// O(1) amortized, no division. All predicates run off the digit vector
  /// and the precomputed tables.
  class Cursor {
   public:
    Cursor(const RingInstance& ring, GlobalStateId start)
        : ring_(&ring), s_(start) {
      ring.decode_into(start, digits_);
    }

    GlobalStateId state() const { return s_; }

    /// Move to state s+1 (carry-propagating increment of the digits).
    void advance() {
      ++s_;
      const Value top = static_cast<Value>(ring_->d_ - 1);
      for (std::size_t i = 0; i < digits_.size(); ++i) {
        if (digits_[i] != top) {
          ++digits_[i];
          return;
        }
        digits_[i] = 0;
      }
    }

    LocalStateId local_state(std::size_t i) const {
      return ring_->local_state_from(digits_.data(), i);
    }
    bool in_invariant() const {
      for (std::size_t i = 0; i < digits_.size(); ++i)
        if (!ring_->legit_local(local_state(i))) return false;
      return true;
    }
    bool is_deadlock() const {
      for (std::size_t i = 0; i < digits_.size(); ++i)
        if (ring_->enabled_local(local_state(i))) return false;
      return true;
    }
    /// Both sweep predicates in one walk over the processes: each local
    /// state is read once and its flag byte settles both bits (an enabled
    /// process kills kClassDeadlock, a non-legit one kills kClassInvariant),
    /// with an early exit once neither bit survives. This is what lets the
    /// checker's census pass answer both in_invariant() and is_deadlock()
    /// without touching a state twice.
    std::uint8_t classify() const {
      std::uint8_t out = kClassInvariant | kClassDeadlock;
      for (std::size_t i = 0; i < digits_.size() && out; ++i) {
        const std::uint8_t f = ring_->local_flags_[local_state(i)];
        if (f & kEnabled) out &= ~kClassDeadlock;
        if (!(f & kLegit)) out &= ~kClassInvariant;
      }
      return out;
    }
    void successors(std::vector<Step>& out) const {
      ring_->successors_from(s_, digits_.data(), out);
    }

    // The builder's cursor (global/state_space.hpp): the ring's CSR rows
    // keep successor order, duplicates included.
    template <std::invocable<GlobalStateId> Emit>
    void successors(const Emit& emit) {
      ring_->successors_from(s_, digits_.data(), succ_);
      for (const Step& step : succ_) emit(step.target);
    }
    std::optional<Transition> escape(const PackedBitset& inv) {
      ring_->successors_from(s_, digits_.data(), succ_);
      for (const Step& step : succ_)
        if (!inv.test(step.target)) return Transition{s_, step.target};
      return std::nullopt;
    }

   private:
    const RingInstance* ring_;
    GlobalStateId s_;
    std::vector<Value> digits_;
    std::vector<Step> succ_;  // scratch for the builder's calls
  };

  Cursor cursor(GlobalStateId start = 0) const { return Cursor(*this, start); }

 private:
  static constexpr std::uint8_t kLegit = 1;
  static constexpr std::uint8_t kEnabled = 2;

  Protocol protocol_;
  std::size_t k_;
  std::size_t d_;
  std::size_t window_;
  GlobalStateId num_states_;
  std::vector<GlobalStateId> pow_;
  std::vector<LocalStateId> lpow_;        // |D|^p over the window
  std::vector<std::uint32_t> widx_;       // widx_[i*window + p]: ring index
  std::vector<std::uint8_t> local_flags_; // kLegit | kEnabled per local state
};

/// Recover the interleaving schedule along a path of global states
/// (consecutive states must differ in exactly one process's variable by a
/// δ_r transition). Throws ModelError if the path is not a computation.
Schedule schedule_from_path(const RingInstance& ring,
                            std::span<const GlobalStateId> path,
                            bool cyclic = false);

}  // namespace ringstab
