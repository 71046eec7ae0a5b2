// Explicit-state views of array (open chain) and in-tree protocol
// instances: the ground truth for the array extension of Theorem 4.2.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "local/array.hpp"

namespace ringstab {

/// n processes running an array-convention protocol (domain's last value
/// reserved as ⊥; see local/array.hpp), each reading the variables its row
/// of a window table names, with ⊥ wherever the row names no process.
/// Global states range over the REAL values only: |D−1|^n codes.
/// ArrayInstance and TreeInstance differ only in that table.
class WindowInstance {
 public:
  const Protocol& protocol() const { return protocol_; }
  GlobalStateId num_states() const { return num_states_; }

  Value value(GlobalStateId s, std::size_t i) const {
    return static_cast<Value>((s / pow_[i]) % real_d_);
  }
  std::vector<Value> decode(GlobalStateId s) const;
  GlobalStateId encode(std::span<const Value> values) const;

  /// Local state of process i (its window, ⊥ where the table says so).
  LocalStateId local_state(GlobalStateId s, std::size_t i) const;

  bool in_invariant(GlobalStateId s) const;
  bool is_deadlock(GlobalStateId s) const;

  struct Step {
    GlobalStateId target = 0;
    std::size_t process = 0;
    LocalTransition transition;
  };
  void successors(GlobalStateId s, std::vector<Step>& out) const;

  std::string brief(GlobalStateId s) const;

  /// Decoder behind every query: holds the digits of a state (plus a
  /// trailing ⊥ slot the window table points at). Dense sweeps advance it
  /// by one with a carry, so no state costs a division.
  class Cursor {
   public:
    Cursor(const WindowInstance& inst, GlobalStateId start);

    GlobalStateId state() const { return s_; }
    void advance();

    /// Local state of process i: a Horner sum over its window's digits.
    LocalStateId local_state(std::size_t i) const;

    /// Calls emit(step) for every successor of the current state, in
    /// successors() order, and returns whether the state is in I: one walk
    /// over the processes, each local state computed once.
    template <class Emit>
    bool expand(const Emit& emit) const {
      const Protocol& p = inst_->protocol_;
      bool legit = true;
      for (std::size_t i = 0; i < inst_->n_; ++i) {
        const LocalStateId ls = local_state(i);
        legit = legit && p.is_legit(ls);
        for (const LocalTransition& t : p.transitions_from(ls))
          emit(Step{inst_->step_target(s_, i, t), i, t});
      }
      return legit;
    }

   private:
    const WindowInstance* inst_;
    GlobalStateId s_;
    std::vector<Value> digits_;  // n real digits, then ⊥
  };

 protected:
  /// Validates `protocol` as an array protocol; seat() finishes the job.
  explicit WindowInstance(Protocol protocol);

  /// Seats n processes: window[i * w + p] is the process whose variable
  /// process i reads at window position p (offsets -left..right, w of
  /// them), or n for ⊥. Throws CapacityError when |D−1|^n exceeds
  /// `max_states`.
  void seat(std::size_t n, std::vector<std::uint32_t> window,
            GlobalStateId max_states);

  std::size_t num_processes() const { return n_; }

 private:
  GlobalStateId step_target(GlobalStateId s, std::size_t i,
                            const LocalTransition& t) const {
    const auto& space = protocol_.space();
    return s + pow_[i] * space.self(t.to) - pow_[i] * space.self(t.from);
  }

  Protocol protocol_;
  std::size_t n_ = 0;
  std::size_t real_d_;  // |D| − 1 (⊥ excluded from real variables)
  GlobalStateId num_states_ = 0;
  std::vector<GlobalStateId> pow_;     // (|D|−1)^i, the state place values
  std::vector<LocalStateId> lpow_;     // |D|^p over the window
  std::vector<std::uint32_t> window_;  // window_[i*w + p]: process or n (⊥)
};

/// An array of `length` processes: process i reads i-left .. i+right, ⊥ past
/// either end.
class ArrayInstance : public WindowInstance {
 public:
  ArrayInstance(Protocol protocol, std::size_t length,
                GlobalStateId max_states = GlobalStateId{1} << 24);

  std::size_t length() const { return num_processes(); }
};

/// Exhaustive verdicts for array and tree instances.
struct ArrayCheckResult {
  std::size_t num_deadlocks_outside_i = 0;
  bool has_livelock = false;
  bool terminates = false;  // no infinite computation at all
};

/// The exhaustive check shared by arrays and trees: one successor pass
/// (the census → ¬I CSR build of global/state_space.hpp with nothing
/// projected out) builds the whole transition CSR and records I membership
/// on the way. The ¬I verdict tail's peel of the whole graph decides
/// termination; the one Tarjan with I skipped decides livelock outside I.
ArrayCheckResult check_explicit(const WindowInstance& inst);

inline ArrayCheckResult check_array(const ArrayInstance& inst) {
  return check_explicit(inst);
}

}  // namespace ringstab
