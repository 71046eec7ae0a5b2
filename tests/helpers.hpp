// Shared test utilities: the protocol zoo, random protocol generation, and
// local-vs-global cross-validation helpers.
#pragma once

#include <random>
#include <vector>

#include "core/builder.hpp"
#include "core/protocol.hpp"
#include "global/checker.hpp"

namespace ringstab::testing {

/// Every built-in protocol, for parameterized sweeps.
std::vector<Protocol> protocol_zoo();

/// Deterministic random protocols: domain size in [2,3], unidirectional or
/// bidirectional window, random legitimacy mask (nonempty, not full), and a
/// random self-disabling transition set. Suitable for cross-validating the
/// local theorems against global model checking.
struct RandomProtocolOptions {
  std::size_t max_domain = 3;
  bool allow_bidirectional = false;
  double transition_density = 0.3;  // probability a deadlockable state fires
  double legit_density = 0.5;
  bool legit_fires = false;  // legitimate states fire too (closure may fail)
};

Protocol random_protocol(std::mt19937_64& rng,
                         const RandomProtocolOptions& opts = {});

/// Deterministic random array protocols (locality {1,0}, 2..3 real values
/// plus ⊥): transitions fire only from states whose self is a real value.
/// With `self_disabling`, only illegitimate states fire and transitions
/// whose target fires are dropped; without it, legitimate states fire too
/// and computations may cycle.
Protocol random_array_protocol(std::mt19937_64& rng,
                               bool self_disabling = true);

/// True iff p(K) has a global deadlock outside I (brute-force oracle).
bool global_has_deadlock(const Protocol& p, std::size_t k);

/// True iff p(K) has a livelock (cycle outside I) (brute-force oracle).
bool global_has_livelock(const Protocol& p, std::size_t k);

}  // namespace ringstab::testing
