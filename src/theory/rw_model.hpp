// Explicit-state model of Algorithm 1 (detectable read/write register) for
// experiment E9.
//
// §6 leaves open whether a non-trivial space lower bound exists for
// detectable read/write objects. This model produces the empirical side of
// that question: the number of reachable, pairwise memory-distinct shared
// configurations of Algorithm 1 (register R plus the toggle-bit arrays
// A[N][N][2]), i.e. how much of its 2N² + O(log N)-bit footprint the
// algorithm actually *uses*. log2 of the reachable count is a lower bound on
// the bits any implementation reaching the same configurations would need.
//
// Instruments mirror cas_model: a faithful line-by-line small-step model
// (operations, crashes, recoveries) explored by BFS for tiny N, and a
// quiescent-graph abstraction (solo writes from quiescent configurations,
// validated against the full model) for slightly larger N. Both run on
// theory::reach (theory/reach.hpp); both reject a value domain outside
// 2..255.
#pragma once

#include <cstdint>

#include "theory/reach.hpp"

namespace detect::theory {

/// Exhaustive BFS over the full Algorithm-1 model: `nprocs` processes,
/// written values drawn from {0..domain-1}, crashes and recoveries included.
config_count rw_bfs_configurations(int nprocs, int domain,
                                   std::uint64_t max_states = 20'000'000);

/// BFS over quiescent configurations only (deterministic solo-write
/// transitions); counts distinct shared (R, A) states.
config_count rw_quiescent_reachability(int nprocs, int domain);

}  // namespace detect::theory
