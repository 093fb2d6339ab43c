// Explicit-state model of Algorithm 2 for Theorem 1 (experiment E2).
//
// Theorem 1: any obstruction-free detectable CAS implementation over a value
// domain of size ≥ N has at least 2^N − 1 reachable configurations, pairwise
// distinct in shared memory. For Algorithm 2, the shared memory is the single
// cell C = ⟨value, vec⟩, so the count of reachable distinct (value, vec)
// pairs is the quantity of interest.
//
// Three instruments, strongest to fastest:
//  * `bfs_configurations` — exhaustive BFS over a faithful line-by-line small-
//    step encoding of Algorithm 2 (operations, crashes, recoveries). Exact
//    reachable counts for small N.
//  * `quiescent_reachability` — BFS over quiescent configurations only, using
//    the derived transition "from shared state (v, vec), a solo successful
//    Cas_p(v, v′) reaches (v′, vec ⊕ e_p)". Validated against the full BFS on
//    small N; scales to N ≈ 24.
//  * `gray_code_walk` — a constructive schedule that drives the model through
//    2^N distinct vec values by flipping one process's bit at a time (each
//    flip is one solo successful CAS), i.e. an explicit witness for the
//    2^N − 1 lower bound on the implementation.
//
// The two BFS instruments run on theory::reach (theory/reach.hpp); every
// entry point rejects a value domain outside 2..127.
#pragma once

#include <cstdint>

#include "theory/reach.hpp"

namespace detect::theory {

/// Exhaustive BFS over the full model. `nprocs` processes, value domain
/// {0..domain-1}, operation universe Cas(i, (i+1) mod domain) for all i, with
/// system-wide crashes and recoveries included. `max_states` caps the search;
/// shared_configs counts distinct (value, vec) states.
config_count bfs_configurations(int nprocs, int domain,
                                std::uint64_t max_states = 20'000'000);

/// BFS over quiescent shared states only (derived solo-success transition).
config_count quiescent_reachability(int nprocs, int domain);

/// Drive the model along a Gray-code schedule visiting 2^nprocs distinct vec
/// values; returns the number of distinct shared states visited.
std::uint64_t gray_code_walk(int nprocs, int domain);

/// 2^n − 1 with saturation, for printing the bound column.
std::uint64_t theorem1_bound(int nprocs);

}  // namespace detect::theory
