// The reachability engine behind every configuration count of the theory
// models (experiments E2 and E9): one breadth-first search over an explicit
// state graph, counting distinct full configurations and their distinct
// shared-memory projections.
//
// A model supplies only its transition relation (see reach() below). The
// engine is a template over the model's callables, so the inner loop makes
// no indirect calls.
//
// Pass `shared_is_key{}` as the projection when the state *is* its shared
// projection; the engine then keeps one visited set instead of two.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <type_traits>
#include <unordered_set>
#include <utility>

namespace detect::theory {

struct config_count {
  std::uint64_t total_configs = 0;     // distinct full configurations explored
  std::uint64_t shared_configs = 0;    // distinct shared-memory projections
  bool complete = true;                // false if the state cap was hit
};

/// Projection tag: every state is its own shared projection.
struct shared_is_key {};

/// Breadth-first search from `init`. `key(s)` identifies a state,
/// `shared_key(s)` its shared projection (or shared_is_key), and
/// `expand(s, visit)` calls `visit(succ)` for every successor in a fixed
/// order. The search stops early, reporting `complete = false`, once
/// `max_states` states have been seen: the check runs before each pop, so
/// the last expansion may overshoot the cap.
template <typename State, typename KeyFn, typename SharedFn, typename ExpandFn>
config_count reach(const State& init, KeyFn key, SharedFn shared_key,
                   ExpandFn expand,
                   std::uint64_t max_states =
                       std::numeric_limits<std::uint64_t>::max()) {
  constexpr bool separate_shared = !std::is_same_v<SharedFn, shared_is_key>;
  std::unordered_set<std::invoke_result_t<KeyFn&, const State&>> seen;
  std::deque<State> frontier;
  auto shared_seen = [] {
    if constexpr (separate_shared) {
      return std::unordered_set<std::invoke_result_t<SharedFn&, const State&>>{};
    } else {
      return 0;  // unused: the projection is the key
    }
  }();

  auto visit = [&](const State& s) {
    if (seen.insert(key(s)).second) {
      if constexpr (separate_shared) shared_seen.insert(shared_key(s));
      frontier.push_back(s);
    }
  };

  config_count out;
  visit(init);
  while (!frontier.empty()) {
    if (seen.size() >= max_states) {
      out.complete = false;
      break;
    }
    State s = std::move(frontier.front());
    frontier.pop_front();
    expand(std::as_const(s), visit);
  }
  out.total_configs = seen.size();
  if constexpr (separate_shared) {
    out.shared_configs = shared_seen.size();
  } else {
    out.shared_configs = seen.size();
  }
  return out;
}

}  // namespace detect::theory
