// detect::sched — pluggable schedule-exploration strategies for the
// simulated world.
//
// Every fuzz iteration used to explore interleavings through one uniform
// `sim::random_scheduler`. This layer turns the scheduling policy into a
// first-class, serializable knob:
//
//   * round_robin    — deterministic rotation (the unseeded default).
//   * uniform_random — each step picks uniformly among runnable processes
//     (the historical seeded behavior, refactored behind the interface).
//   * pct            — probabilistic concurrency testing (Burckhardt et al.):
//     every process gets a random priority from the seed stream and the
//     highest-priority runnable process runs; at each of d preemption points
//     (explicit global step numbers) the running process is demoted below
//     everyone else. A bug that needs d carefully placed preemptions is hit
//     with probability ~1/(n·k^d) per seed — far better than uniform random,
//     whose chance of sustaining d long adversarial gaps decays
//     exponentially.
//
// The preemption points are materialized in `sched_policy` (not re-derived
// from the seed at run time) so replays are self-contained and the shrinker
// can canonicalize a repro by dropping points one at a time.
//
// Exhaustive search is one more strategy on the same loop: a `choice_path`
// is both the scheduler and the crash plan of a `world::run`, replaying a
// prefix of decisions, and `explore` enumerates every path by backtracking
// DFS (see below). Drain pseudo-pids under tso/pso are candidates like any
// process, so the search covers relaxed visibility with no extra code.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/world.hpp"

namespace detect::sched {

enum class strategy : std::uint8_t { round_robin, uniform_random, pct };

/// Stable wire name ("round_robin", "uniform_random", "pct").
const char* strategy_name(strategy s) noexcept;

/// Inverse of strategy_name. Empty optional for unknown names.
std::optional<strategy> strategy_from_name(const std::string& name) noexcept;

/// The serializable schedule-exploration choice of one execution: which
/// strategy, and (for pct) the explicit preemption points. The seed itself is
/// not part of the policy — it stays the scenario's `sched_seed`, shared by
/// every strategy.
struct sched_policy {
  strategy strat = strategy::uniform_random;
  /// Global step numbers at which pct demotes the running process. Ignored
  /// by the other strategies. Kept sorted by parse()/draw_pct_points().
  std::vector<std::uint64_t> pct_points;

  /// "pct 12 45" / "uniform_random" — the scripted_scenario v5 `sched` value.
  std::string to_string() const;
  /// Inverse of to_string(). Throws std::invalid_argument on unknown
  /// strategy names, malformed points, or points on a non-pct strategy.
  static sched_policy parse(const std::string& text);

  bool operator==(const sched_policy&) const = default;
};

/// Draw `depth` preemption points from the xorshift seed stream, uniformly
/// over steps [1, horizon]; returned sorted and deduplicated (so the
/// effective budget can come out below `depth` on collisions, exactly like
/// the PCT paper's with-replacement sampling).
std::vector<std::uint64_t> draw_pct_points(std::uint64_t seed, int depth,
                                           std::uint64_t horizon);

/// PCT scheduler over sim::scheduler::pick(). Priorities are assigned lazily
/// (first time a pid shows up runnable) from the seed stream; at each
/// preemption point the currently-preferred runnable process drops below
/// every priority handed out so far.
class pct_scheduler final : public sim::scheduler {
 public:
  pct_scheduler(std::uint64_t seed, std::vector<std::uint64_t> points);

  int pick(const std::vector<int>& runnable, std::uint64_t step_no) override;
  std::string describe() const override;

  /// Preemption points actually applied so far (≤ the configured budget).
  std::uint64_t preemptions_applied() const noexcept { return applied_; }

 private:
  std::int64_t priority_of(int pid);
  int top_runnable(const std::vector<int>& runnable);

  std::uint64_t state_;
  std::uint64_t seed_;
  std::vector<std::uint64_t> points_;
  std::size_t next_point_ = 0;
  std::uint64_t applied_ = 0;
  std::map<int, std::int64_t> prio_;
  std::int64_t demote_floor_ = -1;
};

/// Instantiate the scheduler a policy describes. `seed` is the scenario's
/// sched_seed; absent, uniform_random degrades to round robin — the
/// historical contract of harness::builder (only .seed() selects the random
/// scheduler).
std::unique_ptr<sim::scheduler> make_scheduler(
    const sched_policy& policy, std::optional<std::uint64_t> seed);

// ---------------------------------------------------------------------------
// Bounded exhaustive exploration.
//
// The simulator is deterministic given its sequence of choices, so a DFS
// over choice sequences visits each distinct schedule exactly once. Full
// interleaving exploration is exponential in the step count, so the search
// supports *preemption bounding* (Musuvathi & Qadeer's CHESS discipline): a
// switch away from a candidate that could still run consumes one unit of a
// preemption budget; switches where the current one blocked or finished are
// free. Most concurrency bugs, including every recovery bug the paper's
// constructions guard against, need only one or two preemptions.
//
// At every decision the options are, in order: keep running the current
// candidate, switch to another one (budget permitting), or deliver a
// system-wide crash (its own budget; crashes consume no preemptions).

struct explore_config {
  int max_crashes = 0;       // crash placements to enumerate per run
  int max_preemptions = -1;  // CHESS bound; -1 = unbounded (full exploration)
  std::uint64_t max_runs = 5'000'000;
};

/// One decision of a run: the option taken and how many there were.
struct choice {
  int index = 0;
  int width = 0;

  bool operator==(const choice&) const = default;
};

/// Scheduler and crash plan of one explored run. Replays `prefix`, then
/// takes option 0 at every new decision, recording each decision's width.
/// The crash option is always last, so option 0 is never a crash; a replayed
/// crash is taken in should_crash() before the world asks pick(). pick()
/// throws std::logic_error when a replayed decision's width differs (the
/// scenario is not deterministic) or its index is out of range.
class choice_path final : public sim::scheduler, public sim::crash_plan {
 public:
  explicit choice_path(const explore_config& cfg,
                       std::vector<choice> prefix = {});

  int pick(const std::vector<int>& runnable, std::uint64_t step_no) override;
  bool should_crash(std::uint64_t step_no) override;
  std::string describe() const override;

  /// Every decision taken so far (the replayed prefix included).
  const std::vector<choice>& decisions() const noexcept { return path_; }

 private:
  int max_crashes_;
  int max_preemptions_;
  std::vector<choice> path_;
  std::size_t depth_ = 0;
  int crashes_used_ = 0;
  int preemptions_used_ = 0;
  int current_ = -1;  // candidate stepped last; -1 = none (start/post-crash)
};

/// What one explored run reports: the world's run report (a run that hit
/// the step limit is pruned, not judged) and its violation, empty if none.
struct run_verdict {
  sim::run_report report;
  std::string failure;
};

struct explore_result {
  std::uint64_t runs = 0;
  std::uint64_t pruned = 0;
  bool complete = false;  // whole (bounded) tree visited within max_runs
  bool failed = false;
  std::string failure;               // first violation, with its decision path
  std::vector<choice> failing_path;  // replays the violation in a choice_path
};

/// Enumerate every run of a scenario. `run_one` builds the scenario afresh,
/// drives it with `world::run(path, &path)` (or `harness::run(path, &path)`)
/// and judges the outcome; the search stops at the first failure.
explore_result explore(const explore_config& cfg,
                       const std::function<run_verdict(choice_path&)>& run_one);

}  // namespace detect::sched
