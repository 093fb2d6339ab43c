#include "sched/strategy.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace detect::sched {

const char* strategy_name(strategy s) noexcept {
  switch (s) {
    case strategy::round_robin:
      return "round_robin";
    case strategy::uniform_random:
      return "uniform_random";
    case strategy::pct:
      return "pct";
  }
  return "unknown";
}

std::optional<strategy> strategy_from_name(const std::string& name) noexcept {
  if (name == "round_robin") return strategy::round_robin;
  if (name == "uniform_random") return strategy::uniform_random;
  if (name == "pct") return strategy::pct;
  return std::nullopt;
}

std::string sched_policy::to_string() const {
  std::string out = strategy_name(strat);
  for (std::uint64_t p : pct_points) out += " " + std::to_string(p);
  return out;
}

sched_policy sched_policy::parse(const std::string& text) {
  std::istringstream in(text);
  std::string name;
  if (!(in >> name)) {
    throw std::invalid_argument("sched_policy: empty strategy");
  }
  std::optional<strategy> s = strategy_from_name(name);
  if (!s) {
    throw std::invalid_argument("sched_policy: unknown strategy '" + name +
                                "'");
  }
  sched_policy out;
  out.strat = *s;
  std::string tok;
  while (in >> tok) {
    if (out.strat != strategy::pct) {
      throw std::invalid_argument(
          "sched_policy: preemption points only apply to pct");
    }
    std::size_t used = 0;
    std::uint64_t v = 0;
    try {
      v = std::stoull(tok, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    if (used != tok.size()) {
      throw std::invalid_argument("sched_policy: bad preemption point '" +
                                  tok + "'");
    }
    out.pct_points.push_back(v);
  }
  std::sort(out.pct_points.begin(), out.pct_points.end());
  out.pct_points.erase(
      std::unique(out.pct_points.begin(), out.pct_points.end()),
      out.pct_points.end());
  return out;
}

std::vector<std::uint64_t> draw_pct_points(std::uint64_t seed, int depth,
                                           std::uint64_t horizon) {
  if (horizon == 0) horizon = 1;
  std::uint64_t s = seed | 1;
  std::vector<std::uint64_t> out;
  out.reserve(static_cast<std::size_t>(depth > 0 ? depth : 0));
  for (int i = 0; i < depth; ++i) {
    out.push_back(1 + sim::next_rand(s) % horizon);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

pct_scheduler::pct_scheduler(std::uint64_t seed,
                             std::vector<std::uint64_t> points)
    : state_(seed | 1), seed_(seed), points_(std::move(points)) {
  std::sort(points_.begin(), points_.end());
}

std::int64_t pct_scheduler::priority_of(int pid) {
  auto it = prio_.find(pid);
  if (it != prio_.end()) return it->second;
  // Positive initial priorities; demotions go negative, so a demoted process
  // stays below every late arrival too.
  std::int64_t p = static_cast<std::int64_t>(sim::next_rand(state_) >> 1);
  prio_.emplace(pid, p);
  return p;
}

int pct_scheduler::top_runnable(const std::vector<int>& runnable) {
  int best = runnable.front();
  std::int64_t best_p = priority_of(best);
  for (std::size_t i = 1; i < runnable.size(); ++i) {
    std::int64_t p = priority_of(runnable[i]);
    if (p > best_p) {
      best = runnable[i];
      best_p = p;
    }
  }
  return best;
}

int pct_scheduler::pick(const std::vector<int>& runnable,
                        std::uint64_t step_no) {
  while (next_point_ < points_.size() && points_[next_point_] <= step_no) {
    prio_[top_runnable(runnable)] = demote_floor_--;
    ++next_point_;
    ++applied_;
  }
  return top_runnable(runnable);
}

std::string pct_scheduler::describe() const {
  return "pct(seed=" + std::to_string(seed_) +
         ", budget=" + std::to_string(points_.size()) +
         ", applied=" + std::to_string(applied_) + ")";
}

std::unique_ptr<sim::scheduler> make_scheduler(
    const sched_policy& policy, std::optional<std::uint64_t> seed) {
  switch (policy.strat) {
    case strategy::round_robin:
      return std::make_unique<sim::round_robin_scheduler>();
    case strategy::uniform_random:
      if (seed) return std::make_unique<sim::random_scheduler>(*seed);
      return std::make_unique<sim::round_robin_scheduler>();
    case strategy::pct:
      return std::make_unique<pct_scheduler>(seed.value_or(0),
                                             policy.pct_points);
  }
  return std::make_unique<sim::round_robin_scheduler>();
}

choice_path::choice_path(const explore_config& cfg, std::vector<choice> prefix)
    : max_crashes_(cfg.max_crashes),
      max_preemptions_(cfg.max_preemptions),
      path_(std::move(prefix)) {}

bool choice_path::should_crash(std::uint64_t) {
  if (depth_ >= path_.size() || crashes_used_ >= max_crashes_) return false;
  const choice& c = path_[depth_];
  if (c.index != c.width - 1) return false;
  ++depth_;
  ++crashes_used_;
  current_ = -1;
  return true;
}

int choice_path::pick(const std::vector<int>& runnable, std::uint64_t) {
  // Options: continue current (if runnable) first, then free/preempting
  // switches to the other candidates in order, then (budget permitting) a
  // crash — which should_crash() has already declined at this decision.
  auto cur = std::find(runnable.begin(), runnable.end(), current_);
  bool switches_are_preemptions = cur != runnable.end();
  bool preempt_allowed =
      max_preemptions_ < 0 || preemptions_used_ < max_preemptions_;
  int width = switches_are_preemptions && !preempt_allowed
                  ? 1
                  : static_cast<int>(runnable.size());
  if (crashes_used_ < max_crashes_) ++width;

  if (depth_ == path_.size()) path_.push_back({0, width});
  const choice& c = path_[depth_++];
  if (c.width != width || c.index < 0 || c.index >= width) {
    throw std::logic_error(
        "choice_path: nondeterministic replay (option count changed)");
  }
  auto index = static_cast<std::size_t>(c.index);
  if (!switches_are_preemptions) {
    current_ = runnable[index];
  } else if (index != 0) {
    ++preemptions_used_;
    auto at = static_cast<std::size_t>(cur - runnable.begin());
    current_ = runnable[index - 1 < at ? index - 1 : index];
  }
  return current_;
}

std::string choice_path::describe() const {
  std::string s = "exhaustive(depth=" + std::to_string(depth_) +
                  ", crashes=" + std::to_string(crashes_used_) + "/" +
                  std::to_string(max_crashes_) + ", preemptions=" +
                  std::to_string(preemptions_used_);
  if (max_preemptions_ >= 0) s += "/" + std::to_string(max_preemptions_);
  return s + ")";
}

namespace {

std::string path_to_string(const std::vector<choice>& path) {
  std::string out;
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(path[i].index);
  }
  return out;
}

}  // namespace

explore_result explore(
    const explore_config& cfg,
    const std::function<run_verdict(choice_path&)>& run_one) {
  explore_result res;
  std::vector<choice> path;
  while (res.runs < cfg.max_runs) {
    ++res.runs;
    choice_path run(cfg, std::move(path));
    run_verdict v = run_one(run);
    path = run.decisions();
    if (v.report.hit_step_limit) {
      ++res.pruned;
    } else if (!v.failure.empty()) {
      res.failed = true;
      res.failure =
          v.failure + "\n(decision path: " + path_to_string(path) + ")";
      res.failing_path = std::move(path);
      return res;
    }
    // Backtrack to the deepest decision with an unexplored sibling.
    while (!path.empty() && path.back().index + 1 >= path.back().width) {
      path.pop_back();
    }
    if (path.empty()) {
      res.complete = true;
      return res;
    }
    ++path.back().index;
  }
  return res;
}

}  // namespace detect::sched
