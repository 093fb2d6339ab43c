// Tests for the deterministic simulator: step-token serialization, crash
// delivery/unwinding, scheduler policies, and exhaustive exploration.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>

#include "nvm/pcell.hpp"
#include "sched/strategy.hpp"
#include "sim/world.hpp"

namespace {

using namespace detect;

TEST(world, single_process_task_runs_to_completion) {
  sim::world w(1);
  nvm::pcell<int> c(0, w.domain());
  w.submit(0, [&] {
    c.store(1);
    c.store(2);
  });
  sim::round_robin_scheduler rr;
  auto rep = w.run(rr);
  EXPECT_EQ(c.peek(), 2);
  EXPECT_EQ(rep.steps, 2u);
}

TEST(world, steps_serialize_memory_accesses) {
  sim::world w(2);
  nvm::pcell<int> c(0, w.domain());
  // Two incrementers; each load/CAS is one step. With the step token, the
  // interleaving is controlled and the final value is deterministic per
  // schedule.
  auto incr = [&] {
    for (int i = 0; i < 10; ++i) {
      for (;;) {
        int cur = c.load();
        if (c.compare_exchange(cur, cur + 1)) break;
      }
    }
  };
  w.submit(0, incr);
  w.submit(1, incr);
  sim::round_robin_scheduler rr;
  w.run(rr);
  EXPECT_EQ(c.peek(), 20);
}

TEST(world, deterministic_replay_same_seed) {
  auto run_once = [](std::uint64_t seed) {
    sim::world w(3);
    nvm::pcell<int> c(0, w.domain());
    for (int p = 0; p < 3; ++p) {
      w.submit(p, [&c, p] {
        for (int i = 0; i < 5; ++i) {
          int cur = c.load();
          c.store(cur * 3 + p);
        }
      });
    }
    sim::random_scheduler sched(seed);
    w.run(sched);
    return c.peek();
  };
  int a = run_once(12345);
  int b = run_once(12345);
  int d = run_once(54321);
  EXPECT_EQ(a, b) << "same seed must replay identically";
  (void)d;  // different seed may or may not differ; only determinism matters
}

TEST(world, manual_stepping_controls_interleaving) {
  sim::world w(2);
  nvm::pcell<int> c(0, w.domain());
  w.submit(0, [&] { c.store(1); });
  w.submit(1, [&] { c.store(2); });
  // Step p1 first, then p0: final value must be p0's.
  w.step(1);
  w.step(0);
  EXPECT_FALSE(w.busy());
  EXPECT_EQ(c.peek(), 1);
}

TEST(world, crash_unwinds_inflight_tasks) {
  sim::world w(1);
  nvm::pcell<int> c(0, w.domain());
  std::atomic<bool> reached_end{false};
  w.submit(0, [&] {
    c.store(1);
    c.store(2);
    reached_end = true;
  });
  w.step(0);  // performs store(1); parked before store(2)
  w.crash();
  EXPECT_FALSE(reached_end.load());
  EXPECT_TRUE(w.last_task_interrupted(0));
  EXPECT_EQ(c.peek(), 1) << "private-cache NVM keeps the first store";
  EXPECT_FALSE(w.busy());
}

TEST(world, crash_reverts_unflushed_shared_cache_state) {
  sim::world w(1);
  w.domain().set_model(nvm::cache_model::shared_cache);
  nvm::pcell<int> c(0, w.domain());
  w.domain().persist_all();
  w.submit(0, [&] {
    c.store(1);
    c.store(2);
  });
  w.step(0);
  w.crash();
  EXPECT_EQ(c.peek(), 0) << "nothing was flushed; cache reverts";
}

TEST(world, task_exception_propagates_to_driver) {
  sim::world w(1);
  nvm::pcell<int> c(0, w.domain());
  w.submit(0, [&] {
    c.load();
    throw std::runtime_error("boom");
  });
  sim::round_robin_scheduler rr;
  EXPECT_THROW(w.run(rr), std::runtime_error);
}

TEST(world, pending_access_reports_kind) {
  sim::world w(1);
  nvm::pcell<int> c(0, w.domain());
  w.submit(0, [&] {
    c.load();
    c.store(1);
  });
  EXPECT_EQ(w.pending_access(0), nvm::access::shared_load);
  w.step(0);
  EXPECT_EQ(w.pending_access(0), nvm::access::shared_store);
  w.step(0);
  EXPECT_FALSE(w.busy());
}

TEST(world, step_limit_guard) {
  sim::world_config cfg;
  cfg.max_steps = 50;
  sim::world w(1, cfg);
  nvm::pcell<int> c(0, w.domain());
  w.submit(0, [&] {
    for (;;) c.load();  // livelock on purpose
  });
  sim::round_robin_scheduler rr;
  auto rep = w.run(rr);
  EXPECT_TRUE(rep.hit_step_limit);
}

TEST(world, submit_to_busy_process_throws) {
  sim::world w(1);
  nvm::pcell<int> c(0, w.domain());
  w.submit(0, [&] { c.load(); });
  EXPECT_THROW(w.submit(0, [] {}), std::logic_error);
  w.step(0);  // drain
}

TEST(world, step_non_runnable_throws) {
  sim::world w(2);
  EXPECT_THROW(w.step(0), std::logic_error);
}

TEST(world, pending_access_requires_yielded_process) {
  sim::world w(1);
  EXPECT_THROW(w.pending_access(0), std::logic_error);
}

TEST(world, nprocs_validation) {
  EXPECT_THROW(sim::world(0), std::invalid_argument);
}

TEST(world, crash_with_no_tasks_is_a_memory_event_only) {
  sim::world w(2);
  w.domain().set_model(nvm::cache_model::shared_cache);
  nvm::pcell<int> c(0, w.domain());
  c.store(5);  // unflushed
  w.crash();
  EXPECT_EQ(c.peek(), 0);
  EXPECT_EQ(w.domain().counters().snapshot().crashes, 1u);
}

TEST(world, epoch_advances_on_every_crash) {
  sim::world w(1);
  EXPECT_EQ(w.epoch(), 1u);
  w.crash();
  w.crash();
  EXPECT_EQ(w.epoch(), 3u) << "the system advances the epoch per crash";
}

TEST(world, epoch_survives_shared_cache_crash) {
  sim::world w(1);
  w.domain().set_model(nvm::cache_model::shared_cache);
  w.crash();
  EXPECT_EQ(w.epoch(), 2u) << "the epoch write is explicitly flushed";
  w.crash();
  EXPECT_EQ(w.epoch(), 3u);
}

TEST(world, epoch_readable_by_simulated_processes) {
  sim::world w(1);
  w.crash();
  std::uint64_t seen = 0;
  w.submit(0, [&] { seen = w.epoch_cell().load(); });
  sim::round_robin_scheduler rr;
  w.run(rr);
  EXPECT_EQ(seen, 2u);
}

TEST(scheduler, round_robin_cycles) {
  sim::round_robin_scheduler rr;
  std::vector<int> ready{3, 5, 9};
  EXPECT_EQ(rr.pick(ready, 0), 3);
  EXPECT_EQ(rr.pick(ready, 1), 5);
  EXPECT_EQ(rr.pick(ready, 2), 9);
  EXPECT_EQ(rr.pick(ready, 3), 3);
}

TEST(scheduler, scripted_follows_script_then_falls_back) {
  sim::scripted_scheduler s({1, 1, 0});
  std::vector<int> ready{0, 1};
  EXPECT_EQ(s.pick(ready, 0), 1);
  EXPECT_EQ(s.pick(ready, 1), 1);
  EXPECT_EQ(s.pick(ready, 2), 0);
  EXPECT_EQ(s.pick(ready, 3), 0) << "exhausted script falls back to lowest";
}

TEST(crash_plan, at_steps_fires_once_each) {
  sim::crash_at_steps plan({2, 2, 5});
  EXPECT_FALSE(plan.should_crash(1));
  EXPECT_TRUE(plan.should_crash(2));
  EXPECT_TRUE(plan.should_crash(2)) << "duplicate entry fires again";
  EXPECT_FALSE(plan.should_crash(2));
  EXPECT_TRUE(plan.should_crash(5));
  EXPECT_FALSE(plan.should_crash(5));
}

// ---- exhaustive exploration ------------------------------------------------

// Two non-atomic increments of one cell on a fresh world, run under `path`;
// a final value outside [lo, hi] is the violation.
sched::run_verdict racy_increments(sched::choice_path& path, int lo, int hi,
                                   sim::world_config cfg = {}) {
  sim::world w(2, cfg);
  nvm::pcell<int> c(0, w.domain());
  auto task = [&] {
    int cur = c.load();
    c.store(cur + 1);
  };
  w.submit(0, task);
  w.submit(1, task);
  sim::run_report rep = w.run(path, &path);
  int v = c.peek();
  return {rep, v < lo || v > hi ? "final value " + std::to_string(v) : ""};
}

TEST(explorer, enumerates_all_interleavings_of_racy_increment) {
  // Two non-atomic increments: 1 and 2 are both reachable, nothing else.
  auto res = sched::explore({}, [](sched::choice_path& p) {
    return racy_increments(p, 1, 2);
  });
  EXPECT_TRUE(res.complete);
  EXPECT_FALSE(res.failed) << res.failure;
  // Interleavings of 2 sequences of 2 steps each: C(4,2) = 6 schedules.
  EXPECT_EQ(res.runs, 6u);
}

TEST(explorer, detects_a_violation_and_reports_path) {
  auto lost_update = [](sched::choice_path& p) {
    return racy_increments(p, 2, 2);
  };
  auto res = sched::explore({}, lost_update);
  ASSERT_TRUE(res.failed);
  ASSERT_FALSE(res.failing_path.empty());
  EXPECT_NE(res.failure.find("final value 1"), std::string::npos)
      << res.failure;
  // The reported path alone reproduces the violation, decision for decision.
  sched::choice_path replay({}, res.failing_path);
  EXPECT_EQ(lost_update(replay).failure, "final value 1");
  EXPECT_EQ(replay.decisions(), res.failing_path);
}

TEST(explorer, crash_options_expand_the_tree) {
  // Crash-tolerant variant: an unwound increment may simply be lost, so any
  // final value in {0, 1, 2} is legal.
  auto crashable = [](sched::choice_path& p) {
    return racy_increments(p, 0, 2);
  };
  sched::explore_config with_crash;
  with_crash.max_crashes = 1;
  auto res_crash = sched::explore(with_crash, crashable);
  auto res_plain = sched::explore({}, crashable);
  EXPECT_TRUE(res_crash.complete);
  EXPECT_FALSE(res_crash.failed) << res_crash.failure;
  EXPECT_EQ(res_plain.runs, 6u);
  EXPECT_EQ(res_crash.runs, 19u) << "6 crash-free runs + 13 crash placements";
  with_crash.max_preemptions = 0;
  auto res_bounded = sched::explore(with_crash, crashable);
  EXPECT_TRUE(res_bounded.complete);
  EXPECT_EQ(res_bounded.runs, 9u);
}

TEST(explorer, preemption_bound_shrinks_the_tree) {
  auto legal = [](sched::choice_path& p) { return racy_increments(p, 1, 2); };
  auto full = sched::explore({}, legal);
  sched::explore_config bounded;
  bounded.max_preemptions = 0;
  auto zero = sched::explore(bounded, legal);
  EXPECT_TRUE(full.complete);
  EXPECT_TRUE(zero.complete);
  EXPECT_EQ(full.runs, 6u) << "all interleavings of 2x2 steps";
  EXPECT_EQ(zero.runs, 2u) << "0 preemptions = the two sequential orders";
  EXPECT_FALSE(zero.failed) << zero.failure;
}

TEST(explorer, step_limit_prunes_a_run_instead_of_judging_it) {
  // The world's step limit bounds the search depth: every run stops after 2
  // of its 4 steps with the counter below 2, and none of them is judged.
  sim::world_config cfg;
  cfg.max_steps = 2;
  auto res = sched::explore({}, [&](sched::choice_path& p) {
    return racy_increments(p, 2, 2, cfg);
  });
  EXPECT_TRUE(res.complete);
  EXPECT_FALSE(res.failed) << res.failure;
  EXPECT_EQ(res.runs, 4u) << "two decisions of two options each";
  EXPECT_EQ(res.pruned, 4u);
}

TEST(explorer, replay_rejects_a_path_whose_widths_changed) {
  sched::choice_path bogus({}, {{0, 5}});
  EXPECT_THROW(racy_increments(bogus, 1, 2), std::logic_error);
}

}  // namespace
