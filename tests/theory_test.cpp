// Theory harness tests: Theorem 1 configuration counting, Definition 3
// certificates (Lemmas 3-8), and the Theorem 2 Figure-2 schedule outcomes.
#include <gtest/gtest.h>

#include <stdexcept>

#include "theory/aux_necessity.hpp"
#include "theory/cas_model.hpp"
#include "theory/perturbing.hpp"
#include "theory/rw_model.hpp"

namespace {

using namespace detect;
using theory::abstract_op;

// ---- Theorem 1 / E2 ---------------------------------------------------------

TEST(cas_model, bound_helper) {
  EXPECT_EQ(theory::theorem1_bound(1), 1u);
  EXPECT_EQ(theory::theorem1_bound(4), 15u);
  EXPECT_EQ(theory::theorem1_bound(10), 1023u);
}

TEST(cas_model, bfs_meets_lower_bound_small_n) {
  // Exact (total, shared) counts: any drift means the model or the BFS
  // engine changed.
  const std::uint64_t pinned[][2] = {{438, 4}, {821'392, 12}};
  for (int n = 1; n <= 2; ++n) {
    auto c = theory::bfs_configurations(n, n + 1);
    EXPECT_TRUE(c.complete) << "N=" << n;
    EXPECT_GE(c.shared_configs, theory::theorem1_bound(n)) << "N=" << n;
    EXPECT_GE(c.total_configs, c.shared_configs);
    EXPECT_EQ(c.total_configs, pinned[n - 1][0]) << "N=" << n;
    EXPECT_EQ(c.shared_configs, pinned[n - 1][1]) << "N=" << n;
  }
}

TEST(cas_model, capped_bfs_stops_at_the_cap) {
  auto c = theory::bfs_configurations(2, 3, 1000);
  EXPECT_FALSE(c.complete);
  EXPECT_EQ(c.total_configs, 1000u);
  EXPECT_EQ(c.shared_configs, 4u);
}

TEST(cas_model, rejects_out_of_range_arguments) {
  EXPECT_THROW(theory::bfs_configurations(0, 2), std::invalid_argument);
  EXPECT_THROW(theory::bfs_configurations(9, 2), std::invalid_argument);
  EXPECT_THROW(theory::quiescent_reachability(25, 2), std::invalid_argument);
  EXPECT_THROW(theory::gray_code_walk(31, 2), std::invalid_argument);
  // The value domain: 2..127 for every entry point (values are int8 cells
  // in the full model; a zero domain used to divide by zero).
  for (int domain : {0, 1, 128}) {
    EXPECT_THROW(theory::bfs_configurations(1, domain), std::invalid_argument)
        << "domain=" << domain;
    EXPECT_THROW(theory::quiescent_reachability(2, domain),
                 std::invalid_argument)
        << "domain=" << domain;
    EXPECT_THROW(theory::gray_code_walk(2, domain), std::invalid_argument)
        << "domain=" << domain;
    EXPECT_THROW(theory::gray_code_walk(10, domain), std::invalid_argument)
        << "domain=" << domain;
  }
  EXPECT_EQ(theory::quiescent_reachability(1, 127).shared_configs, 254u);
}

TEST(cas_model, bfs_shared_count_matches_quiescent_analysis) {
  // The full model and the quiescent-graph abstraction must agree on the set
  // of reachable shared states for small N (same operation universe).
  for (int n = 1; n <= 2; ++n) {
    auto full = theory::bfs_configurations(n, n + 1);
    auto quiescent = theory::quiescent_reachability(n, n + 1);
    ASSERT_TRUE(full.complete);
    EXPECT_EQ(full.shared_configs, quiescent.shared_configs) << "N=" << n;
  }
}

TEST(cas_model, quiescent_reachability_is_value_times_vectors) {
  for (int n : {1, 2, 4, 8, 12}) {
    auto c = theory::quiescent_reachability(n, n + 1);
    EXPECT_EQ(c.shared_configs,
              static_cast<std::uint64_t>(n + 1) * (std::uint64_t{1} << n))
        << "N=" << n;
    EXPECT_GE(c.shared_configs, theory::theorem1_bound(n));
    EXPECT_EQ(c.total_configs, c.shared_configs) << "N=" << n;
    EXPECT_TRUE(c.complete);
  }
}

TEST(cas_model, gray_code_walk_witnesses_the_bound) {
  for (int n : {1, 2, 4, 6, 10, 16}) {
    std::uint64_t visited = theory::gray_code_walk(n, n + 1);
    EXPECT_GE(visited, theory::theorem1_bound(n)) << "N=" << n;
  }
  // The faithful model (N <= 8) and the direct emulation (N > 8) both visit
  // exactly 2^N shared states.
  EXPECT_EQ(theory::gray_code_walk(4, 5), 16u);
  EXPECT_EQ(theory::gray_code_walk(10, 11), 1024u);
}

// ---- Algorithm 1 model / E9 ---------------------------------------------------

TEST(rw_model, full_bfs_covers_quiescent_states_for_n1) {
  // The full model also visits mid-operation shared states (e.g. a cleared
  // toggle bit before the closing for-loop), so its shared count dominates
  // the quiescent-boundary count.
  auto full = theory::rw_bfs_configurations(1, 2, 2'000'000);
  auto quiescent = theory::rw_quiescent_reachability(1, 2);
  ASSERT_TRUE(full.complete);
  EXPECT_GE(full.shared_configs, quiescent.shared_configs);
  EXPECT_EQ(full.total_configs, 943u);
  EXPECT_EQ(full.shared_configs, 14u);
}

TEST(rw_model, reachable_counts_grow_with_n) {
  auto q1 = theory::rw_quiescent_reachability(1, 2);
  auto q2 = theory::rw_quiescent_reachability(2, 2);
  auto q3 = theory::rw_quiescent_reachability(3, 2);
  EXPECT_LT(q1.shared_configs, q2.shared_configs);
  EXPECT_LT(q2.shared_configs, q3.shared_configs);
  EXPECT_EQ(q2.shared_configs, 49u);
  EXPECT_EQ(q3.shared_configs, 481u);
}

TEST(rw_model, rejects_out_of_range_arguments) {
  EXPECT_THROW(theory::rw_bfs_configurations(0, 2), std::invalid_argument);
  EXPECT_THROW(theory::rw_bfs_configurations(4, 2), std::invalid_argument);
  EXPECT_THROW(theory::rw_quiescent_reachability(4, 2), std::invalid_argument);
  // The value domain: 2..255 for both entry points (written values are
  // uint8 cells; a domain of 300 used to wrap silently).
  for (int domain : {0, 1, 256, 300}) {
    EXPECT_THROW(theory::rw_bfs_configurations(1, domain),
                 std::invalid_argument)
        << "domain=" << domain;
    EXPECT_THROW(theory::rw_quiescent_reachability(1, domain),
                 std::invalid_argument)
        << "domain=" << domain;
  }
}

TEST(rw_model, reachable_far_below_budget) {
  // Algorithm 1 budgets 2N² bits of toggle state; its reachable shared-state
  // count stays far below 2^(2N²) — the data point behind the paper's open
  // problem on read/write space bounds.
  auto q3 = theory::rw_quiescent_reachability(3, 2);
  EXPECT_LT(q3.shared_configs, std::uint64_t{1} << 18)
      << "N=3 budget is 2*9=18 toggle bits";
}

TEST(rw_model, full_bfs_n2_within_cap) {
  // The name predates the exact pins below: the N=2 state space is larger
  // than either cap, so the search stops there and reports itself
  // incomplete. The cap is checked before each pop, so the last expansion
  // may overshoot it (by one state at 6,000,000, by none at 1000).
  auto c = theory::rw_bfs_configurations(2, 2, 6'000'000);
  EXPECT_GE(c.shared_configs, 4u);
  EXPECT_GE(c.total_configs, c.shared_configs);
  EXPECT_FALSE(c.complete);
  EXPECT_EQ(c.total_configs, 6'000'001u);
  EXPECT_EQ(c.shared_configs, 964u);

  auto small = theory::rw_bfs_configurations(2, 2, 1000);
  EXPECT_FALSE(small.complete);
  EXPECT_EQ(small.total_configs, 1000u);
  EXPECT_EQ(small.shared_configs, 12u);
}

// ---- Definition 3 / E4 ------------------------------------------------------

TEST(perturbing, register_witness_lemma3) {
  auto w = theory::register_witness();
  auto c = theory::check_witness(hist::register_spec(0), w);
  EXPECT_TRUE(c.ok) << c.detail;
}

TEST(perturbing, counter_witness_lemma5) {
  auto w = theory::counter_witness();
  auto c = theory::check_witness(hist::counter_spec(0), w);
  EXPECT_TRUE(c.ok) << c.detail;
}

TEST(perturbing, bounded_counter_is_doubly_perturbing) {
  auto w = theory::counter_witness();
  auto c = theory::check_witness(hist::counter_spec(0, 2), w);
  EXPECT_TRUE(c.ok) << c.detail;
}

TEST(perturbing, cas_witness_lemma6) {
  auto w = theory::cas_witness();
  auto c = theory::check_witness(hist::cas_spec(0), w);
  EXPECT_TRUE(c.ok) << c.detail;
}

TEST(perturbing, faa_witness_lemma7) {
  auto w = theory::faa_witness();
  auto c = theory::check_witness(hist::counter_spec(0), w);
  EXPECT_TRUE(c.ok) << c.detail;
}

TEST(perturbing, queue_witness_lemma8) {
  auto w = theory::queue_witness();
  auto c = theory::check_witness(hist::queue_spec(), w);
  EXPECT_TRUE(c.ok) << c.detail;
}

TEST(perturbing, max_register_has_no_witness_lemma4) {
  std::vector<abstract_op> universe;
  for (int pid : {0, 1}) {
    for (hist::value_t v : {1, 2, 3}) {
      universe.push_back({pid, hist::opcode::max_write, v, 0});
    }
    universe.push_back({pid, hist::opcode::max_read, 0, 0});
  }
  auto res = theory::search_witness(hist::max_register_spec(0), universe,
                                    /*max_h1=*/2, /*max_ext=*/2);
  EXPECT_FALSE(res.found) << "unexpected witness: " << res.witness.to_string();
  EXPECT_GT(res.explored, 1000u);
}

TEST(perturbing, register_witness_found_by_search) {
  std::vector<abstract_op> universe;
  for (int pid : {0, 1}) {
    universe.push_back({pid, hist::opcode::reg_write, 0, 0});
    universe.push_back({pid, hist::opcode::reg_write, 1, 0});
    universe.push_back({pid, hist::opcode::reg_read, 0, 0});
  }
  auto res = theory::search_witness(hist::register_spec(0), universe, 1, 2);
  EXPECT_TRUE(res.found);
  auto check = theory::check_witness(hist::register_spec(0), res.witness);
  EXPECT_TRUE(check.ok) << check.detail;
}

TEST(perturbing, successive_perturb_counts) {
  abstract_op inc{0, hist::opcode::ctr_add, 1, 0};
  abstract_op read{1, hist::opcode::ctr_read, 0, 0};
  // Unbounded counter: every increment perturbs the next read.
  EXPECT_EQ(theory::count_successive_perturbs(hist::counter_spec(0), {}, inc,
                                              read, 10),
            10);
  // Bounded counter {0,1,2}: at most 2 perturbations, then saturation.
  EXPECT_EQ(theory::count_successive_perturbs(hist::counter_spec(0, 2), {}, inc,
                                              read, 10),
            2);
  // Max register: the same write perturbs at most once.
  abstract_op wmax{0, hist::opcode::max_write, 5, 0};
  abstract_op mread{1, hist::opcode::max_read, 0, 0};
  EXPECT_EQ(theory::count_successive_perturbs(hist::max_register_spec(0), {},
                                              wmax, mread, 10),
            1);
}

TEST(perturbing, same_process_probe_is_not_perturbing) {
  abstract_op w{0, hist::opcode::reg_write, 1, 0};
  abstract_op r_same{0, hist::opcode::reg_read, 0, 0};
  EXPECT_FALSE(theory::is_perturbing_after(hist::register_spec(0), {}, w, r_same))
      << "Definition 3 requires Op' by a different process";
}

// ---- Theorem 2 / E3 ---------------------------------------------------------

// The full Figure-2 outcome matrix: every scenario on both branches.
//  * D-branch (crash just before the first Opp returns): the stale response
//    is the right answer, so every recovery says "linearized" and no history
//    is rejected — which is why the branches are indistinguishable to p.
//  * E-branch without auxiliary state (stripped_*): the recovery of the
//    fresh, never-executed invocation wrongly claims "linearized" and the
//    probe contradicts it — Theorem 2's violation, for each doubly-perturbing
//    object (Lemmas 3, 5, 6, 8).
//  * E-branch with the caller's CP/resp resets: recovery correctly fails.
//  * The max register is not doubly-perturbing (Lemma 4): no violation even
//    with no auxiliary state.
TEST(aux_necessity, figure2_outcome_matrix) {
  using hist::recovery_verdict;
  constexpr hist::value_t bot = hist::k_bottom;
  struct expected {
    bool violation;
    recovery_verdict verdict;
    hist::value_t recovered_value;
    hist::value_t probe_response;
  };
  struct row {
    theory::aux_scenario scenario;
    expected d, e;
  };
  const row rows[] = {
      {theory::register_scenario(false),
       {false, recovery_verdict::linearized, 0, 0},
       {false, recovery_verdict::fail, bot, 0}},
      {theory::register_scenario(true),
       {false, recovery_verdict::linearized, 0, 0},
       {true, recovery_verdict::linearized, 0, 0}},
      {theory::cas_scenario(false),
       {false, recovery_verdict::linearized, 1, 1},
       {false, recovery_verdict::fail, bot, 1}},
      {theory::cas_scenario(true),
       {false, recovery_verdict::linearized, 1, 1},
       {true, recovery_verdict::linearized, 1, 1}},
      {theory::queue_scenario(false),
       {false, recovery_verdict::linearized, 10, 10},
       {false, recovery_verdict::fail, bot, 10}},
      {theory::queue_scenario(true),
       {false, recovery_verdict::linearized, 10, 10},
       {true, recovery_verdict::linearized, 10, 10}},
      {theory::counter_scenario(false),
       {false, recovery_verdict::linearized, 0, 1},
       {false, recovery_verdict::fail, bot, 1}},
      {theory::counter_scenario(true),
       {false, recovery_verdict::linearized, 0, 1},
       {true, recovery_verdict::linearized, 0, 1}},
      {theory::max_register_scenario(),
       {false, recovery_verdict::linearized, 0, 5},
       {false, recovery_verdict::linearized, 0, 5}},
  };
  for (const row& r : rows) {
    for (bool e_branch : {false, true}) {
      SCOPED_TRACE(r.scenario.name + (e_branch ? " E-branch" : " D-branch"));
      const expected& want = e_branch ? r.e : r.d;
      auto out = e_branch ? theory::run_e_branch(r.scenario)
                          : theory::run_d_branch(r.scenario);
      EXPECT_EQ(out.violation, want.violation) << out.detail;
      EXPECT_EQ(out.verdict, want.verdict);
      EXPECT_EQ(out.recovered_value, want.recovered_value);
      EXPECT_EQ(out.probe_response, want.probe_response);
      EXPECT_EQ(out.detail.empty(), !want.violation);
    }
  }
}

}  // namespace
