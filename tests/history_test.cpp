// Tests for sequential specs, the linearizability checker, the
// durable-linearizability/detectability record builder, and the per-object
// partition every checker path starts from.
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/api.hpp"
#include "fuzz/scenario_gen.hpp"
#include "history/checker.hpp"
#include "history/linearizer.hpp"
#include "history/specs.hpp"

namespace {

using namespace detect;
using hist::k_ack;
using hist::k_bottom;
using hist::k_empty;
using hist::k_false;
using hist::k_npos;
using hist::k_true;
using hist::op_desc;
using hist::opcode;

op_desc mk(opcode c, hist::value_t a = 0, hist::value_t b = 0) {
  return {0, c, a, b, 0};
}

// ---- specs -------------------------------------------------------------------

TEST(specs, register_semantics) {
  hist::register_spec s(5);
  EXPECT_EQ(s.apply(mk(opcode::reg_read)), 5);
  EXPECT_EQ(s.apply(mk(opcode::reg_write, 9)), k_ack);
  EXPECT_EQ(s.apply(mk(opcode::reg_read)), 9);
}

TEST(specs, cas_semantics) {
  hist::cas_spec s(0);
  EXPECT_EQ(s.apply(mk(opcode::cas, 1, 2)), k_false);
  EXPECT_EQ(s.apply(mk(opcode::cas, 0, 2)), k_true);
  EXPECT_EQ(s.apply(mk(opcode::cas_read)), 2);
}

TEST(specs, counter_semantics_and_cap) {
  hist::counter_spec s(0, 2);
  EXPECT_EQ(s.apply(mk(opcode::ctr_add, 1)), 0);
  EXPECT_EQ(s.apply(mk(opcode::ctr_add, 1)), 1);
  EXPECT_EQ(s.apply(mk(opcode::ctr_add, 1)), 2);
  EXPECT_EQ(s.apply(mk(opcode::ctr_read)), 2) << "bounded counter saturates";
}

TEST(specs, tas_semantics) {
  hist::tas_spec s;
  EXPECT_EQ(s.apply(mk(opcode::tas_set)), 0);
  EXPECT_EQ(s.apply(mk(opcode::tas_set)), 1);
  EXPECT_EQ(s.apply(mk(opcode::tas_reset)), k_ack);
  EXPECT_EQ(s.apply(mk(opcode::tas_set)), 0);
}

TEST(specs, queue_fifo_and_empty) {
  hist::queue_spec s;
  EXPECT_EQ(s.apply(mk(opcode::deq)), k_empty);
  s.apply(mk(opcode::enq, 1));
  s.apply(mk(opcode::enq, 2));
  EXPECT_EQ(s.apply(mk(opcode::deq)), 1);
  EXPECT_EQ(s.apply(mk(opcode::deq)), 2);
  EXPECT_EQ(s.apply(mk(opcode::deq)), k_empty);
}

TEST(specs, max_register_semantics) {
  hist::max_register_spec s(0);
  s.apply(mk(opcode::max_write, 5));
  s.apply(mk(opcode::max_write, 3));
  EXPECT_EQ(s.apply(mk(opcode::max_read)), 5);
}

TEST(specs, clone_is_deep) {
  hist::queue_spec s;
  s.apply(mk(opcode::enq, 1));
  auto c = s.clone();
  s.apply(mk(opcode::enq, 2));
  EXPECT_EQ(c->apply(mk(opcode::deq)), 1);
  EXPECT_EQ(c->apply(mk(opcode::deq)), k_empty)
      << "clone must not see post-clone mutations";
}

// ---- linearizer ----------------------------------------------------------------

hist::op_record rec(int pid, op_desc d, std::size_t inv, std::size_t resp,
                    hist::value_t r) {
  hist::op_record o;
  o.pid = pid;
  o.desc = d;
  o.invoke_index = inv;
  o.response_index = resp;
  o.response = r;
  o.has_response = true;
  return o;
}

TEST(linearizer, sequential_history_accepts) {
  std::vector<hist::op_record> ops{
      rec(0, mk(opcode::reg_write, 1), 0, 1, k_ack),
      rec(1, mk(opcode::reg_read), 2, 3, 1),
  };
  auto r = hist::check_linearizable(ops, hist::register_spec(0));
  EXPECT_TRUE(r.linearizable) << r.error;
}

TEST(linearizer, stale_read_rejected) {
  std::vector<hist::op_record> ops{
      rec(0, mk(opcode::reg_write, 1), 0, 1, k_ack),
      rec(1, mk(opcode::reg_read), 2, 3, 0),  // must see 1
  };
  auto r = hist::check_linearizable(ops, hist::register_spec(0));
  EXPECT_FALSE(r.linearizable);
}

TEST(linearizer, concurrent_ops_may_order_either_way) {
  // write(1) concurrent with read: read may see 0 or 1.
  for (hist::value_t seen : {0, 1}) {
    std::vector<hist::op_record> ops{
        rec(0, mk(opcode::reg_write, 1), 0, 3, k_ack),
        rec(1, mk(opcode::reg_read), 1, 2, seen),
    };
    auto r = hist::check_linearizable(ops, hist::register_spec(0));
    EXPECT_TRUE(r.linearizable) << "seen=" << seen << "\n" << r.error;
  }
}

TEST(linearizer, optional_op_may_be_dropped) {
  hist::op_record pending = rec(0, mk(opcode::reg_write, 1), 0, k_npos, 0);
  pending.has_response = false;
  pending.optional = true;
  pending.response_index = k_npos;
  std::vector<hist::op_record> ops{
      pending,
      rec(1, mk(opcode::reg_read), 1, 2, 0),  // never saw the write
  };
  auto r = hist::check_linearizable(ops, hist::register_spec(0));
  EXPECT_TRUE(r.linearizable) << r.error;
}

TEST(linearizer, mandatory_op_cannot_be_dropped) {
  std::vector<hist::op_record> ops{
      rec(0, mk(opcode::reg_write, 1), 0, 1, k_ack),
      rec(1, mk(opcode::reg_read), 2, 3, 0),  // stale — write is mandatory
  };
  auto r = hist::check_linearizable(ops, hist::register_spec(0));
  EXPECT_FALSE(r.linearizable);
}

TEST(linearizer, cas_double_success_rejected) {
  std::vector<hist::op_record> ops{
      rec(0, mk(opcode::cas, 0, 1), 0, 1, k_true),
      rec(1, mk(opcode::cas, 0, 1), 2, 3, k_true),  // impossible
  };
  auto r = hist::check_linearizable(ops, hist::cas_spec(0));
  EXPECT_FALSE(r.linearizable);
}

TEST(linearizer, queue_fifo_violation_rejected) {
  std::vector<hist::op_record> ops{
      rec(0, mk(opcode::enq, 1), 0, 1, k_ack),
      rec(0, mk(opcode::enq, 2), 2, 3, k_ack),
      rec(1, mk(opcode::deq), 4, 5, 2),  // out of order
  };
  auto r = hist::check_linearizable(ops, hist::queue_spec());
  EXPECT_FALSE(r.linearizable);
}

TEST(linearizer, witness_has_all_nonoptional_ops) {
  std::vector<hist::op_record> ops{
      rec(0, mk(opcode::reg_write, 1), 0, 1, k_ack),
      rec(1, mk(opcode::reg_read), 2, 3, 1),
  };
  auto r = hist::check_linearizable(ops, hist::register_spec(0));
  ASSERT_TRUE(r.linearizable);
  EXPECT_EQ(r.witness.size(), 2u);
}

TEST(linearizer, rejects_oversized_histories) {
  std::vector<hist::op_record> ops(65, rec(0, mk(opcode::reg_read), 0, 1, 0));
  auto r = hist::check_linearizable(ops, hist::register_spec(0));
  EXPECT_FALSE(r.linearizable);
  EXPECT_NE(r.error.find("64"), std::string::npos);
}

// ---- checker / record builder ---------------------------------------------------

hist::event ev(hist::event_kind k, int pid, op_desc d,
               hist::value_t v = k_bottom,
               hist::recovery_verdict verdict = hist::recovery_verdict::none) {
  hist::event e;
  e.kind = k;
  e.pid = pid;
  e.desc = d;
  e.value = v;
  e.verdict = verdict;
  return e;
}

TEST(checker, normal_completion_builds_mandatory_record) {
  std::vector<hist::event> events{
      ev(hist::event_kind::invoke, 0, mk(opcode::reg_write, 1)),
      ev(hist::event_kind::response, 0, mk(opcode::reg_write, 1), k_ack),
  };
  auto recs = hist::build_records(events);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_TRUE(recs[0].has_response);
  EXPECT_FALSE(recs[0].optional);
}

TEST(checker, fail_verdict_excludes_op) {
  std::vector<hist::event> events{
      ev(hist::event_kind::invoke, 0, mk(opcode::reg_write, 1)),
      ev(hist::event_kind::crash, -1, {}),
      ev(hist::event_kind::recover_begin, 0, mk(opcode::reg_write, 1)),
      ev(hist::event_kind::recover_result, 0, mk(opcode::reg_write, 1),
         k_bottom, hist::recovery_verdict::fail),
  };
  auto recs = hist::build_records(events);
  EXPECT_TRUE(recs.empty());
}

TEST(checker, linearized_verdict_closes_op_with_response) {
  std::vector<hist::event> events{
      ev(hist::event_kind::invoke, 0, mk(opcode::reg_write, 1)),
      ev(hist::event_kind::crash, -1, {}),
      ev(hist::event_kind::recover_begin, 0, mk(opcode::reg_write, 1)),
      ev(hist::event_kind::recover_result, 0, mk(opcode::reg_write, 1), k_ack,
         hist::recovery_verdict::linearized),
  };
  auto recs = hist::build_records(events);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_TRUE(recs[0].has_response);
  EXPECT_EQ(recs[0].response, k_ack);
}

TEST(checker, unresolved_pending_op_is_optional) {
  std::vector<hist::event> events{
      ev(hist::event_kind::invoke, 0, mk(opcode::reg_write, 1)),
      ev(hist::event_kind::crash, -1, {}),
  };
  auto recs = hist::build_records(events);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_TRUE(recs[0].optional);
}

TEST(checker, orphan_linearized_verdict_synthesizes_record) {
  // Crash hit inside the announcement window; a re-invoking recovery then
  // executed and linearized the op.
  std::vector<hist::event> events{
      ev(hist::event_kind::crash, -1, {}),
      ev(hist::event_kind::recover_begin, 0, mk(opcode::max_write, 5)),
      ev(hist::event_kind::recover_result, 0, mk(opcode::max_write, 5), k_ack,
         hist::recovery_verdict::linearized),
  };
  auto recs = hist::build_records(events);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].invoke_index, 1u);
  EXPECT_EQ(recs[0].response_index, 2u);
}

TEST(checker, orphan_fail_verdict_ignored) {
  std::vector<hist::event> events{
      ev(hist::event_kind::crash, -1, {}),
      ev(hist::event_kind::recover_begin, 0, mk(opcode::reg_write, 5)),
      ev(hist::event_kind::recover_result, 0, mk(opcode::reg_write, 5),
         k_bottom, hist::recovery_verdict::fail),
  };
  auto recs = hist::build_records(events);
  EXPECT_TRUE(recs.empty());
}

TEST(checker, duplicate_completion_report_is_ignored) {
  // Regression: a crash between an op's response and the client's durable
  // program-counter update makes recovery re-report "linearized" for an op
  // the log already closed. That report must not spawn a second record.
  op_desc w = mk(opcode::reg_write, 1);
  w.client_seq = 1;
  std::vector<hist::event> events{
      ev(hist::event_kind::invoke, 0, w),
      ev(hist::event_kind::response, 0, w, k_ack),
      ev(hist::event_kind::crash, -1, {}),
      ev(hist::event_kind::recover_begin, 0, w),
      ev(hist::event_kind::recover_result, 0, w, k_ack,
         hist::recovery_verdict::linearized),
  };
  auto recs = hist::build_records(events);
  ASSERT_EQ(recs.size(), 1u) << "no phantom second record";
  // And the full check passes with a subsequent read seeing the write once.
  op_desc r = mk(opcode::reg_read);
  r.client_seq = 1;
  events.push_back(ev(hist::event_kind::invoke, 1, r));
  events.push_back(ev(hist::event_kind::response, 1, r, 1));
  auto res = hist::check_durable_linearizability(events, hist::register_spec(0));
  EXPECT_TRUE(res.ok) << res.message;
}

TEST(checker, lock_spec_checks_mutual_exclusion) {
  // Two concurrent successful trylocks must be rejected by the lock spec.
  op_desc t0 = mk(opcode::lock_try, 0);
  op_desc t1 = mk(opcode::lock_try, 1);
  std::vector<hist::event> events{
      ev(hist::event_kind::invoke, 0, t0),
      ev(hist::event_kind::response, 0, t0, k_true),
      ev(hist::event_kind::invoke, 1, t1),
      ev(hist::event_kind::response, 1, t1, k_true),  // impossible
  };
  auto res = hist::check_durable_linearizability(events, hist::lock_spec());
  EXPECT_FALSE(res.ok);
}

TEST(checker, detects_false_linearized_claim) {
  // Recovery claims a write was linearized, but a later read contradicts it.
  std::vector<hist::event> events{
      ev(hist::event_kind::invoke, 0, mk(opcode::reg_write, 1)),
      ev(hist::event_kind::crash, -1, {}),
      ev(hist::event_kind::recover_begin, 0, mk(opcode::reg_write, 1)),
      ev(hist::event_kind::recover_result, 0, mk(opcode::reg_write, 1), k_ack,
         hist::recovery_verdict::linearized),
      ev(hist::event_kind::invoke, 1, mk(opcode::reg_read)),
      ev(hist::event_kind::response, 1, mk(opcode::reg_read), 0),
  };
  auto r = hist::check_durable_linearizability(events, hist::register_spec(0));
  EXPECT_FALSE(r.ok);
}

TEST(checker, detects_false_fail_claim_when_effect_observed) {
  // Recovery says fail, but another process already read the written value.
  std::vector<hist::event> events{
      ev(hist::event_kind::invoke, 0, mk(opcode::reg_write, 1)),
      ev(hist::event_kind::invoke, 1, mk(opcode::reg_read)),
      ev(hist::event_kind::response, 1, mk(opcode::reg_read), 1),
      ev(hist::event_kind::crash, -1, {}),
      ev(hist::event_kind::recover_begin, 0, mk(opcode::reg_write, 1)),
      ev(hist::event_kind::recover_result, 0, mk(opcode::reg_write, 1),
         k_bottom, hist::recovery_verdict::fail),
  };
  auto r = hist::check_durable_linearizability(events, hist::register_spec(0));
  EXPECT_FALSE(r.ok);
}

// ---- per-object partition -----------------------------------------------------

// Field-wise: event has no operator==, and client_seq is not in to_string().
void expect_same_events(const std::vector<hist::event>& got,
                        const std::vector<hist::event>& want,
                        const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const hist::event& g = got[i];
    const hist::event& w = want[i];
    const bool same =
        g.kind == w.kind && g.pid == w.pid && g.desc.object == w.desc.object &&
        g.desc.code == w.desc.code && g.desc.a == w.desc.a &&
        g.desc.b == w.desc.b && g.desc.client_seq == w.desc.client_seq &&
        g.value == w.value && g.verdict == w.verdict;
    ASSERT_TRUE(same) << where << " event " << i << ": " << g.to_string()
                      << " vs " << w.to_string();
  }
}

// One pass yields exactly what one object_events() scan per object yields,
// over the first 100 scenarios of the check_parallel corpus (multi-object,
// sharded, crashy) — on the whole log and on a tail of it.
TEST(partition, matches_object_events_on_generated_corpus) {
  fuzz::gen_config cfg;
  cfg.max_procs = 3;
  cfg.max_ops = 6;
  cfg.max_shards = 3;
  cfg.max_objects = 3;
  cfg.object_kind_pool = {"reg", "cas", "counter", "queue", "stack"};
  cfg.sched_pool = {"round_robin", "uniform_random", "pct"};
  cfg.persist_pool = {"strict", "buffered"};
  const std::vector<std::string> kinds = {"reg",   "cas",     "counter",
                                          "queue", "stack",   "swap",
                                          "tas",   "max_reg", "lock"};
  std::size_t crashes = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const api::scripted_scenario s =
        fuzz::generate(seed, kinds[seed % kinds.size()], cfg);
    const std::vector<hist::event> events = api::replay_unchecked(s).events;
    std::vector<std::uint32_t> ids;
    for (const api::scenario_object& o : s.objects) ids.push_back(o.id);

    const std::vector<std::vector<hist::event>> parts =
        hist::partition_by_object(events, ids);
    ASSERT_EQ(parts.size(), ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      expect_same_events(parts[i], hist::object_events(events, ids[i]),
                         "seed " + std::to_string(seed) + " object " +
                             std::to_string(ids[i]));
    }

    const std::size_t from = events.size() / 2;
    const std::vector<hist::event> tail(events.begin() + static_cast<long>(from),
                                        events.end());
    const std::vector<std::vector<hist::event>> tail_parts =
        hist::partition_by_object(std::span(events).subspan(from), ids);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      expect_same_events(tail_parts[i], hist::object_events(tail, ids[i]),
                         "seed " + std::to_string(seed) + " tail object " +
                             std::to_string(ids[i]));
    }
    for (const hist::event& e : events) {
      crashes += e.kind == hist::event_kind::crash ? 1 : 0;
    }
  }
  EXPECT_GT(crashes, 0u) << "the slice must exercise crash fan-out";
}

TEST(partition, rejects_ops_on_unrequested_ids) {
  const std::vector<hist::event> events{
      ev(hist::event_kind::invoke, 0, mk(opcode::reg_write, 1)),
      ev(hist::event_kind::crash, -1, {}),
      ev(hist::event_kind::invoke, 1, {7, opcode::reg_read, 0, 0, 1}),
  };
  const std::vector<std::uint32_t> ids{0};
  try {
    hist::partition_by_object(events, ids);
    FAIL() << "an op on object 7 was not requested";
  } catch (const std::invalid_argument& ex) {
    EXPECT_EQ(std::string(ex.what()), "no spec for object id 7");
  }

  // skip_others drops the stray op and keeps the crash.
  const std::vector<std::vector<hist::event>> kept =
      hist::partition_by_object(events, ids, /*skip_others=*/true);
  ASSERT_EQ(kept.size(), 1u);
  ASSERT_EQ(kept[0].size(), 2u);
  EXPECT_EQ(kept[0][1].kind, hist::event_kind::crash);

  // The per-object check reports it with the same message.
  hist::register_spec spec(0);
  const hist::check_result res =
      hist::check_durable_linearizability_per_object(events, {{0, &spec}});
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.message, "per-object check: no spec for object id 7");
}

}  // namespace
