// E8 — Crash-recovery behaviour under increasing crash rates.
//
// For each crash rate, run mixed workloads over Algorithms 1-3 + the queue,
// with every run verified for durable linearizability + detectability, and
// report: completed operations, crashes survived, recovery verdicts
// (linearized vs fail), and verification outcome. This is the "system" view
// of detectability: after every crash each client knows exactly whether its
// interrupted operation took effect.
#include "api/api.hpp"
#include "bench_util.hpp"

namespace {

using namespace detect;

struct outcome {
  std::uint64_t completed_ops = 0;
  std::uint64_t crashes = 0;
  std::uint64_t verdict_linearized = 0;
  std::uint64_t verdict_fail = 0;
  int runs_checked = 0;
  int runs_ok = 0;
};

outcome sweep(double crash_rate, int seeds) {
  outcome out;
  for (int seed = 1; seed <= seeds; ++seed) {
    auto h = api::harness::builder()
                 .procs(3)
                 .fail_policy(core::runtime::fail_policy::retry)
                 .seed(static_cast<std::uint64_t>(seed) * 48271u)
                 .crash_random(static_cast<std::uint64_t>(seed) * 16807u,
                               crash_rate, 10)
                 .build();
    api::reg r = h.add_reg();
    api::cas c = h.add_cas();
    api::queue q = h.add_queue(64);
    h.script(0, {r.write(1), c.compare_and_set(0, 1), q.enq(7), r.read()});
    h.script(1, {q.enq(9), c.compare_and_set(1, 2), q.deq(), r.write(5)});
    h.script(2, {r.read(), q.deq(), c.read(), q.enq(3)});
    auto rep = h.run();
    out.crashes += rep.crashes;
    for (const auto& e : h.events()) {
      if (e.kind == hist::event_kind::response) ++out.completed_ops;
      if (e.kind == hist::event_kind::recover_result) {
        if (e.verdict == hist::recovery_verdict::linearized) {
          ++out.verdict_linearized;
        } else {
          ++out.verdict_fail;
        }
      }
    }
    auto cr = h.check();
    ++out.runs_checked;
    if (cr.ok) ++out.runs_ok;
  }
  return out;
}

}  // namespace

int main() {
  using bench::fmt;
  using bench::row;
  using bench::rule;

  std::printf(
      "E8 — Recovery behaviour vs crash rate (3 procs x 4 mixed ops, retry\n"
      "policy, 40 seeds per rate; every run checked for durable\n"
      "linearizability + detectability)\n\n");
  row({"crash rate", "crashes", "resp ops", "rec:linear", "rec:fail",
       "verified"});
  rule(6);
  bool all_verified = true;
  for (double rate : {0.0, 0.005, 0.01, 0.02, 0.05, 0.1}) {
    outcome o = sweep(rate, 40);
    all_verified = all_verified && o.runs_ok == o.runs_checked;
    row({fmt(rate, 3), bench::fmt_u(o.crashes), bench::fmt_u(o.completed_ops),
         bench::fmt_u(o.verdict_linearized), bench::fmt_u(o.verdict_fail),
         std::to_string(o.runs_ok) + "/" + std::to_string(o.runs_checked)});
  }
  std::printf(
      "\nShape check: every run verifies at every crash rate; as the rate\n"
      "grows, recovery verdicts (both kinds) grow while directly-completed\n"
      "responses shrink — yet no operation is ever lost or duplicated.\n");
  if (!all_verified) {
    std::printf("\nFAIL: some run did not verify\n");
    return 1;
  }
  return 0;
}
