// detect::api::harness — the front door of the repo.
//
// One object that owns and wires the four pieces every scenario needs —
// sim::world, core::announcement_board, hist::log, core::runtime — behind a
// fluent builder:
//
//   auto h = api::harness::builder()
//                .procs(3)
//                .fail_policy(core::runtime::fail_policy::retry)
//                .seed(42)
//                .crash_at({12, 31})
//                .build();
//   auto r = h.add_reg();
//   auto q = h.add_queue();
//   h.script(0, {r.write(1), q.enq(7)});
//   h.script(1, {q.deq(), r.read()});
//   auto report = h.run();
//   auto check = h.check();   // durable linearizability + detectability
//
// Objects are created through typed adders (or by registry kind string),
// registered with the runtime under fresh ids, and paired with their
// sequential specs so `check()` can check each object against its own.
//
// For proof-schedule harnesses (the Theorem-2 style "run p until it is about
// to return" drivers) the underlying world/board/log/runtime stay reachable
// through accessors, and submit_op / drive / crash_now wrap the recurring
// manual-driving boilerplate.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "api/registry.hpp"
#include "core/runtime.hpp"
#include "history/checker.hpp"
#include "sched/strategy.hpp"

namespace detect::api {

/// The per-world run configuration: everything one simulated world, and the
/// harness that drives it, needs. harness is built from one; the executor's
/// exec_policy extends it with the backend-level knobs.
struct world_policy {
  int nprocs = 2;
  core::runtime::fail_policy fail = core::runtime::fail_policy::skip;
  bool shared_cache = false;
  bool auto_persist = true;
  /// Persistency-visibility model (strict / buffered; see nvm::persist_model).
  nvm::persist_model persist = nvm::persist_model::strict;
  sim::world_config wcfg;
  std::optional<std::uint64_t> sched_seed;  // nullopt → round robin
  /// Schedule-exploration strategy `sched_seed` drives (see detect::sched).
  sched::sched_policy sched;
  std::vector<std::uint64_t> crash_steps;
  std::optional<std::tuple<std::uint64_t, double, std::uint64_t>> crash_random;
};

/// The per-world setters, written once for every builder over a policy
/// derived from world_policy. CRTP: each setter returns the concrete
/// `Builder&`, so backend-specific setters chain in any order.
template <typename Builder, typename Policy>
class world_setters {
 public:
  Builder& procs(int n) {
    pol_.nprocs = n;
    return self();
  }
  Builder& max_steps(std::uint64_t n) {
    pol_.wcfg.max_steps = n;
    return self();
  }
  Builder& fail_policy(core::runtime::fail_policy p) {
    pol_.fail = p;
    return self();
  }
  /// Seeded random scheduler for run(); default is round robin.
  Builder& seed(std::uint64_t s) {
    pol_.sched_seed = s;
    return self();
  }
  /// Schedule-exploration strategy the seed drives: round_robin,
  /// uniform_random (default), or pct with explicit preemption points.
  Builder& schedule(sched::sched_policy p) {
    pol_.sched = std::move(p);
    return self();
  }
  /// Persistency-visibility model. Default strict; buffered makes stores
  /// crash-persistent only at flush/epoch boundaries.
  Builder& persist(nvm::persist_model m) {
    pol_.persist = m;
    return self();
  }
  /// Store-buffer visibility model between live processes (sc / tso / pso;
  /// see wmm::visibility_model). Default sc, the historical interleaving
  /// semantics. Orthogonal to persist(): buffered stores drain before they
  /// persist or journal.
  Builder& visibility(wmm::visibility_model m) {
    pol_.wcfg.visibility = m;
    return self();
  }
  /// Scripted full-drain steps under tso/pso, keyed on the (world-local)
  /// step counter like crash_at (see sim::world_config::drain_points).
  Builder& drain_at(std::vector<std::uint64_t> steps) {
    pol_.wcfg.drain_points = std::move(steps);
    return self();
  }
  /// Crash when the (world-local) step counter hits each listed value.
  Builder& crash_at(std::vector<std::uint64_t> steps) {
    pol_.crash_steps = std::move(steps);
    return self();
  }
  /// Crash with probability `rate` before each step, at most `max` times.
  Builder& crash_random(std::uint64_t s, double rate, std::uint64_t max) {
    pol_.crash_random = {s, rate, max};
    return self();
  }
  /// Shared-cache memory model; `auto_persist` applies the §6 syntactic
  /// flush/fence transformation to every shared access.
  Builder& shared_cache(bool auto_persist = true) {
    pol_.shared_cache = true;
    pol_.auto_persist = auto_persist;
    return self();
  }

 protected:
  Builder& self() { return static_cast<Builder&>(*this); }

  Policy pol_;
};

class harness {
 public:
  class builder;

  /// One world wired per `p` (the builder's output; the single and sharded
  /// executors build theirs straight from their exec_policy).
  explicit harness(const world_policy& p);

  // ---- object creation -----------------------------------------------------

  /// Instantiate a registry kind and register it under a fresh id.
  object_handle add(const std::string& kind, const object_params& params = {});

  /// Same, under a caller-chosen id (fresh per the runtime's duplicate
  /// check). Sharded executors route globally-unique ids into per-shard
  /// harnesses with this.
  object_handle add_as(std::uint32_t id, const std::string& kind,
                       const object_params& params = {});

  reg add_reg(value_t init = 0) { return reg(add("reg", {.init = init})); }
  cas add_cas(value_t init = 0) { return cas(add("cas", {.init = init})); }
  counter add_counter(value_t init = 0) {
    return counter(add("counter", {.init = init}));
  }
  swap_reg add_swap(value_t init = 0) {
    return swap_reg(add("swap", {.init = init}));
  }
  tas add_tas() { return tas(add("tas")); }
  queue add_queue(std::size_t capacity = 64) {
    return queue(add("queue", {.capacity = capacity}));
  }
  stack add_stack(std::size_t capacity = 64) {
    return stack(add("stack", {.capacity = capacity}));
  }
  max_reg add_max_reg() { return max_reg(add("max_reg")); }
  lock add_lock() { return lock(add("lock")); }

  /// Register an externally constructed object under a fresh id, pairing it
  /// with `spec` for checking. The harness takes ownership.
  object_handle add_object(std::unique_ptr<core::detectable_object> obj,
                           std::unique_ptr<hist::spec> spec, op_family family,
                           std::string kind = "custom");

  // ---- object migration (executor-level shard rebalancing) ------------------

  /// Is `id` a registry-created object this harness hosts? (add_object
  /// customs are not migratable: the harness does not know how to rebuild
  /// them elsewhere.)
  bool has_object(std::uint32_t id) const { return hosted_.count(id) != 0; }

  /// The extract_object() preconditions, checked without extracting: empty
  /// when `id` can migrate away right now, else the error message
  /// extract_object() would throw. Lets callers validate a whole migration
  /// plan before moving anything.
  std::string migration_blocker(std::uint32_t id);

  /// Tear `id` out of this harness: unregister it from the runtime, drop its
  /// spec, destroy the object, and return the NVM image of every cell it
  /// attached during construction — the portable representation
  /// adopt_object() rebuilds from. Throws std::invalid_argument when `id` is
  /// not a migratable object of this harness, or when some process has an
  /// announced-but-unrecovered operation on it (migrating mid-recovery would
  /// strand the announcement).
  nvm::pmem_image extract_object(std::uint32_t id);

  /// Inverse of extract_object(): instantiate `kind` under `id` as add_as()
  /// would, then overwrite its freshly-initialized cells with `image`.
  /// Throws std::invalid_argument when the image does not match the layout
  /// `kind`/`params` construct (migration requires identical declarations).
  object_handle adopt_object(std::uint32_t id, const std::string& kind,
                             const object_params& params,
                             const nvm::pmem_image& image);

  // ---- scripting & running -------------------------------------------------

  void script(int pid, std::vector<hist::op_desc> ops) {
    rt_->set_script(pid, std::move(ops));
  }

  void set_fail_policy(core::runtime::fail_policy p) { rt_->set_fail_policy(p); }

  /// Drive all scripts to completion under the builder-configured scheduler
  /// and crash plan (fresh instances per call, so runs are reproducible).
  sim::run_report run();

  /// Replace the random crash plan's seed for subsequent run() calls (no-op
  /// without a crash_random plan). run() rebuilds the plan from the same
  /// seed each call, so without this every round of a multi-round driver
  /// crashes at identical draw positions; round-based services reseed
  /// deterministically per round to vary the crash points.
  void reseed_crashes(std::uint64_t seed);

  /// Same, under caller-supplied policies.
  sim::run_report run(sim::scheduler& sched, sim::crash_plan* crashes = nullptr) {
    prepare_run();
    return rt_->run(sched, crashes);
  }

  // ---- verification --------------------------------------------------------

  /// Check the recorded history for durable linearizability + detectability,
  /// one linearization per added object against its own spec (see
  /// hist::check_durable_linearizability_per_object). Budget, shared memo,
  /// and the per-object fan-out all ride in one hist::check_options.
  hist::check_result check(const hist::check_options& opt = {}) const {
    return hist::check_durable_linearizability_per_object(
        log_->snapshot(), object_specs(), opt);
  }

  /// (id, spec) of every object added so far; specs stay owned by the
  /// harness.
  hist::object_spec_list object_specs() const {
    hist::object_spec_list out;
    for (const auto& [id, proto] : specs_) out.emplace_back(id, proto.get());
    return out;
  }

  std::vector<hist::event> events() const { return log_->snapshot(); }
  std::string log_text() const { return hist::log_text(log_->snapshot()); }

  // ---- manual-driving helpers (proof-schedule harnesses) --------------------

  /// Submit a single announce-and-invoke task for `pid` (outside scripts).
  void submit_op(int pid, hist::op_desc desc, std::uint64_t client_seq);

  /// Submit a recovery task for `pid` (Op.Recover per its announcement).
  void submit_recovery(int pid) {
    world_->submit(pid, [rt = rt_.get(), pid] { rt->maybe_recover(pid); });
  }

  /// Deliver a system-wide crash and record it in the history log.
  void crash_now();

  /// Step `pid` while it is runnable.
  void drive(int pid);

  /// Step any runnable process (lowest pid first) until none remain.
  void drive_all();

  /// Mark every cell's current value as persisted (shared-cache setups call
  /// this once the initial objects are in place).
  void persist_all() { domain().persist_all(); }

  // ---- wired components ----------------------------------------------------

  int nprocs() const noexcept { return world_->nprocs(); }
  sim::world& world() noexcept { return *world_; }
  core::announcement_board& board() noexcept { return *board_; }
  hist::log& log() noexcept { return *log_; }
  core::runtime& runtime() noexcept { return *rt_; }
  nvm::pmem_domain& domain() noexcept { return world_->domain(); }

 private:
  // Shared-cache and buffered-persistency setups start from a fully
  // persisted image (the objects' initialization stores are not part of the
  // measured execution).
  void prepare_run() {
    if (domain().model() == nvm::cache_model::shared_cache ||
        domain().buffered()) {
      persist_all();
    }
  }

  /// One registry-created object: everything needed to check it, migrate it
  /// away (kind/params rebuild the layout, `cells` is the NVM state in
  /// attach order), and destroy it.
  struct hosted_object {
    std::string kind;
    object_params params;
    std::vector<std::unique_ptr<core::detectable_object>> owned;
    std::vector<nvm::persistent_base*> cells;
  };

  std::unique_ptr<sim::world> world_;
  std::unique_ptr<core::announcement_board> board_;
  std::unique_ptr<hist::log> log_;
  std::unique_ptr<core::runtime> rt_;
  std::vector<std::unique_ptr<core::detectable_object>> objects_;
  std::map<std::uint32_t, hosted_object> hosted_;
  std::vector<std::pair<std::uint32_t, std::unique_ptr<hist::spec>>> specs_;
  std::uint32_t next_id_ = 0;
  world_policy pol_;
};

class harness::builder : public world_setters<harness::builder, world_policy> {
 public:
  harness build() const { return harness(pol_); }
};

/// The world-less object host: the emulated NVM domain and announcement
/// board without a simulated world, holding registry objects under unique
/// ids together with their sequential specs. The threads executor backend is
/// this host plus client threads and a history log; the E6 throughput bench
/// uses it directly, invoking objects with no history log at all, so that
/// only the objects and the caller's auxiliary resets are timed.
class arena {
 public:
  explicit arena(int nprocs) : nprocs_(nprocs), board_(nprocs, dom_) {}

  /// Instantiate a registry kind under a fresh id.
  object_handle add(const std::string& kind, const object_params& params = {}) {
    return add_as(next_id_, kind, params);
  }

  /// Same, under a caller-chosen id. Throws std::invalid_argument when `id`
  /// is already taken.
  object_handle add_as(std::uint32_t id, const std::string& kind,
                       const object_params& params = {});

  /// The object hosted under `id`; throws std::out_of_range when unknown.
  core::detectable_object& object(std::uint32_t id) const {
    return *by_id_.at(id);
  }

  /// (id, spec) of every object added so far; specs stay owned by the arena.
  hist::object_spec_list object_specs() const {
    hist::object_spec_list out;
    for (const auto& [id, proto] : specs_) out.emplace_back(id, proto.get());
    return out;
  }

  /// The caller-side auxiliary reset of `pid`'s announcement (see
  /// core::reset_aux), for callers that invoke objects directly.
  void reset_aux(int pid) { core::reset_aux(board_.of(pid)); }

  int nprocs() const noexcept { return nprocs_; }
  nvm::pmem_domain& domain() noexcept { return dom_; }
  core::announcement_board& board() noexcept { return board_; }

 private:
  int nprocs_;
  nvm::pmem_domain dom_;
  core::announcement_board board_;
  std::vector<std::unique_ptr<core::detectable_object>> objects_;
  std::map<std::uint32_t, core::detectable_object*> by_id_;
  std::vector<std::pair<std::uint32_t, std::unique_ptr<hist::spec>>> specs_;
  std::uint32_t next_id_ = 0;
};

}  // namespace detect::api
