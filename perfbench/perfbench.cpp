// perfbench — certified throughput of the detect library, end to end and
// layer by layer.
//
//   perfbench --workload fuzz_campaign|kv_skewed|serve_soak|theory_bfs
//             --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// Each workload is a closed loop of "units" that each end in a verdict:
//
//   fuzz_campaign  one fuzz::generate scenario through fuzz::check_scenario
//                  (nightly deep-lane generator settings, no steering)
//   kv_skewed      one long scripted run of thousands of Zipf-popular objects
//                  on the single backend, then a per-object check
//   serve_soak     one deterministic serve::server soak (sharded K=4, crashes,
//                  rebalancer) with closed-loop sessions, then server::check
//   theory_bfs     the Algorithm 2 full BFS (N=2, domain 3) and the
//                  Algorithm 1 quiescent BFS (N=3) with their counts verified
//
// The benchmark only calls the library's public functions. With --trace 0 it
// prints the end-to-end metrics; with --trace 1 it first runs the untraced
// loop, then the same units again with spans recorded around every public
// call, and prints the per-layer metrics (self time per layer, counts) and
// the tracing overhead. The last stdout line is one JSON object:
//   {"correct", "attempted", "failed", "metrics", "guard"}
// `guard` holds the counts that must repeat exactly for a fixed seed; the
// wrapper (run.py) compares them across runs. Any wrong output — a violation
// or inconclusive verdict in kv_skewed or serve_soak, a lost or duplicated
// completion, a wrong BFS count, a count that drifts between rounds, a
// failed self-test — sets correct=false and the exit code to 1.
//
// Accounting: an op is *certified* when the checker certified the history
// of the object it ran on. Ops on objects whose history exceeds the
// checker's op cap are correct but uncertified; they lower
// certified_op_frac and show in failed_op_frac. `failed` counts ops whose
// outcome was wrong or unknown (violation, inconclusive, step limit,
// rejected submit). In fuzz_campaign a violation is the fuzzer's verdict on
// a generated scenario: its ops count as failed and the reproducing seed is
// logged, but the run stays correct.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "api/api.hpp"
#include "fuzz/fuzz.hpp"
#include "history/checker.hpp"
#include "history/linearizer.hpp"
#include "serve/serve.hpp"
#include "theory/cas_model.hpp"
#include "theory/rw_model.hpp"

namespace {

using namespace detect;
using clk = std::chrono::steady_clock;

double seconds_between(clk::time_point a, clk::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::uint64_t splitmix(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Tracing: spans recorded from the benchmark's side of each public call.

struct span_rec {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::uint64_t id = 0;  // one per scenario, round, op wave or instance
};

class tracer {
 public:
  /// Spans are recorded only while active; toggled between units.
  void set_active(bool on) noexcept { on_ = on; }

  int open(const char* name, std::uint64_t id) {
    if (!on_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, now_ns(), 0, parent, id});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int idx) {
    if (idx < 0) return;
    spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
    stack_.pop_back();
  }

  /// Total seconds inside spans named `name`, and how many there were.
  std::pair<double, std::uint64_t> total(const std::string& name) const {
    double s = 0.0;
    std::uint64_t n = 0;
    for (const span_rec& r : spans_) {
      if (name == r.name) {
        s += static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
        ++n;
      }
    }
    return {s, n};
  }

  /// Self time per layer (the span name's prefix before '.'): each span's
  /// duration minus the part its child spans cover.
  std::map<std::string, double> self_seconds_by_layer() const {
    std::vector<std::int64_t> child(spans_.size(), 0);
    for (const span_rec& r : spans_) {
      if (r.parent >= 0) {
        child[static_cast<std::size_t>(r.parent)] += r.end_ns - r.start_ns;
      }
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const std::string name = spans_[i].name;
      const std::string layer = name.substr(0, name.find('.'));
      out[layer] +=
          static_cast<double>(spans_[i].end_ns - spans_[i].start_ns - child[i]) *
          1e-9;
    }
    return out;
  }

  /// Chrome trace-event JSON ("X" complete events, microsecond timestamps).
  void write_chrome(const std::string& path) const {
    std::ofstream os(path);
    if (!os) throw std::runtime_error("cannot write trace file " + path);
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const span_rec& r = spans_[i];
      const std::string name = r.name;
      char buf[320];
      std::snprintf(buf, sizeof buf,
                    "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                    "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                    "\"args\": {\"span\": %zu, \"parent\": %d, \"id\": %llu}}",
                    r.name, name.substr(0, name.find('.')).c_str(),
                    static_cast<double>(r.start_ns) * 1e-3,
                    static_cast<double>(r.end_ns - r.start_ns) * 1e-3, i,
                    r.parent, static_cast<unsigned long long>(r.id));
      os << buf << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    os << "]}\n";
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(clk::now() -
                                                                origin_)
        .count();
  }

  bool on_ = false;
  clk::time_point origin_ = clk::now();
  std::vector<span_rec> spans_;
  std::vector<int> stack_;
};

tracer g_trace;

/// RAII span; free (one branch) when tracing is off.
class span {
 public:
  span(const char* name, std::uint64_t id) : idx_(g_trace.open(name, id)) {}
  ~span() { g_trace.close(idx_); }
  span(const span&) = delete;
  span& operator=(const span&) = delete;

 private:
  int idx_;
};

// ---------------------------------------------------------------------------
// Run-wide accounting.

struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct run_state {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::uint64_t> guard;
  std::vector<metric> metrics;

  void wrong(const std::string& what) {
    correct = false;
    std::fprintf(stderr, "perfbench: WRONG OUTPUT: %s\n", what.c_str());
  }
  void put(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Deterministic counts: equal across every unit of a run that repeats
  /// the same input, and (via run.py) across runs with the same seed.
  void pin(const std::string& key, std::uint64_t value) {
    const auto [it, fresh] = guard.emplace(key, value);
    if (!fresh && it->second != value) {
      wrong("determinism guard: " + key + " drifted from " +
            std::to_string(it->second) + " to " + std::to_string(value));
    }
  }
};

/// How long a workload loop runs, and which of its units are traced. In a
/// traced run alternate blocks of `block` units are traced, so traced and
/// untraced units interleave and their times compare like for like.
struct budget {
  double seconds = 0.0;
  std::size_t min_units = 1;
  bool alternate = false;
  std::size_t block = 1;
  bool more(std::size_t done, clk::time_point start) const {
    return done < min_units || seconds_between(start, clk::now()) < seconds;
  }
  bool traced(std::size_t unit) const {
    return alternate && (unit / block) % 2 == 1;
  }
};

/// What one pass of a workload loop measured.
struct pass_result {
  std::size_t units = 0;
  std::vector<double> unit_s;   // verdict-path wall time per unit
  std::vector<bool> traced;     // per unit
  std::vector<double> setup_s;  // per set-up
  std::uint64_t ops = 0;
  std::uint64_t certified_ops = 0;

  void add_unit(double seconds, bool was_traced) {
    unit_s.push_back(seconds);
    traced.push_back(was_traced);
    ++units;
  }
  std::vector<double> unit_times(bool of_traced) const {
    std::vector<double> out;
    for (std::size_t i = 0; i < unit_s.size(); ++i) {
      if (traced[i] == of_traced) out.push_back(unit_s[i]);
    }
    return out;
  }
  double verdict_wall_s() const {
    double s = 0.0;
    for (double u : unit_s) s += u;
    return s;
  }
};

/// Starts unit `i`: switches span recording on or off, and returns the
/// accumulator the unit's per-layer counts go to (traced units only count).
std::map<std::string, double>& begin_unit(const budget& b, std::size_t i,
                                          std::map<std::string, double>& acc,
                                          std::map<std::string, double>& discard) {
  const bool on = b.traced(i);
  g_trace.set_active(on);
  return on ? acc : discard;
}

// ---------------------------------------------------------------------------
// The checker's per-history op cap, probed once from the public linearizer
// rather than assumed, so an over-cap history is told apart from a violation
// however the limit changes.

std::size_t probe_checker_cap() {
  auto linearizable_at = [](std::size_t n) {
    std::vector<hist::op_record> ops(n);
    for (std::size_t i = 0; i < n; ++i) {
      ops[i].pid = 0;
      ops[i].desc = {0, hist::opcode::reg_write,
                     static_cast<hist::value_t>(i % 5), 0, i};
      ops[i].invoke_index = 2 * i;
      ops[i].response_index = 2 * i + 1;
      ops[i].response = hist::k_ack;
      ops[i].has_response = true;
    }
    std::unique_ptr<hist::spec> sp =
        api::object_registry::global().make_spec("reg");
    return hist::check_linearizable(ops, *sp).linearizable;
  };
  constexpr std::size_t k_probe_limit = 1u << 14;
  if (linearizable_at(k_probe_limit)) return k_probe_limit;
  std::size_t lo = 1, hi = k_probe_limit;  // ok at lo, fails at hi
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    (linearizable_at(mid) ? lo : hi) = mid;
  }
  return lo;
}

std::size_t g_cap = 0;

// ---------------------------------------------------------------------------
// Per-object verdicts for a single-world history (hist:: public calls).

struct object_tally {
  std::size_t certified = 0, over_cap = 0, violating = 0, inconclusive = 0;
  std::uint64_t certified_ops = 0;
  std::uint64_t failed_ops = 0;  // violating or inconclusive objects' ops
  std::uint64_t nodes = 0;
};

struct declared_object {
  std::uint32_t id = 0;
  std::string kind;
  api::object_params params;
  std::uint64_t ops = 0;  // scripted ops targeting it
};

object_tally check_objects(const std::vector<hist::event>& events,
                           const std::vector<declared_object>& objects,
                           std::uint64_t unit_id) {
  span s("history.check", unit_id);
  const api::object_registry& reg = api::object_registry::global();
  object_tally t;
  for (const declared_object& o : objects) {
    std::vector<hist::event> ev;
    {
      span p("history.project", unit_id);
      ev = hist::object_events(events, o.id);
    }
    const std::unique_ptr<hist::spec> sp = reg.make_spec(o.kind, o.params);
    hist::check_result r;
    {
      span l("history.linearize", unit_id);
      r = hist::check_durable_linearizability(ev, *sp);
    }
    t.nodes += r.nodes;
    if (r.ok) {
      ++t.certified;
      t.certified_ops += o.ops;
    } else if (r.inconclusive) {
      ++t.inconclusive;
      t.failed_ops += o.ops;
    } else if (hist::build_records(ev).size() > g_cap) {
      ++t.over_cap;
    } else {
      ++t.violating;
      t.failed_ops += o.ops;
    }
  }
  return t;
}

// ---------------------------------------------------------------------------
// Fuzz verdict classification.

enum class fuzz_verdict { certified, step_limit, over_cap, violation };

fuzz_verdict classify(const api::scripted_scenario& s,
                      const std::string& message) {
  if (message.empty()) return fuzz_verdict::certified;
  if (message.find("hit the step limit") != std::string::npos) {
    return fuzz_verdict::step_limit;
  }
  std::map<std::uint32_t, std::size_t> per_object;
  for (const auto& [pid, ops] : s.scripts) {
    for (const hist::op_desc& d : ops) ++per_object[d.object];
  }
  const std::size_t rounds = s.migrations.empty() ? 1 : 2;
  for (const auto& [id, n] : per_object) {
    if (n * rounds > g_cap) return fuzz_verdict::over_cap;
  }
  return fuzz_verdict::violation;
}

// ---------------------------------------------------------------------------
// Self-test of the verdict accounting against known-bad inputs; runs before
// every workload, untimed.

void self_test(run_state& st) {
  // The crashy plain_reg probe: a non-detectable register under retry with
  // a crash at step 16 loses a write's effect; check_scenario must reject it
  // and the accounting must count it as a failed scenario.
  const api::scripted_scenario bad = api::parse_scenario(
      "object 0 plain_reg 0 64\n"
      "procs 2\n"
      "policy retry\n"
      "sched_seed 5\n"
      "crash_steps 16\n"
      "script 0 reg_write:1:0 reg_read:0:0 reg_write:2:0 reg_read:0:0\n"
      "script 1 reg_write:3:0 reg_read:0:0 reg_write:4:0 reg_read:0:0\n");
  const std::string msg = fuzz::check_scenario(bad);
  if (classify(bad, msg) != fuzz_verdict::violation) {
    st.wrong("self-test: crashy plain_reg probe was not counted as failed");
  }

  // A history one op over the checker's cap must count as over_cap, and one
  // at the cap as certified.
  for (const std::size_t n : {g_cap, g_cap + 1}) {
    auto ex = api::executor::builder().procs(1).max_steps(1ULL << 40).build();
    const api::object_handle h = ex->add("reg");
    std::vector<hist::op_desc> ops;
    for (std::size_t i = 0; i < n; ++i) {
      ops.push_back({h.id(), hist::opcode::reg_write,
                     static_cast<hist::value_t>(i % 7), 0, 0});
    }
    ex->script(0, ops);
    ex->run();
    const object_tally t =
        check_objects(ex->events(), {{h.id(), "reg", {}, n}}, 0);
    const bool want_over = n > g_cap;
    if (t.over_cap != (want_over ? 1u : 0u) ||
        t.certified != (want_over ? 0u : 1u) || t.violating != 0) {
      st.wrong("self-test: a " + std::to_string(n) +
               "-op history was misclassified (cap " + std::to_string(g_cap) +
               ")");
    }
  }
}

// ---------------------------------------------------------------------------
// Zipf(s) sampler over ranks 0..n-1.

class zipf {
 public:
  zipf(std::size_t n, double s) : cdf_(n) {
    double sum = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  std::size_t draw(std::uint64_t& rng) const {
    const double u =
        static_cast<double>(splitmix(rng) >> 11) * 0x1.0p-53;  // [0, 1)
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// The mixed detectable kinds kv_skewed and serve_soak draw objects from.
const std::vector<std::string> k_mixed_kinds = {
    "reg", "cas", "counter", "max_reg", "swap", "tas", "queue", "stack"};

bool is_container(const std::string& kind) {
  return kind == "queue" || kind == "stack";
}

// ===========================================================================
// fuzz_campaign

constexpr std::size_t k_fuzz_guard_prefix = 64;  // scenarios always run
constexpr std::size_t k_fuzz_probe_every = 4;     // traced pass samples
constexpr std::uint64_t k_fuzz_warmup_seed = 0x5E7;

fuzz::gen_config deep_lane_config() {
  // scripts/check.sh --fuzz-deep: --objects-max 4 --shards-min 2
  // --shards-max 4 --sched mixed --persist mixed --visibility mixed.
  fuzz::gen_config g;
  g.max_objects = 4;
  g.min_shards = 2;
  g.max_shards = 4;
  g.sched_pool = {"round_robin", "uniform_random", "pct"};
  g.persist_pool = {"strict", "buffered"};
  g.visibility_pool = {"sc", "tso", "pso"};
  g.object_kind_pool = api::object_registry::global().kinds();
  return g;
}

/// Decomposed replay of `s` through the executor API, for attribution only
/// (traced pass): build / add / script / run / events / check.
void fuzz_probe(const api::scripted_scenario& s, std::uint64_t id,
                std::map<std::string, double>& acc) {
  auto builder_for = [&s](api::exec_backend backend, int shards) {
    api::executor::builder b;
    if (backend == api::exec_backend::sharded) {
      b.shards(shards).placement(s.placement);
    }
    b.backend(backend)
        .procs(s.nprocs)
        .fail_policy(s.policy)
        .seed(s.sched_seed)
        .schedule(s.sched)
        .persist(s.persist)
        .visibility(s.visibility)
        .drain_at(s.drain_steps)
        .crash_at(s.crash_steps);
    if (s.shared_cache) b.shared_cache();
    return b;
  };
  auto build = [&](api::exec_backend backend, int shards) {
    const char* name = backend == api::exec_backend::sharded
                           ? "api.build_sharded"
                           : "api.build_single";
    span b(name, id);
    return builder_for(backend, shards).build();
  };

  // The scenario's own backend, first script round only (a migration plan's
  // second round is not replayed here).
  std::unique_ptr<api::executor> ex = build(s.backend, s.shards);
  {
    span a("api.add", id);
    for (const api::scenario_object& o : s.objects) {
      ex->add_as(o.id, o.kind, o.params);
    }
  }
  {
    span sc("api.script", id);
    for (const auto& [pid, ops] : s.scripts) ex->script(pid, ops);
  }
  acc["objects_added"] += static_cast<double>(s.objects.size());
  acc["ops_scripted"] += static_cast<double>(s.total_ops());
  sim::run_report rep;
  {
    span r("sim.run", id);
    rep = ex->run();
  }
  {
    span e("history.events", id);
    (void)ex->events();
  }
  {
    span c("history.check", id);
    (void)ex->check();
  }
  acc["ops"] += static_cast<double>(s.total_ops());
  acc["steps"] += static_cast<double>(rep.steps);
  acc["crashes"] += static_cast<double>(rep.crashes);
  acc["drain_steps"] += static_cast<double>(rep.drain_steps);
  acc["max_pending"] =
      std::max(acc["max_pending"], static_cast<double>(rep.max_pending_stores));
  acc["nvm_cells"] += static_cast<double>(rep.nvm_cells);
  acc["nvm_bytes"] += static_cast<double>(rep.nvm_bytes);
  acc["probes"] += 1.0;

  // The other backend's build, so single and sharded build costs are both
  // sampled on every sharded-knob scenario.
  if (s.shards > 1) {
    if (s.backend == api::exec_backend::sharded) {
      (void)build(api::exec_backend::single, 1);
    } else {
      (void)build(api::exec_backend::sharded, s.shards);
    }
  }

  for (const api::scenario_object& o : s.objects) {
    for (const std::string& v : fuzz::variants_of(o.kind)) {
      span d("fuzz.diff_variant", id);
      (void)fuzz::diff_against(s, o.id, v);
    }
  }
  if (s.shards > 1) {
    span d("fuzz.diff_sharded", id);
    (void)fuzz::diff_sharded(s, s.shards);
  }
}

pass_result fuzz_pass(run_state& st, const budget& b,
                      std::map<std::string, double>& acc_traced) {
  const std::vector<std::string> kinds =
      api::object_registry::global().kinds();
  pass_result pr;

  // Set-up: the generator configuration plus three warm-up scenarios per
  // kind from a fixed seed stream (the same set-up work for every --seed),
  // so lazy registry, pool and allocator set-up is paid before timing.
  // Repeated 15 times; the median counts.
  for (int rep = 0; rep < 15; ++rep) {
    const auto t0 = clk::now();
    const fuzz::gen_config gen = deep_lane_config();
    for (std::size_t k = 0; k < 3 * kinds.size(); ++k) {
      const std::uint64_t seed = fuzz::iteration_seed(k_fuzz_warmup_seed, k);
      (void)fuzz::check_scenario(
          fuzz::generate(seed, kinds[k % kinds.size()], gen));
    }
    pr.setup_s.push_back(seconds_between(t0, clk::now()));
  }

  const fuzz::gen_config gen = deep_lane_config();
  std::uint64_t g_steps = 0, g_crashes = 0, g_cells = 0, g_nodes = 0,
                g_over = 0;
  std::map<std::string, double> discard;
  const auto start = clk::now();
  for (std::size_t i = 0; b.more(i, start); ++i) {
    auto& acc = begin_unit(b, i, acc_traced, discard);
    const std::uint64_t id = i;
    const std::uint64_t seed = fuzz::iteration_seed(st.seed, i);
    const std::string& kind = kinds[i % kinds.size()];
    span root("bench.scenario", id);
    const auto t0 = clk::now();
    api::scripted_scenario s;
    {
      span g("fuzz.generate", id);
      s = fuzz::generate(seed, kind, gen);
    }
    std::uint64_t replays = 0;
    api::scripted_outcome primary;
    std::string msg;
    {
      span c("fuzz.check_scenario", id);
      msg = fuzz::check_scenario(s, /*diff=*/true, &replays, &primary,
                                 /*placement=*/false, /*check_jobs=*/1);
    }
    pr.add_unit(seconds_between(t0, clk::now()), b.traced(i));

    const std::uint64_t ops = s.total_ops();
    pr.ops += ops;
    acc["replays"] += static_cast<double>(replays);
    acc["nodes"] += static_cast<double>(primary.check.nodes);
    switch (classify(s, msg)) {
      case fuzz_verdict::certified:
        pr.certified_ops += ops;
        acc["objects_certified"] += static_cast<double>(s.objects.size());
        break;
      case fuzz_verdict::over_cap:
        acc["objects_over_cap"] += 1.0;
        ++g_over;
        break;
      case fuzz_verdict::step_limit:
        st.failed += ops;
        break;
      case fuzz_verdict::violation:
        // A violation is the fuzzer's verdict, not a wrong output of the
        // benchmark: its ops count as failed and the reproducer is logged.
        st.failed += ops;
        acc["objects_violating"] += 1.0;
        std::fprintf(stderr,
                     "perfbench: fuzz violation counted as failed: seed %llu "
                     "kind %s: %s\n",
                     static_cast<unsigned long long>(seed), kind.c_str(),
                     msg.substr(0, msg.find('\n')).c_str());
        break;
    }
    if (i < k_fuzz_guard_prefix) {
      g_steps += primary.report.steps;
      g_crashes += primary.report.crashes;
      g_cells += primary.report.nvm_cells;
      g_nodes += primary.check.nodes;
    }
    if (b.traced(i) && i % k_fuzz_probe_every == 0) {
      span p("bench.probe", id);
      fuzz_probe(s, id, acc);
    }
  }
  st.attempted += pr.ops;
  st.pin("sim.steps", g_steps);
  st.pin("sim.crashes", g_crashes);
  st.pin("nvm.cells", g_cells);
  st.pin("history.nodes", g_nodes);
  st.pin("history.objects_over_cap", g_over);
  return pr;
}

// ===========================================================================
// kv_skewed

struct kv_input {
  static constexpr int k_procs = 4;
  static constexpr int k_ops_per_proc = 20000;
  static constexpr std::size_t k_objects = 4096;
  static constexpr double k_zipf = 0.8;
  std::vector<declared_object> objects;
  std::map<int, std::vector<hist::op_desc>> scripts;
  std::uint64_t crash_seed = 0;
  std::uint64_t sched_seed = 0;
};

kv_input make_kv_input(std::uint64_t seed) {
  kv_input in;
  std::uint64_t rng = seed ^ 0x6B765F736B657764ULL;  // "kv_skewd"
  in.crash_seed = splitmix(rng);
  in.sched_seed = splitmix(rng);
  // Object i's kind cycles through the mix; popularity rank → object is a
  // seeded permutation, so hot objects are spread over every kind.
  for (std::size_t i = 0; i < kv_input::k_objects; ++i) {
    in.objects.push_back({static_cast<std::uint32_t>(i),
                          k_mixed_kinds[i % k_mixed_kinds.size()],
                          {},
                          0});
  }
  std::vector<std::uint32_t> by_rank(kv_input::k_objects);
  for (std::size_t i = 0; i < by_rank.size(); ++i) {
    by_rank[i] = static_cast<std::uint32_t>(i);
  }
  for (std::size_t i = by_rank.size() - 1; i > 0; --i) {
    std::swap(by_rank[i], by_rank[splitmix(rng) % (i + 1)]);
  }
  const zipf z(kv_input::k_objects, kv_input::k_zipf);
  const api::object_registry& reg = api::object_registry::global();
  fuzz::gen_config cfg;
  for (int p = 0; p < kv_input::k_procs; ++p) {
    std::vector<hist::op_desc>& ops = in.scripts[p];
    ops.reserve(kv_input::k_ops_per_proc);
    std::uint64_t oprng = splitmix(rng);
    for (int k = 0; k < kv_input::k_ops_per_proc; ++k) {
      declared_object& o = in.objects[by_rank[z.draw(rng)]];
      hist::op_desc d = fuzz::random_op(oprng, reg.at(o.kind).family, p, cfg);
      d.object = o.id;
      ops.push_back(d);
      ++o.ops;
    }
  }
  for (declared_object& o : in.objects) {
    if (is_container(o.kind)) {
      o.params.capacity = std::max<std::size_t>(64, o.ops + 1);
    }
  }
  return in;
}

std::unique_ptr<api::executor> kv_executor(const kv_input& in,
                                           api::exec_backend backend,
                                           int shards, std::uint64_t id,
                                           std::map<std::string, double>& acc) {
  std::unique_ptr<api::executor> ex;
  {
    span b(backend == api::exec_backend::sharded ? "api.build_sharded"
                                                 : "api.build_single",
           id);
    ex = api::executor::builder()
             .backend(backend)
             .shards(shards)
             .procs(kv_input::k_procs)
             .max_steps(1ULL << 40)
             .seed(in.sched_seed)
             .visibility(wmm::visibility_model::tso)
             .persist(nvm::persist_model::buffered)
             .crash_random(in.crash_seed, 2e-5, 16)
             .build();
  }
  {
    span a("api.add", id);
    for (const declared_object& o : in.objects) {
      ex->add_as(o.id, o.kind, o.params);
    }
  }
  {
    span s("api.script", id);
    for (const auto& [pid, ops] : in.scripts) ex->script(pid, ops);
  }
  acc["objects_added"] += static_cast<double>(in.objects.size());
  acc["ops_scripted"] += static_cast<double>(kv_input::k_procs) *
                         kv_input::k_ops_per_proc;
  return ex;
}

pass_result kv_pass(run_state& st, const budget& b,
                    std::map<std::string, double>& acc_traced) {
  const kv_input in = make_kv_input(st.seed);
  const std::uint64_t total_ops =
      static_cast<std::uint64_t>(kv_input::k_procs) * kv_input::k_ops_per_proc;
  pass_result pr;
  std::map<std::string, double> discard;
  const auto start = clk::now();
  for (std::size_t i = 0; b.more(i, start); ++i) {
    auto& acc = begin_unit(b, i, acc_traced, discard);
    span root("bench.round", i);
    const auto t0 = clk::now();
    std::unique_ptr<api::executor> ex =
        kv_executor(in, api::exec_backend::single, 1, i, acc);
    const auto t1 = clk::now();
    sim::run_report rep;
    {
      span r("sim.run", i);
      rep = ex->run();
    }
    std::vector<hist::event> events;
    {
      span e("history.events", i);
      events = ex->events();
    }
    const object_tally t = check_objects(events, in.objects, i);
    const auto t2 = clk::now();
    pr.setup_s.push_back(seconds_between(t0, t1));
    pr.add_unit(seconds_between(t1, t2), b.traced(i));
    pr.ops += total_ops;
    pr.certified_ops += t.certified_ops;
    st.attempted += total_ops;
    st.failed += t.failed_ops;
    if (rep.hit_step_limit) st.wrong("kv_skewed hit the step limit");
    if (t.violating + t.inconclusive > 0) {
      st.wrong("kv_skewed: " + std::to_string(t.violating) + " violating, " +
               std::to_string(t.inconclusive) + " inconclusive objects");
    }
    st.pin("sim.steps", rep.steps);
    st.pin("sim.crashes", rep.crashes);
    st.pin("nvm.cells", rep.nvm_cells);
    st.pin("history.nodes", t.nodes);
    st.pin("history.objects_over_cap", t.over_cap);

    acc["steps"] += static_cast<double>(rep.steps);
    acc["crashes"] += static_cast<double>(rep.crashes);
    acc["drain_steps"] += static_cast<double>(rep.drain_steps);
    acc["max_pending"] = std::max(acc["max_pending"],
                                  static_cast<double>(rep.max_pending_stores));
    acc["nvm_cells"] = static_cast<double>(rep.nvm_cells);
    acc["nvm_bytes"] = static_cast<double>(rep.nvm_bytes);
    acc["nodes"] += static_cast<double>(t.nodes);
    acc["objects_certified"] += static_cast<double>(t.certified);
    acc["objects_over_cap"] += static_cast<double>(t.over_cap);
    acc["objects_violating"] += static_cast<double>(t.violating);
    acc["objects_inconclusive"] += static_cast<double>(t.inconclusive);
    acc["ops"] += static_cast<double>(total_ops);
    acc["probes"] += 1.0;
  }
  if (b.alternate) {
    // The same scripts on the sharded backend (K=4): the single-vs-sharded
    // steps-per-op question, and a sharded build at this object count.
    auto& acc = acc_traced;
    g_trace.set_active(true);
    span p("bench.probe", pr.units);
    std::unique_ptr<api::executor> ex =
        kv_executor(in, api::exec_backend::sharded, 4, pr.units, acc);
    sim::run_report rep;
    {
      span r("sim.run_sharded", pr.units);
      rep = ex->run();
    }
    acc["sharded_steps"] = static_cast<double>(rep.steps);
  }
  return pr;
}

// ===========================================================================
// serve_soak

struct serve_input {
  static constexpr int k_shards = 4;
  static constexpr int k_procs = 8;
  static constexpr int k_sessions = 32;
  static constexpr int k_ops_per_session = 800;
  static constexpr int k_wave = 8;  // ops a session submits before waiting
  static constexpr std::size_t k_objects = 512;
  static constexpr double k_zipf = 0.9;
  std::vector<declared_object> objects;
  std::vector<std::vector<hist::op_desc>> traffic;  // per session
  std::uint64_t sched_seed = 0;
  std::uint64_t crash_seed = 0;
};

serve_input make_serve_input(std::uint64_t seed) {
  serve_input in;
  std::uint64_t rng = seed ^ 0x73657276655F736BULL;  // "serve_sk"
  in.sched_seed = splitmix(rng);
  in.crash_seed = splitmix(rng);
  // Objects are added in id order 0..n-1 (modulo placement: id % 4 is the
  // home shard). Kinds exclude queue/stack-free gaps: every kind of the mix
  // appears on every shard.
  for (std::size_t i = 0; i < serve_input::k_objects; ++i) {
    in.objects.push_back({static_cast<std::uint32_t>(i),
                          k_mixed_kinds[(i / serve_input::k_shards) %
                                        k_mixed_kinds.size()],
                          {},
                          0});
  }
  // Popularity: the hottest ranks are shard 0's objects (seeded order), the
  // rest follow — so shard 0 runs hot and the rebalancer has work to do.
  std::vector<std::uint32_t> home0, rest;
  for (std::size_t i = 0; i < serve_input::k_objects; ++i) {
    (i % serve_input::k_shards == 0 ? home0 : rest)
        .push_back(static_cast<std::uint32_t>(i));
  }
  for (auto* v : {&home0, &rest}) {
    for (std::size_t i = v->size() - 1; i > 0; --i) {
      std::swap((*v)[i], (*v)[splitmix(rng) % (i + 1)]);
    }
  }
  std::vector<std::uint32_t> by_rank = home0;
  by_rank.insert(by_rank.end(), rest.begin(), rest.end());
  const zipf z(serve_input::k_objects, serve_input::k_zipf);
  const api::object_registry& reg = api::object_registry::global();
  fuzz::gen_config cfg;
  in.traffic.resize(serve_input::k_sessions);
  for (int s = 0; s < serve_input::k_sessions; ++s) {
    std::uint64_t oprng = splitmix(rng);
    for (int k = 0; k < serve_input::k_ops_per_session; ++k) {
      declared_object& o = in.objects[by_rank[z.draw(rng)]];
      hist::op_desc d = fuzz::random_op(oprng, reg.at(o.kind).family,
                                        s % serve_input::k_procs, cfg);
      d.object = o.id;
      in.traffic[static_cast<std::size_t>(s)].push_back(d);
      ++o.ops;
    }
  }
  for (declared_object& o : in.objects) {
    if (is_container(o.kind)) {
      o.params.capacity = std::max<std::size_t>(64, o.ops + 1);
    }
  }
  return in;
}

/// Completion bookkeeping of one soak round: latency, lost / duplicated
/// completions and per-(session, object) order. Flat vectors, so a
/// completion callback captures 16 bytes and never allocates.
struct soak_ledger {
  std::vector<double>* latencies = nullptr;  // traced rounds only
  std::uint64_t first_session = 0;
  std::vector<int> outstanding;         // per session index
  std::vector<std::uint8_t> seen;       // per ticket
  std::vector<std::uint64_t> last;      // per (session, object): ticket + 1
  std::uint64_t callbacks = 0, dups = 0, order_violations = 0;

  void on_complete(const serve::completion& c, clk::time_point submitted) {
    if (latencies != nullptr) {
      latencies->push_back(seconds_between(submitted, clk::now()) * 1e6);
    }
    ++callbacks;
    const std::size_t session = c.session - first_session;
    --outstanding[session];
    if (c.ticket >= seen.size()) seen.resize(2 * c.ticket + 1, 0);
    if (seen[c.ticket]++ != 0) ++dups;
    std::uint64_t& prev = last[session * serve_input::k_objects + c.object];
    if (c.ticket + 1 <= prev) ++order_violations;
    prev = c.ticket + 1;
  }
};

pass_result serve_pass(run_state& st, const budget& b,
                       std::map<std::string, double>& acc_traced,
                       std::vector<double>& latency_us) {
  const serve_input in = make_serve_input(st.seed);
  std::uint64_t total_ops = 0;
  for (const auto& t : in.traffic) total_ops += t.size();
  pass_result pr;
  std::map<std::string, double> discard;
  const auto start = clk::now();
  for (std::size_t round = 0; b.more(round, start); ++round) {
    auto& acc = begin_unit(b, round, acc_traced, discard);
    span root("bench.round", round);
    const auto t0 = clk::now();
    std::unique_ptr<serve::server> srv;
    std::vector<serve::session> sessions;
    {
      span bs("serve.build", round);
      srv = serve::server::builder()
                .shards(serve_input::k_shards)
                .procs(serve_input::k_procs)
                .seed(in.sched_seed)
                // The sharded executor's worker pool runs inline: on a shared 4-vCPU
                // host its worker handoffs made identical rounds vary 1.5x
                // between runs, and inline rounds were faster as well.
                .pool_threads(1)
                .crash_random(in.crash_seed, 0.0005, 4)
                .batch_max_ops(1024)
                .queue_high_water(1u << 20)
                .session_tokens(1e12, 1e12)
                .rebalance({.enabled = true,
                            .window = 4,
                            .check_every = 4,
                            .hot_ratio = 1.3,
                            .sustain = 2,
                            .max_moves = 8})
                .build();
      for (const declared_object& o : in.objects) {
        if (srv->add(o.kind, o.params).id() != o.id) {
          throw std::logic_error("serve: unexpected object id");
        }
      }
      for (int s = 0; s < serve_input::k_sessions; ++s) {
        sessions.push_back(srv->open_session());
      }
    }
    const auto t1 = clk::now();

    // Closed loop: a session submits its next wave only once every op of
    // its previous wave completed.
    soak_ledger ledger;
    ledger.latencies = b.traced(round) ? &latency_us : nullptr;
    ledger.first_session = sessions.front().id();
    ledger.outstanding.assign(serve_input::k_sessions, 0);
    ledger.seen.assign(total_ops, 0);
    ledger.last.assign(serve_input::k_sessions * serve_input::k_objects, 0);
    std::uint64_t admitted = 0, rejected = 0, waves = 0;
    std::vector<std::size_t> next(serve_input::k_sessions, 0);
    double submit_s = 0.0, pump_s = 0.0;
    std::uint64_t pumps = 0;
    for (;;) {
      bool submitted_any = false;
      const auto ts = clk::now();
      for (int s = 0; s < serve_input::k_sessions; ++s) {
        const auto& ops = in.traffic[static_cast<std::size_t>(s)];
        std::size_t& at = next[static_cast<std::size_t>(s)];
        int& pending = ledger.outstanding[static_cast<std::size_t>(s)];
        if (pending > 0 || at >= ops.size()) {
          continue;
        }
        span w("serve.submit_wave", (round << 32) | waves++);
        const std::size_t end =
            std::min(ops.size(), at + static_cast<std::size_t>(serve_input::k_wave));
        for (; at < end; ++at) {
          const auto t_sub = clk::now();
          const serve::submit_status status =
              sessions[static_cast<std::size_t>(s)].submit(
                  ops[at], [&ledger, t_sub](const serve::completion& c) {
                    ledger.on_complete(c, t_sub);
                  });
          if (serve::admitted(status)) {
            ++admitted;
            ++pending;
          } else {
            ++rejected;
          }
        }
        submitted_any = true;
      }
      const auto tp = clk::now();
      submit_s += seconds_between(ts, tp);
      bool worked = false;
      {
        span p("serve.pump", round);
        worked = srv->pump();
      }
      pump_s += seconds_between(tp, clk::now());
      ++pumps;
      if (!submitted_any && !worked) break;
    }
    {
      span d("serve.drain", round);
      srv->drain();
    }
    hist::check_result cr;
    {
      span c("serve.check", round);
      cr = srv->check();
    }
    const auto t2 = clk::now();
    const serve::stats ss = srv->snapshot();

    // Lost / duplicated completions and per-session order.
    if (admitted != total_ops - rejected || ss.completed != admitted ||
        ledger.callbacks != admitted || ss.inflight != 0) {
      st.wrong("serve_soak: lost completions (admitted " +
               std::to_string(admitted) + ", completed " +
               std::to_string(ss.completed) + ", callbacks " +
               std::to_string(ledger.callbacks) + ")");
    }
    if (ledger.dups != 0) st.wrong("serve_soak: duplicated completions");
    if (ledger.order_violations != 0) {
      st.wrong("serve_soak: per-session order broken");
    }
    if (ss.moves.empty()) {
      st.wrong("serve_soak: the skew triggered no rebalance move");
    }

    // Per-object accounting. server::check is one aggregate verdict whose
    // failure names the worst offender — the failing object that expanded
    // the most search nodes. An over-cap history fails before the search
    // (0 nodes), so a worst offender over the cap means every failing object
    // is over the cap; one at or under the cap is a real violation. (With
    // migrations, as required above, the sharded check visits every object.)
    std::vector<std::uint64_t> records(in.objects.size(), 0);
    for (const hist::event& e : srv->events()) {
      if (e.kind == hist::event_kind::invoke) ++records[e.desc.object];
      if (e.kind == hist::event_kind::recover_result &&
          e.verdict == hist::recovery_verdict::fail) {
        --records[e.desc.object];
      }
    }
    std::uint64_t certified_ops = 0, over_cap = 0;
    for (const declared_object& o : in.objects) {
      if (records[o.id] > g_cap) {
        ++over_cap;
      } else {
        certified_ops += o.ops;
      }
    }
    if (!cr.ok) {
      const bool explained = cr.failed_object >= 0 &&
                             records[static_cast<std::size_t>(
                                 cr.failed_object)] > g_cap &&
                             !cr.inconclusive;
      if (!explained) st.wrong("serve_soak certificate: " + cr.message);
    } else if (over_cap != 0) {
      st.wrong("serve_soak: over-cap objects yet the check passed");
    }

    pr.setup_s.push_back(seconds_between(t0, t1));
    pr.add_unit(seconds_between(t1, t2), b.traced(round));
    pr.ops += total_ops;
    pr.certified_ops += certified_ops;
    st.attempted += total_ops;
    st.failed += rejected;
    st.pin("sim.steps", ss.steps);
    st.pin("sim.crashes", ss.crashes);
    st.pin("nvm.cells", ss.nvm_cells);
    st.pin("history.nodes", cr.nodes);
    st.pin("history.objects_over_cap", over_cap);
    st.pin("serve.moves", ss.moves.size());

    std::uint64_t max_depth = 0;
    for (const serve::shard_stats& sh : ss.shards) {
      max_depth = std::max(max_depth, sh.max_queue_depth);
    }
    acc["submit_s"] += submit_s;
    acc["submits"] += static_cast<double>(admitted + rejected);
    acc["pump_s"] += pump_s;
    acc["pumps"] += static_cast<double>(pumps);
    acc["rounds"] += static_cast<double>(ss.rounds);
    acc["batch_ops"] += ss.mean_batch_ops;
    acc["max_queue_depth"] =
        std::max(acc["max_queue_depth"], static_cast<double>(max_depth));
    acc["moves"] += static_cast<double>(ss.moves.size());
    acc["rejected"] += static_cast<double>(ss.rejected_total());
    acc["steps"] += static_cast<double>(ss.steps);
    acc["crashes"] += static_cast<double>(ss.crashes);
    acc["nvm_cells"] = static_cast<double>(ss.nvm_cells);
    acc["nvm_bytes"] = static_cast<double>(ss.nvm_bytes);
    acc["nodes"] += static_cast<double>(cr.nodes);
    acc["objects_certified"] +=
        static_cast<double>(in.objects.size() - over_cap);
    acc["objects_over_cap"] += static_cast<double>(over_cap);
    acc["ops"] += static_cast<double>(total_ops);
    acc["completions"] += static_cast<double>(ss.completed);
    acc["probes"] += 1.0;
  }
  return pr;
}

// ===========================================================================
// theory_bfs

// Algorithm 2 at N=2 over domain 3 and Algorithm 1 quiescent at N=3: the
// shared-configuration counts are the paper's quantities and are pinned;
// total state counts are guarded (a symmetry reduction may lower them).
constexpr std::uint64_t k_cas_shared = 12;
constexpr std::uint64_t k_rw_shared = 481;

pass_result theory_pass(run_state& st, const budget& b,
                        std::map<std::string, double>& acc_traced) {
  pass_result pr;
  // Set-up: the smallest instances of both models (faults in code and the
  // allocator before the timed instances). Repeated; the median counts.
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = clk::now();
    (void)theory::bfs_configurations(2, 2);
    (void)theory::rw_quiescent_reachability(2, 2);
    pr.setup_s.push_back(seconds_between(t0, clk::now()));
  }
  std::map<std::string, double> discard;
  const auto start = clk::now();
  for (std::size_t i = 0; b.more(i, start); ++i) {
    auto& acc = begin_unit(b, i, acc_traced, discard);
    span root("bench.instance_pair", i);
    const auto t0 = clk::now();
    theory::config_count cas, rw;
    {
      span c("theory.cas_bfs", i);
      cas = theory::bfs_configurations(2, 3);
    }
    const auto t1 = clk::now();
    {
      span r("theory.rw_quiescent", i);
      rw = theory::rw_quiescent_reachability(3, 2);
    }
    const auto t2 = clk::now();
    pr.add_unit(seconds_between(t0, t2), b.traced(i));
    st.attempted += 2;
    if (!cas.complete || cas.shared_configs != k_cas_shared) {
      ++st.failed;
      st.wrong("theory: Algorithm 2 BFS found " +
               std::to_string(cas.shared_configs) + " shared configurations");
    }
    if (!rw.complete || rw.shared_configs != k_rw_shared) {
      ++st.failed;
      st.wrong("theory: Algorithm 1 quiescent BFS found " +
               std::to_string(rw.shared_configs) + " shared configurations");
    }
    st.pin("theory.cas_states", cas.total_configs);
    st.pin("theory.rw_shared_configs", rw.shared_configs);
    st.pin("theory.rw_states", rw.total_configs);
    const std::uint64_t states = cas.total_configs + rw.total_configs;
    pr.ops += states;
    pr.certified_ops += states;
    acc["cas_s"] += seconds_between(t0, t1);
    acc["cas_states"] = static_cast<double>(cas.total_configs);
    acc["rw_s"] += seconds_between(t1, t2);
    acc["rw_shared"] = static_cast<double>(rw.shared_configs);
    acc["probes"] += 1.0;
  }
  return pr;
}

// ===========================================================================
// Command line

struct pass_output {
  pass_result pr;
  std::map<std::string, double> acc;
  std::vector<double> latency_us;  // serve only
};

pass_output run_pass(const std::string& workload, run_state& st,
                     const budget& b) {
  pass_output out;
  if (workload == "fuzz_campaign") {
    // One OS thread: the replays check_scenario builds internally pick their
    // sharded worker pool size from this documented override (1 = inline).
    ::setenv("DETECT_POOL_THREADS", "1", 1);
    // Traced blocks span the whole kind rotation, so traced and untraced
    // units see the same kind mix.
    budget fb = b;
    fb.min_units = std::max(fb.min_units, k_fuzz_guard_prefix);
    fb.block = api::object_registry::global().kinds().size();
    out.pr = fuzz_pass(st, fb, out.acc);
  } else if (workload == "kv_skewed") {
    out.pr = kv_pass(st, b, out.acc);
  } else if (workload == "serve_soak") {
    out.pr = serve_pass(st, b, out.acc, out.latency_us);
  } else if (workload == "theory_bfs") {
    out.pr = theory_pass(st, b, out.acc);
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  return out;
}

void end_to_end_metrics(run_state& st, const pass_output& o) {
  const pass_result& pr = o.pr;
  st.put("setup_s", median(pr.setup_s), "s");
  st.put("certified_ops_per_s",
         static_cast<double>(pr.certified_ops) / pr.verdict_wall_s(), "ops/s");
  st.put("certified_op_frac",
         static_cast<double>(pr.certified_ops) / static_cast<double>(pr.ops),
         "ratio");
  st.put("verdict_p50_ms", median(pr.unit_s) * 1e3, "ms");
  st.put("peak_rss_mb", peak_rss_mb(), "MB");
}

void per_layer_metrics(run_state& st, const pass_output& o) {
  const pass_result& pr = o.pr;
  auto acc = [&o](const char* k) {
    const auto it = o.acc.find(k);
    return it == o.acc.end() ? 0.0 : it->second;
  };
  auto us_per = [](std::pair<double, std::uint64_t> t) {
    return t.second == 0 ? 0.0 : t.first * 1e6 / static_cast<double>(t.second);
  };
  auto ratio = [](double a, double b) { return b == 0.0 ? 0.0 : a / b; };
  const std::vector<double> traced_s = pr.unit_times(true);
  const std::vector<double> untraced_s = pr.unit_times(false);
  const double units = static_cast<double>(traced_s.size());
  const double probes = acc("probes");
  double traced_wall_s = 0.0;
  for (double u : traced_s) traced_wall_s += u;

  // fuzz
  st.put("fuzz.generate_us", us_per(g_trace.total("fuzz.generate")), "us");
  st.put("fuzz.check_scenario_us", us_per(g_trace.total("fuzz.check_scenario")),
         "us");
  st.put("fuzz.replays_per_scenario", ratio(acc("replays"), units), "count");
  st.put("fuzz.diff_variant_us", us_per(g_trace.total("fuzz.diff_variant")),
         "us");
  st.put("fuzz.diff_sharded_us", us_per(g_trace.total("fuzz.diff_sharded")),
         "us");
  const bool fuzz = o.acc.count("replays") != 0;
  st.put("fuzz.scenarios_per_s", fuzz ? ratio(units, traced_wall_s) : 0.0,
         "1/s");
  st.put("fuzz.verdict_p99_ms", fuzz ? quantile(traced_s, 0.99) * 1e3 : 0.0,
         "ms");

  // api
  const auto build_single = g_trace.total("api.build_single");
  const auto build_sharded = g_trace.total("api.build_sharded");
  const auto add = g_trace.total("api.add");
  const auto script = g_trace.total("api.script");
  st.put("api.build_single_us", us_per(build_single), "us");
  st.put("api.build_sharded_us", us_per(build_sharded), "us");
  // Share of a decomposed replay (build + add + script + run + events +
  // check) spent building executors.
  const double replay_s = build_single.first + build_sharded.first +
                          add.first + script.first +
                          g_trace.total("sim.run").first +
                          g_trace.total("history.events").first +
                          g_trace.total("history.check").first;
  st.put("api.build_share",
         ratio(build_single.first + build_sharded.first, replay_s), "ratio");
  st.put("api.add_us_per_object", ratio(add.first * 1e6, acc("objects_added")),
         "us");
  st.put("api.script_us_per_op", ratio(script.first * 1e6, acc("ops_scripted")),
         "us");

  // sim
  const double run_s = g_trace.total("sim.run").first;
  const double steps = acc("steps");
  st.put("sim.run_s", ratio(run_s, probes), "s");
  st.put("sim.steps", ratio(steps, probes), "count");
  st.put("sim.ns_per_step", ratio(run_s * 1e9, steps), "ns");
  st.put("sim.steps_per_op", ratio(steps, acc("ops")), "count");
  st.put("sim.steps_per_op_sharded",
         ratio(acc("sharded_steps"), ratio(acc("ops"), probes)), "count");
  st.put("sim.crashes", ratio(acc("crashes"), probes), "count");
  st.put("sim.drain_steps", ratio(acc("drain_steps"), probes), "count");
  st.put("sim.max_pending_stores", acc("max_pending"), "count");
  st.put("sim.ops_per_s", ratio(acc("ops"), run_s), "ops/s");

  // nvm — the paper's space quantity (per unit for fuzz, per run otherwise)
  const bool per_scenario = fuzz;
  st.put("nvm.cells",
         per_scenario ? ratio(acc("nvm_cells"), probes) : acc("nvm_cells"),
         "count");
  st.put("nvm.bytes",
         per_scenario ? ratio(acc("nvm_bytes"), probes) : acc("nvm_bytes"),
         "bytes");

  // history
  const double check_s = g_trace.total("history.check").first +
                         g_trace.total("serve.check").first;
  st.put("history.events_s", ratio(g_trace.total("history.events").first, units),
         "s");
  st.put("history.check_s", ratio(check_s, units), "s");
  st.put("history.project_s",
         ratio(g_trace.total("history.project").first, units), "s");
  st.put("history.linearize_s",
         ratio(g_trace.total("history.linearize").first, units), "s");
  st.put("history.nodes", ratio(acc("nodes"), units), "count");
  st.put("history.objects_certified", ratio(acc("objects_certified"), units),
         "count");
  st.put("history.objects_over_cap", ratio(acc("objects_over_cap"), units),
         "count");
  st.put("history.objects_violating", ratio(acc("objects_violating"), units),
         "count");
  st.put("history.objects_inconclusive",
         ratio(acc("objects_inconclusive"), units), "count");
  st.put("failed_op_frac",
         pr.ops == 0 ? 0.0
                     : 1.0 - static_cast<double>(pr.certified_ops) /
                                 static_cast<double>(pr.ops),
         "ratio");

  // serve
  st.put("serve.submit_ns", ratio(acc("submit_s") * 1e9, acc("submits")), "ns");
  st.put("serve.pump_ms", ratio(acc("pump_s") * 1e3, acc("pumps")), "ms");
  st.put("serve.rounds", ratio(acc("rounds"), units), "count");
  st.put("serve.mean_batch_ops", ratio(acc("batch_ops"), units), "count");
  st.put("serve.max_queue_depth", acc("max_queue_depth"), "count");
  st.put("serve.moves", ratio(acc("moves"), units), "count");
  st.put("serve.rejected", acc("rejected"), "count");
  st.put("serve.check_s", ratio(g_trace.total("serve.check").first, units), "s");
  st.put("serve.p50_us", median(o.latency_us), "us");
  st.put("serve.p99_us", quantile(o.latency_us, 0.99), "us");
  st.put("serve.ops_per_s",
         ratio(acc("completions"), acc("submit_s") + acc("pump_s")), "ops/s");

  // theory
  const double cas_s = acc("cas_s"), rw_s = acc("rw_s");
  st.put("theory.cas_bfs_s", ratio(cas_s, units), "s");
  st.put("theory.cas_states", acc("cas_states"), "count");
  st.put("theory.cas_states_per_s", ratio(acc("cas_states") * units, cas_s),
         "1/s");
  st.put("theory.rw_quiescent_s", ratio(rw_s, units), "s");
  st.put("theory.rw_shared_configs", acc("rw_shared"), "count");
  st.put("theory.bfs_s", ratio(cas_s + rw_s, units), "s");

  // Self time per layer over the traced units, and the tracing overhead:
  // the traced units' median verdict-path time against the untraced ones'.
  const std::map<std::string, double> self = g_trace.self_seconds_by_layer();
  for (const char* layer :
       {"bench", "fuzz", "api", "sim", "history", "serve", "theory"}) {
    const auto it = self.find(layer);
    st.put(std::string(layer) + ".self_s", it == self.end() ? 0.0 : it->second,
           "s");
  }
  st.put("trace.overhead_frac", ratio(median(traced_s), median(untraced_s)) - 1.0,
         "ratio");
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(const run_state& st) {
  std::string out = "{\"correct\": ";
  out += st.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(st.attempted);
  out += ", \"failed\": " + std::to_string(st.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < st.metrics.size(); ++i) {
    const metric& m = st.metrics[i];
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
           json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}, \"guard\": {";
  std::size_t i = 0;
  for (const auto& [k, v] : st.guard) {
    out += (i++ ? ", \"" : "\"") + k + "\": " + std::to_string(v);
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload fuzz_campaign|kv_skewed|"
               "serve_soak|theory_bfs --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_out;
  run_state st;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        workload = v;
      } else if (a == "--seed") {
        st.seed = std::stoull(v);
      } else if (a == "--seconds") {
        st.seconds = std::stod(v);
      } else if (a == "--trace") {
        trace = v == "1";
      } else if (a == "--trace-out") {
        trace_out = v;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (workload.empty() || !(st.seconds > 0.0)) return usage();

  // Fixed glibc heap thresholds. Left adaptive, they depend on the largest
  // block a run happened to free first: in the low regime the heap is
  // trimmed after nearly every fuzz replay and the next one re-faults the
  // fiber stacks, which on a shared VM swung fuzz_campaign 2x between
  // identical runs. Every block below 256 MiB comes from the heap, which
  // is not trimmed; a low mmap threshold instead turns large blocks into
  // fresh mappings each time (the quiescent BFS went from 0.2 to 280 ms).
  ::mallopt(M_MMAP_THRESHOLD, 256 << 20);
  ::mallopt(M_TRIM_THRESHOLD, 512 << 20);

  try {
    g_cap = probe_checker_cap();
    self_test(st);
    if (!trace) {
      end_to_end_metrics(st, run_pass(workload, st, {.seconds = st.seconds}));
    } else {
      // Traced and untraced units alternate; the attribution probes run
      // after traced units, outside the verdict-path timer.
      per_layer_metrics(st, run_pass(workload, st,
                                     {.seconds = st.seconds,
                                      .min_units = 4,
                                      .alternate = true}));
      if (!trace_out.empty()) g_trace.write_chrome(trace_out);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  print_result(st);
  return st.correct ? 0 : 1;
}
