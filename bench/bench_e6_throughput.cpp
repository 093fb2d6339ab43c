// E6 — The runtime cost of detectability (google-benchmark), plus the
// backend×shards throughput sweep of the executor redesign.
//
// The paper notes (§6) that detectability "comes with a price tag in terms
// of space complexity and the need to provide auxiliary state"; this
// experiment quantifies the *time* overhead on real threads: plain objects
// vs Algorithms 1-2 vs the unbounded-id baselines, free-running over the
// detect::api::arena (no simulator hook, emulated NVM in private-cache
// mode). Objects are instantiated from the registry by kind string.
//
// Before the per-object benchmarks, main() runs a throughput sweep over the
// api::executor backends (single, sharded with a --shards list under each
// placement policy, threads) on one scripted multi-counter workload and
// writes the machine-readable BENCH_e6.json (ops/sec plus the per-shard
// op-load distribution per backend×shards×placement) — the perf-trajectory
// data points CI's bench-smoke stage archives. Each row is the median of
// k_sweep_samples timed runs, each on a freshly built executor, with the
// interquartile range of the samples next to it:
//
//   bench_e6_throughput --shards 1,2,4 --sweep-procs 8 --sweep-ops 2000
//                       --json BENCH_e6.json     # all defaults shown
//   DETECT_SMOKE=1 bench_e6_throughput           # tiny sweep parameters
//
// Builds against google-benchmark when installed; otherwise CMake defines
// DETECT_USE_MINI_BENCH and the vendored fixed-iteration timer loop in
// mini_bench.hpp provides the same API subset.
#ifdef DETECT_USE_MINI_BENCH
#include "mini_bench.hpp"
#else
#include <benchmark/benchmark.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hpp"

namespace {

using namespace detect;

constexpr int k_max_threads = 16;

// Shared per-benchmark state, rebuilt by thread 0 at the start of each run.
// Sibling threads synchronize on g_obj_ptr (release-publish / acquire-spin):
// code before google-benchmark's measurement loop runs unsynchronized, so
// they must not touch g_arena/the object until thread 0 has published it.
// Descriptors need no shared state at all — each benchmark uses one object
// and a default-constructed handle already carries its id (0).
api::arena* g_arena = nullptr;
std::atomic<core::detectable_object*> g_obj_ptr{nullptr};
std::atomic<int> g_done{0};

core::detectable_object& setup(benchmark::State& state, const char* kind) {
  if (state.thread_index() == 0) {
    g_done.store(0, std::memory_order_relaxed);
    g_arena = new api::arena(k_max_threads);
    api::object_handle obj = g_arena->add(kind);
    g_obj_ptr.store(&obj.object(), std::memory_order_release);
  } else {
    while (g_obj_ptr.load(std::memory_order_acquire) == nullptr) {
      std::this_thread::yield();
    }
  }
  return *g_obj_ptr.load(std::memory_order_acquire);
}

void teardown(benchmark::State& state) {
  g_done.fetch_add(1, std::memory_order_acq_rel);
  if (state.thread_index() == 0) {
    // Free the arena only once every sibling is done with the object.
    while (g_done.load(std::memory_order_acquire) != state.threads()) {
      std::this_thread::yield();
    }
    g_obj_ptr.store(nullptr, std::memory_order_release);
    delete g_arena;
    g_arena = nullptr;
  }
}

// The caller-side auxiliary resets (Ann_p.resp := ⊥, Ann_p.CP := 0) are part
// of the protocol being measured for detectable objects; plain objects need
// none — exactly the cost gap E6 quantifies.

void bm_register_family(benchmark::State& state, const char* kind,
                        bool aux_resets) {
  core::detectable_object& obj = setup(state, kind);
  int pid = state.thread_index();
  api::reg r;  // descriptor builder for object id 0
  hist::op_desc wr = r.write(pid);
  hist::op_desc rd = r.read();
  for (auto _ : state) {
    if (aux_resets) g_arena->reset_aux(pid);
    obj.invoke(pid, wr);
    if (aux_resets) g_arena->reset_aux(pid);
    benchmark::DoNotOptimize(obj.invoke(pid, rd));
  }
  state.SetItemsProcessed(state.iterations() * 2);
  teardown(state);
}

void bm_cas_family(benchmark::State& state, const char* kind, bool aux_resets) {
  core::detectable_object& obj = setup(state, kind);
  int pid = state.thread_index();
  api::cas c;  // descriptor builder for object id 0
  for (auto _ : state) {
    if (aux_resets) g_arena->reset_aux(pid);
    hist::value_t cur = obj.invoke(pid, c.read());
    if (aux_resets) g_arena->reset_aux(pid);
    benchmark::DoNotOptimize(obj.invoke(pid, c.compare_and_set(cur, cur + 1)));
  }
  state.SetItemsProcessed(state.iterations());
  teardown(state);
}

void bm_plain_register(benchmark::State& state) {
  bm_register_family(state, "plain_reg", /*aux_resets=*/false);
}
void bm_detectable_register(benchmark::State& state) {
  bm_register_family(state, "reg", /*aux_resets=*/true);
}
void bm_attiya_register(benchmark::State& state) {
  bm_register_family(state, "attiya_reg", /*aux_resets=*/true);
}

void bm_plain_cas(benchmark::State& state) {
  bm_cas_family(state, "plain_cas", /*aux_resets=*/false);
}
void bm_detectable_cas(benchmark::State& state) {
  bm_cas_family(state, "cas", /*aux_resets=*/true);
}
void bm_bendavid_cas(benchmark::State& state) {
  bm_cas_family(state, "bendavid_cas", /*aux_resets=*/true);
}

void bm_detectable_counter(benchmark::State& state) {
  core::detectable_object& obj = setup(state, "counter");
  int pid = state.thread_index();
  api::counter c;  // descriptor builder for object id 0
  hist::op_desc op = c.add(1);
  for (auto _ : state) {
    g_arena->reset_aux(pid);
    benchmark::DoNotOptimize(obj.invoke(pid, op));
  }
  state.SetItemsProcessed(state.iterations());
  teardown(state);
}

void bm_max_register(benchmark::State& state) {
  core::detectable_object& obj = setup(state, "max_reg");
  int pid = state.thread_index();
  api::max_reg m;  // descriptor builder for object id 0
  std::int64_t v = 0;
  for (auto _ : state) {
    // Algorithm 3 needs no auxiliary resets at all — §5's separation.
    benchmark::DoNotOptimize(obj.invoke(pid, m.write_max(++v)));
  }
  state.SetItemsProcessed(state.iterations());
  teardown(state);
}

// ---------------------------------------------------------------------------
// Backend×shards throughput sweep (the executor redesign's data points).

constexpr int k_sweep_samples = 5;

struct sweep_cfg {
  std::vector<int> shard_counts = {1, 2, 4};
  int procs = 8;
  int objects = 8;
  int ops_per_proc = 2000;
  std::string json_path = "BENCH_e6.json";
};

struct sweep_row {
  const char* backend;
  int shards;
  const char* placement;
  std::vector<std::uint64_t> shard_load;  // scripted ops per shard
  std::uint64_t ops;
  double seconds;      // median over the samples
  double ops_per_sec;  // ops / median seconds = median ops/s
  /// Spread of the samples' ops/s: third minus first quartile (the 2nd and
  /// 4th of the 5 sorted samples).
  double ops_per_sec_iqr = 0.0;
  /// Throughput relative to the sharded K=1 row (ops/s at K ÷ ops/s at 1) —
  /// the scaling trajectory CI's job summary renders. 1.0 for the baseline
  /// row itself; K rows below 1.0 mean sharding is a net loss at that K.
  double scaling_efficiency = 0.0;
};

/// One scripted multi-counter workload, identical across backends and
/// placements: every proc runs `ops_per_proc` fetch-and-adds round-robin
/// over the objects. Returns the run's wall time; fills the per-shard load.
double time_sweep_sample(api::exec_backend be, int shards,
                         api::placement_kind placement, const sweep_cfg& cfg,
                         std::vector<std::uint64_t>* shard_load) {
  api::placement_policy pol;
  pol.kind = placement;
  auto ex = api::executor::builder()
                .backend(be)
                .shards(be == api::exec_backend::sharded ? shards : 1)
                .placement(pol)
                .procs(cfg.procs)
                .max_steps(1'000'000'000ULL)
                .build();
  std::vector<api::counter> objs;
  objs.reserve(static_cast<std::size_t>(cfg.objects));
  for (int i = 0; i < cfg.objects; ++i) objs.push_back(ex->add_counter());

  shard_load->assign(static_cast<std::size_t>(ex->shards()), 0);
  for (int p = 0; p < cfg.procs; ++p) {
    std::vector<hist::op_desc> script;
    script.reserve(static_cast<std::size_t>(cfg.ops_per_proc));
    for (int i = 0; i < cfg.ops_per_proc; ++i) {
      const api::counter& obj =
          objs[static_cast<std::size_t>((p + i) % cfg.objects)];
      (*shard_load)[static_cast<std::size_t>(ex->shard_of(obj.id()))] += 1;
      script.push_back(obj.add(1));
    }
    ex->script(p, std::move(script));
  }

  auto start = std::chrono::steady_clock::now();
  ex->run();
  auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

sweep_row run_sweep_config(api::exec_backend be, int shards,
                           api::placement_kind placement,
                           const sweep_cfg& cfg) {
  sweep_row row;
  row.backend = api::backend_name(be);
  row.shards = shards;
  row.placement = api::placement_name(placement);
  row.ops = static_cast<std::uint64_t>(cfg.procs) *
            static_cast<std::uint64_t>(cfg.ops_per_proc);
  std::vector<double> secs;
  for (int s = 0; s < k_sweep_samples; ++s) {
    secs.push_back(
        time_sweep_sample(be, shards, placement, cfg, &row.shard_load));
  }
  std::sort(secs.begin(), secs.end());
  auto rate = [&](double sec) {
    return sec > 0 ? static_cast<double>(row.ops) / sec : 0.0;
  };
  row.seconds = secs[k_sweep_samples / 2];
  row.ops_per_sec = rate(row.seconds);
  // Rates sort opposite to times: the fast quartile is the short time.
  row.ops_per_sec_iqr = rate(secs[1]) - rate(secs[k_sweep_samples - 2]);
  return row;
}

void run_shards_sweep(const sweep_cfg& cfg) {
  std::printf("== executor backend x shards x placement sweep (%d procs, "
              "%d objects, %d ops/proc, median of %d samples) ==\n",
              cfg.procs, cfg.objects, cfg.ops_per_proc, k_sweep_samples);
  std::vector<sweep_row> rows;
  rows.push_back(run_sweep_config(api::exec_backend::single, 1,
                                  api::placement_kind::modulo, cfg));
  for (int k : cfg.shard_counts) {
    // Placement only changes routing when there is more than one world; a
    // one-shard sweep point carries the modulo row alone.
    if (k <= 1) {
      rows.push_back(run_sweep_config(api::exec_backend::sharded, k,
                                      api::placement_kind::modulo, cfg));
      continue;
    }
    for (api::placement_kind pk :
         {api::placement_kind::modulo, api::placement_kind::hash,
          api::placement_kind::range}) {
      rows.push_back(run_sweep_config(api::exec_backend::sharded, k, pk, cfg));
    }
  }
  rows.push_back(run_sweep_config(api::exec_backend::threads, 1,
                                  api::placement_kind::modulo, cfg));

  // Scaling baseline: the sharded K=1 row when the sweep ran one (the
  // single-backend row otherwise) — efficiency at K is measured against one
  // world behind the same sharded machinery.
  double base = 0.0;
  for (const sweep_row& r : rows) {
    if (std::strcmp(r.backend, "sharded") == 0 && r.shards == 1) {
      base = r.ops_per_sec;
      break;
    }
  }
  if (base <= 0.0) base = rows.front().ops_per_sec;
  for (sweep_row& r : rows) {
    r.scaling_efficiency = base > 0.0 ? r.ops_per_sec / base : 0.0;
  }

  for (const sweep_row& r : rows) {
    std::printf("%-8s shards=%-2d %-7s  %10llu ops  %8.3f s  %12.0f ops/s  "
                "iqr=%-10.0f scale=%.2fx  load=[",
                r.backend, r.shards, r.placement,
                static_cast<unsigned long long>(r.ops), r.seconds,
                r.ops_per_sec, r.ops_per_sec_iqr, r.scaling_efficiency);
    for (std::size_t k = 0; k < r.shard_load.size(); ++k) {
      std::printf("%s%llu", k != 0 ? " " : "",
                  static_cast<unsigned long long>(r.shard_load[k]));
    }
    std::printf("]\n");
  }
  std::fflush(stdout);

  std::ofstream out(cfg.json_path);
  if (!out) {
    std::fprintf(stderr, "bench_e6: cannot write '%s'\n",
                 cfg.json_path.c_str());
    return;
  }
  out << "{\n  \"bench\": \"e6_backend_shards_sweep\",\n"
      << "  \"config\": {\"procs\": " << cfg.procs
      << ", \"objects\": " << cfg.objects
      << ", \"ops_per_proc\": " << cfg.ops_per_proc
      << ", \"samples\": " << k_sweep_samples << "},\n"
      << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const sweep_row& r = rows[i];
    out << "    {\"backend\": \"" << r.backend << "\", \"shards\": "
        << r.shards << ", \"placement\": \"" << r.placement
        << "\", \"shard_load\": [";
    for (std::size_t k = 0; k < r.shard_load.size(); ++k) {
      out << (k != 0 ? ", " : "") << r.shard_load[k];
    }
    out << "], \"ops\": " << r.ops << ", \"seconds\": " << r.seconds
        << ", \"ops_per_sec\": " << r.ops_per_sec
        << ", \"ops_per_sec_iqr\": " << r.ops_per_sec_iqr
        << ", \"scaling_efficiency\": " << r.scaling_efficiency << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %s\n\n", cfg.json_path.c_str());
}

/// Parse "1,2,4" into shard counts; returns false on junk.
bool parse_shard_list(const char* text, std::vector<int>* out) {
  out->clear();
  const char* p = text;
  while (*p != '\0') {
    char* end = nullptr;
    long v = std::strtol(p, &end, 10);
    if (end == p || v < 1) return false;
    out->push_back(static_cast<int>(v));
    p = end;
    if (*p == ',') {
      ++p;
      if (*p == '\0') return false;  // trailing comma
    } else if (*p != '\0') {
      return false;
    }
  }
  return !out->empty();
}

}  // namespace

BENCHMARK(bm_plain_register)->Threads(1)->Threads(2)->Threads(4)->UseRealTime();
BENCHMARK(bm_detectable_register)->Threads(1)->Threads(2)->Threads(4)->UseRealTime();
BENCHMARK(bm_attiya_register)->Threads(1)->Threads(2)->Threads(4)->UseRealTime();
BENCHMARK(bm_plain_cas)->Threads(1)->Threads(2)->Threads(4)->UseRealTime();
BENCHMARK(bm_detectable_cas)->Threads(1)->Threads(2)->Threads(4)->UseRealTime();
BENCHMARK(bm_bendavid_cas)->Threads(1)->Threads(2)->Threads(4)->UseRealTime();
BENCHMARK(bm_detectable_counter)->Threads(1)->Threads(2)->UseRealTime();
BENCHMARK(bm_max_register)->Threads(1)->Threads(2)->UseRealTime();

// Custom main: run the backend×shards sweep first (consuming its flags),
// then hand the remaining argv to the benchmark library.
int main(int argc, char** argv) {
  sweep_cfg cfg;
  if (std::getenv("DETECT_SMOKE") != nullptr) {
    cfg.shard_counts = {1, 2};
    cfg.procs = 4;
    cfg.ops_per_proc = 100;
  }
  bool sweep = true;
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_e6: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--shards") == 0) {
      const char* text = need_value("--shards");
      if (!parse_shard_list(text, &cfg.shard_counts)) {
        std::fprintf(stderr, "bench_e6: bad --shards list '%s'\n", text);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--sweep-procs") == 0) {
      cfg.procs = std::atoi(need_value("--sweep-procs"));
    } else if (std::strcmp(argv[i], "--sweep-ops") == 0) {
      cfg.ops_per_proc = std::atoi(need_value("--sweep-ops"));
    } else if (std::strcmp(argv[i], "--json") == 0) {
      cfg.json_path = need_value("--json");
    } else if (std::strcmp(argv[i], "--no-sweep") == 0) {
      sweep = false;
    } else {
      rest.push_back(argv[i]);
    }
  }
  if (cfg.procs < 1 || cfg.ops_per_proc < 1) {
    std::fprintf(stderr, "bench_e6: --sweep-procs/--sweep-ops must be >= 1\n");
    return 2;
  }
  if (sweep) run_shards_sweep(cfg);

  int rest_argc = static_cast<int>(rest.size());
#ifdef DETECT_USE_MINI_BENCH
  return benchmark::internal::run_all(rest_argc, rest.data());
#else
  benchmark::Initialize(&rest_argc, rest.data());
  if (benchmark::ReportUnrecognizedArguments(rest_argc, rest.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
#endif
}
