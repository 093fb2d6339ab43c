// fuzzer — the campaign engine tying generator, coverage map, differ, and
// shrinker together.
//
// One iteration: derive the iteration seed, pick a primary kind
// (round-robin over the configured kind list), obtain a scenario — freshly
// generated, or, when steering is on, a mutation of a bucket-novel corpus
// seed aimed at an unseen scenario-key — replay it under the
// durable-linearizability + detectability oracle (including the
// single-vs-sharded equivalence diff), then differentially replay it with
// each declared object substituted by every registered variant of its kind.
// Every passing execution's bucket signature feeds the coverage map; seeds
// that discover a new bucket join the in-memory corpus that steering
// mutates preferentially. The first failing iteration stops the campaign;
// its scenario is greedily shrunk under the same oracle and reported as
// seed + original dump + shrunk dump — the artifact CI uploads and
// `fuzz_main --replay` reproduces.
//
// A run's record is its fuzz_stats (coverage_stats is what `coverage.json`
// serializes) plus the worker_report a campaign supervisor keeps per run.
// The forked campaign (campaign.hpp) ships exactly these two records
// through each worker's summary file and merges them with the same per-axis
// tally run_fuzz builds its tables with, so the inline and forked paths
// write coverage.json through the one coverage_stats::to_json.
#pragma once

#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "fuzz/coverage.hpp"
#include "fuzz/differ.hpp"
#include "fuzz/scenario_gen.hpp"
#include "fuzz/shrinker.hpp"

namespace detect::fuzz {

struct fuzz_options {
  std::uint64_t base_seed = 1;
  std::uint64_t iterations = 100;
  /// First iteration index of this run's slice. A campaign's iteration
  /// stream is a pure function of (base_seed, iteration), so a worker
  /// running [first_iteration, first_iteration + iterations) executes
  /// exactly that slice of the serial campaign — the partition
  /// run_campaign() hands each forked worker. Kind rotation and iteration
  /// seeds both key on the absolute index, keeping a partitioned campaign's
  /// scenario set identical to the serial one.
  std::uint64_t first_iteration = 0;
  /// Kinds to fuzz; empty → every registry kind (non-detectable kinds get
  /// crash-free scenarios, see scenario_gen). Also the default
  /// object_kind_pool extra objects draw from when the gen config leaves it
  /// empty.
  std::vector<std::string> kinds;
  gen_config gen;
  /// Differentially replay against each declared object's kind variants.
  bool diff = true;
  /// Placement-equivalence campaign: every scenario with a shard knob also
  /// replays under modulo vs hash vs range placement, requiring identical
  /// verdicts (and response streams when single-object). The CI
  /// `--fuzz-placement` stage arms this with min_shards = 2.
  bool placement_equiv = false;
  /// Shrink the first failing scenario before reporting it.
  bool shrink = true;
  /// Coverage-steered generation: mutate bucket-novel corpus seeds toward
  /// unseen scenario-keys (7 of every 8 iterations once the corpus is
  /// non-empty; the rest stay freshly generated). Coverage is *tracked*
  /// either way — this knob only changes where scenarios come from, which
  /// is what the steered-vs-random acceptance test compares.
  bool steer = false;
  /// Per-object checker fan-out threaded into every oracle replay (see
  /// hist::check_options::jobs). Verdict-identical to serial; 1 = serial.
  int check_jobs = 1;
  /// Shared on-disk corpus directory. When non-empty, every scenario that
  /// discovers a new coverage bucket is dumped there (atomic write-then-
  /// rename), and the campaign periodically ingests dumps written by
  /// *other* workers into its steering corpus — how the forked workers of a
  /// `--jobs N` campaign cross-pollinate, and how consecutive nightly runs
  /// resume from each other's discoveries. With steering off the directory
  /// only accumulates dumps. Note: cross-worker ingest order depends on
  /// real-time file visibility, so a steered multi-worker campaign is not
  /// bit-reproducible — failures still are, via the dumped artifact.
  std::string corpus_dir;
  /// This worker's index within a multi-process campaign (names its corpus
  /// dumps; 0 for inline runs).
  int worker_index = 0;
};

/// One corpus entry: the iteration that discovered a new bucket. The
/// campaign is deterministic in (base_seed, options), so (base_seed,
/// iteration) reproduces the scenario; `mutated` records whether it came
/// from the mutation engine or straight from generate().
struct corpus_entry {
  std::uint64_t iteration = 0;
  std::uint64_t seed = 0;
  bool mutated = false;
  std::string bucket;
};

/// Per-schedule-strategy slice of the coverage accounting: how many
/// scenarios each strategy drove and how many distinct buckets they reached
/// — the numbers the PCT-vs-uniform comparison (and job_summary's
/// per-strategy table) are built on.
struct strategy_stats {
  std::string strategy;
  std::uint64_t executed = 0;
  std::size_t distinct_buckets = 0;
  /// (campaign-executed-so-far, this-strategy's-distinct-so-far), one sample
  /// per bucket novel *within the strategy's slice*.
  std::vector<std::pair<std::uint64_t, std::size_t>> timeline;
};

/// One run's outcome as a campaign supervisor sees it: the slice it was
/// assigned, what it executed, and where its failure artifact landed.
struct worker_report {
  int worker = 0;
  std::uint64_t first_iteration = 0;
  std::uint64_t iterations = 0;  // slice size assigned
  std::uint64_t executed = 0;    // iterations actually run
  std::uint64_t replays = 0;
  std::size_t distinct_buckets = 0;  // within this worker's slice
  bool failed = false;  // found a real failure (artifact written)
  bool error = false;   // infrastructure error (exit 2)
  bool lost = false;    // died without reporting (signal/OOM) — flagged red
  std::uint64_t failure_iteration = 0;  // valid when failed
  std::string failure_artifact;         // path, when failed and writable
};

/// Campaign-level coverage accounting — what `coverage.json` serializes.
struct coverage_stats {
  std::uint64_t executed = 0;       // scenarios that ran the full oracle
  std::size_t distinct_buckets = 0;
  bool steered = false;
  /// (executed-so-far, distinct-so-far), one sample per novel bucket.
  std::vector<std::pair<std::uint64_t, std::size_t>> timeline;
  std::vector<corpus_entry> corpus;
  /// One entry per strategy that drove at least one scenario (name-sorted).
  std::vector<strategy_stats> by_strategy;
  /// Same accounting sliced by store-buffer visibility model (sc/tso/pso,
  /// name-sorted; reuses strategy_stats with `strategy` holding the model
  /// name) — the numbers job_summary's per-visibility-model table reads.
  std::vector<strategy_stats> by_visibility;

  /// Machine-readable summary (the `fuzz_main --coverage-out` payload). A
  /// forked campaign passes its worker roll call: the shape then adds
  /// "jobs" (the number of workers), the "workers" table, and on each corpus
  /// entry the "worker" whose slice holds the entry's iteration.
  std::string to_json(std::uint64_t base_seed, std::uint64_t iterations,
                      const std::vector<worker_report>& workers = {}) const;
};

/// The axes coverage_stats slices its per-axis tables by: the bucket-key
/// coordinate each reads, the label its rows carry in coverage.json and in
/// worker summaries, and the table it fills.
struct coverage_axis {
  const char* coord;
  const char* label;
  std::vector<strategy_stats> coverage_stats::*table;
};
inline constexpr coverage_axis coverage_axes[] = {
    {"sched", "strategy", &coverage_stats::by_strategy},
    {"vis", "visibility", &coverage_stats::by_visibility},
};

/// Builds every per-axis table of a coverage_stats: per axis value, the
/// executed count, the distinct bucket set and its new-bucket timeline.
/// run_fuzz records each executed scenario; a forked campaign sums its
/// workers' executed counts and recounts distinct buckets from the bucket
/// union (per-slice distinct counts don't sum across workers).
class axis_tally {
 public:
  /// One executed scenario that landed in `bucket` (a full bucket key);
  /// a bucket new to its axis value samples that value's timeline at the
  /// campaign clock `executed`.
  void record(const std::string& bucket, std::uint64_t executed);
  /// Add a finished run's per-axis executed counts.
  void add_executed(const coverage_stats& run);
  /// Count `bucket` as reached under its axis values (no timeline sample).
  void add_bucket(const std::string& bucket);
  /// Replace `cov`'s per-axis tables with this tally (name-sorted).
  void fill(coverage_stats& cov) const;

 private:
  struct row {
    std::uint64_t executed = 0;
    std::set<std::string> buckets;
    std::vector<std::pair<std::uint64_t, std::size_t>> timeline;
  };
  std::map<std::string, row> rows_[std::size(coverage_axes)];
};

struct fuzz_failure {
  std::uint64_t iteration = 0;
  std::uint64_t base_seed = 0;  // the campaign's --seed
  std::uint64_t seed = 0;       // iteration_seed(base_seed, iteration)
  std::string kind;             // the failing scenario's primary kind
  std::string message;
  api::scripted_scenario scenario;
  api::scripted_scenario shrunk;  // == scenario when shrinking is off

  /// The replayable artifact: metadata + both dumps, one parseable block.
  std::string to_artifact() const;
};

struct fuzz_stats {
  std::uint64_t iterations = 0;  // iterations actually executed
  std::uint64_t replays = 0;     // scenario replays incl. diff + shrink
  coverage_stats coverage;
  std::optional<fuzz_failure> failure;
};

/// Run a fuzz campaign. Stops at the first failure (after shrinking it) or
/// after `opt.iterations` iterations. `progress`, if set, is called before
/// each iteration with (iteration, seed, kind).
fuzz_stats run_fuzz(
    const fuzz_options& opt,
    const std::function<void(std::uint64_t, std::uint64_t,
                             const std::string&)>& progress = nullptr);

}  // namespace detect::fuzz
