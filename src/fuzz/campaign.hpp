// campaign — multi-process fuzz campaign supervisor.
//
// A campaign_config is a plain aggregate, like fuzz_options: the per-worker
// engine options plus the campaign-level concerns (job count, artifact dir,
// coverage output, quiet):
//
//   fuzz::campaign_config cfg;
//   cfg.options.iterations = 300000;
//   cfg.options.base_seed = 42;
//   cfg.options.steer = true;
//   cfg.options.corpus_dir = "corpus/";
//   cfg.jobs = 4;
//   cfg.artifact_dir = "fuzz-artifacts/";
//   cfg.coverage_out = "coverage.json";
//   auto r = fuzz::run_campaign(cfg);
//
// jobs <= 1 runs run_fuzz inline — byte-identical to the pre-campaign CLI.
// jobs > 1 forks N worker processes (POSIX; non-POSIX hosts fall back to the
// inline path with a note). The iteration range [0, iterations) is
// partitioned into N contiguous slices; every worker derives its scenarios
// from the same (base_seed, absolute-iteration) stream, so the campaign
// covers exactly the serial campaign's scenario set, N-ways parallel.
// Workers cross-pollinate steering corpora through the shared corpus
// directory and write shrunk failure artifacts into the artifact dir. Each
// worker hands back the record the inline path returns — its worker_report
// plus its coverage_stats — in a `worker-N.summary` file; the parent merges
// them into one coverage_stats (executed sums, buckets union with first-
// discovery provenance, per-strategy and per-visibility tables recomputed
// from the union by the same axis_tally run_fuzz uses) and writes it with
// the same coverage_stats::to_json, adding `jobs` and the `workers` table.
// A worker that dies without reporting (signal, OOM) is flagged `lost` and
// fails the campaign — silence is never success.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "fuzz/fuzzer.hpp"

namespace detect::fuzz {

struct campaign_config {
  /// The per-worker engine options (iterations, seed, steering, kinds,
  /// generator config). A forked campaign with no corpus_dir shares one at
  /// `<artifact_dir>/corpus`.
  fuzz_options options;
  /// Worker processes. 1 (default) = inline in this process; N > 1 forks N
  /// workers over a partition of the iteration range (clamped to the
  /// iteration count — a 3-iteration --jobs 8 campaign forks 3 workers).
  int jobs = 1;
  /// Where failure artifacts and per-worker summaries land. Forked
  /// campaigns require one (failures in a child are otherwise unreportable
  /// in full); run_campaign defaults it to "fuzz-artifacts" when jobs > 1
  /// and none is set.
  std::string artifact_dir;
  /// Coverage JSON path ("" = don't write). Inline campaigns write the
  /// classic single-campaign shape; forked campaigns add `jobs` and a
  /// per-worker `workers` table.
  std::string coverage_out;
  bool quiet = false;
};

/// Partition `total` iterations into at most `jobs` contiguous
/// (first_iteration, count) slices: every iteration covered exactly once, the
/// remainder spread one-each over the leading workers, empty slices dropped.
std::vector<std::pair<std::uint64_t, std::uint64_t>> partition_iterations(
    std::uint64_t total, int jobs);

struct campaign_result {
  /// Inline path: the run's full fuzz_stats. Forked path: merged coverage
  /// (union buckets, summed executed) with `failure` unset — failures live
  /// in the workers' artifacts, pointed at by the reports below.
  fuzz_stats stats;
  std::vector<worker_report> workers;  // one entry even on the inline path
  bool forked = false;
  /// fuzz_main's exit code: 0 clean, 1 failure found, 2 infrastructure
  /// error (including lost workers and unwritable outputs).
  int exit_code = 0;
};

/// Run the campaign `cfg` describes. `progress`, when set and not quiet, is
/// called per iteration on the inline path only (forked workers print their
/// own prefixed lines instead — callbacks cannot cross fork boundaries).
campaign_result run_campaign(
    const campaign_config& cfg,
    const std::function<void(std::uint64_t, std::uint64_t,
                             const std::string&)>& progress = nullptr);

}  // namespace detect::fuzz
