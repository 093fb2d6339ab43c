#include "fuzz/campaign.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#define DETECT_CAMPAIGN_FORK 1
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#else
#define DETECT_CAMPAIGN_FORK 0
#endif

namespace detect::fuzz {

namespace fs = std::filesystem;

std::vector<std::pair<std::uint64_t, std::uint64_t>> partition_iterations(
    std::uint64_t total, int jobs) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  if (total == 0 || jobs < 1) return out;
  const std::uint64_t n =
      std::min<std::uint64_t>(total, static_cast<std::uint64_t>(jobs));
  const std::uint64_t base = total / n;
  const std::uint64_t extra = total % n;
  std::uint64_t first = 0;
  for (std::uint64_t w = 0; w < n; ++w) {
    const std::uint64_t count = base + (w < extra ? 1 : 0);
    out.emplace_back(first, count);
    first += count;
  }
  return out;
}

namespace {

std::string summary_path(const std::string& artifact_dir, int worker) {
  return (fs::path(artifact_dir) /
          ("worker-" + std::to_string(worker) + ".summary"))
      .string();
}

/// What a worker hands back to the supervisor — the same worker_report and
/// coverage_stats the inline path returns — serialized line-oriented into
/// `<artifact_dir>/worker-<N>.summary`. Only what the merge reads is
/// written: the slice is the supervisor's own, and per-axis distinct
/// counts and timelines are recomputed from the bucket union. Bucket keys
/// and axis values are space-free by construction, so whitespace tokenizing
/// is safe; the artifact path is a line tail. The files double as the
/// archivable per-worker record the CI lane uploads alongside the failure
/// artifacts.
void write_summary(const std::string& path, const worker_report& w,
                   const coverage_stats& cov) {
  std::ofstream out(path);
  if (!out) return;  // parent flags the worker lost — silence never passes
  out << "executed " << w.executed << "\n";
  out << "replays " << w.replays << "\n";
  out << "failed " << (w.failed ? 1 : 0) << "\n";
  if (w.failed) {
    out << "failure_iteration " << w.failure_iteration << "\n";
    out << "artifact " << w.failure_artifact << "\n";
  }
  for (const coverage_axis& axis : coverage_axes) {
    for (const strategy_stats& st : cov.*axis.table) {
      out << axis.label << " " << st.strategy << " " << st.executed << "\n";
    }
  }
  for (const corpus_entry& e : cov.corpus) {
    out << "bucket " << e.iteration << " " << e.seed << " "
        << (e.mutated ? 1 : 0) << " " << e.bucket << "\n";
  }
  out << "end\n";
}

/// Parse a summary into the worker's report and coverage. False when the
/// file is missing or truncated (no `end` line).
bool read_summary(const std::string& path, worker_report& w,
                  coverage_stats& cov) {
  std::ifstream in(path);
  if (!in) return false;
  bool complete = false;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "executed") {
      ls >> w.executed;
    } else if (tag == "replays") {
      ls >> w.replays;
    } else if (tag == "failed") {
      int v = 0;
      ls >> v;
      w.failed = v != 0;
    } else if (tag == "failure_iteration") {
      ls >> w.failure_iteration;
    } else if (tag == "artifact") {
      std::getline(ls >> std::ws, w.failure_artifact);
    } else if (tag == "bucket") {
      corpus_entry e;
      int mutated = 0;
      ls >> e.iteration >> e.seed >> mutated >> e.bucket;
      e.mutated = mutated != 0;
      cov.corpus.push_back(e);
    } else if (tag == "end") {
      complete = true;  // truncated file (worker died mid-write) stays lost
    } else {
      for (const coverage_axis& axis : coverage_axes) {
        if (tag != axis.label) continue;
        strategy_stats st;
        ls >> st.strategy >> st.executed;
        (cov.*axis.table).push_back(std::move(st));
      }
    }
  }
  w.distinct_buckets = cov.corpus.size();
  return complete;
}

/// Write the failing scenario's artifact — the path shape fuzz_main always
/// used, so the `--replay` instructions inside keep working. Empty on IO
/// failure.
std::string write_artifact(const std::string& dir, const fuzz_failure& f) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  const std::string path =
      (fs::path(dir) / ("fuzz-failure-" + std::to_string(f.seed) + ".txt"))
          .string();
  std::ofstream out(path);
  if (!out) return {};
  out << f.to_artifact();
  return path;
}

/// The report of a finished run of `opt` — one function for the inline path
/// and the forked worker. A failure's artifact is written into
/// `artifact_dir` when one is set.
worker_report report_of(const fuzz_options& opt, const fuzz_stats& stats,
                        const std::string& artifact_dir) {
  worker_report w;
  w.worker = opt.worker_index;
  w.first_iteration = opt.first_iteration;
  w.iterations = opt.iterations;
  w.executed = stats.coverage.executed;
  w.replays = stats.replays;
  w.distinct_buckets = stats.coverage.distinct_buckets;
  if (stats.failure) {
    w.failed = true;
    w.failure_iteration = stats.failure->iteration;
    if (!artifact_dir.empty()) {
      w.failure_artifact = write_artifact(artifact_dir, *stats.failure);
    }
  }
  return w;
}

/// Inline (jobs <= 1) path: exactly the classic run_fuzz campaign, plus the
/// artifact/coverage writing fuzz_main used to do by hand.
campaign_result run_inline(
    const campaign_config& cfg,
    const std::function<void(std::uint64_t, std::uint64_t,
                             const std::string&)>& progress) {
  campaign_result r;
  r.stats = run_fuzz(cfg.options, cfg.quiet ? nullptr : progress);
  r.workers.push_back(report_of(cfg.options, r.stats, cfg.artifact_dir));
  if (r.stats.failure) r.exit_code = 1;

  if (!cfg.coverage_out.empty()) {
    std::ofstream out(cfg.coverage_out);
    if (!out) {
      r.exit_code = 2;
    } else {
      out << r.stats.coverage.to_json(cfg.options.base_seed,
                                      cfg.options.iterations);
    }
  }
  return r;
}

}  // namespace

campaign_result run_campaign(
    const campaign_config& cfg,
    const std::function<void(std::uint64_t, std::uint64_t,
                             const std::string&)>& progress) {
  if (cfg.jobs <= 1 || cfg.options.iterations <= 1) {
    return run_inline(cfg, progress);
  }
#if !DETECT_CAMPAIGN_FORK
  // No fork() on this platform: graceful fallback — same oracle, same
  // iteration stream, one process (see docs/checking.md for the caveat).
  std::fprintf(stderr,
               "campaign: --jobs %d unsupported on this platform; "
               "running inline\n",
               cfg.jobs);
  return run_inline(cfg, progress);
#else
  campaign_result r;
  r.forked = true;

  // Forked workers report through the filesystem; make sure there is one,
  // and default the shared steering corpus to living beside the artifacts so
  // one upload archives both.
  campaign_config effective = cfg;
  if (effective.artifact_dir.empty()) effective.artifact_dir = "fuzz-artifacts";
  if (effective.options.corpus_dir.empty()) {
    effective.options.corpus_dir =
        (fs::path(effective.artifact_dir) / "corpus").string();
  }
  std::error_code ec;
  fs::create_directories(effective.artifact_dir, ec);

  const auto slices =
      partition_iterations(effective.options.iterations, effective.jobs);

  struct child {
    pid_t pid = -1;
    worker_report report;
    coverage_stats coverage;  // from the worker's summary
  };
  std::vector<child> children;
  children.reserve(slices.size());

  for (std::size_t w = 0; w < slices.size(); ++w) {
    worker_report rep;
    rep.worker = static_cast<int>(w);
    rep.first_iteration = slices[w].first;
    rep.iterations = slices[w].second;

    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = fork();
    if (pid < 0) {
      // Could not spawn: flag as lost and keep going — the workers that did
      // start still merge.
      rep.lost = true;
      children.push_back({-1, std::move(rep), {}});
      continue;
    }
    if (pid == 0) {
      // ---- worker process --------------------------------------------
      fuzz_options wopt = effective.options;
      wopt.first_iteration = slices[w].first;
      wopt.iterations = slices[w].second;
      wopt.worker_index = static_cast<int>(w);
      int code = 2;
      try {
        std::uint64_t last = wopt.first_iteration;
        fuzz_stats stats = run_fuzz(
            wopt,
            [&](std::uint64_t iter, std::uint64_t, const std::string&) {
              if (effective.quiet) return;
              // Sparse prefixed progress: ~10 lines per worker, not one per
              // iteration — N workers share one terminal.
              const std::uint64_t stride = wopt.iterations / 10 + 1;
              if (iter == wopt.first_iteration || iter - last >= stride) {
                last = iter;
                std::printf("[w%d] iteration %llu/%llu\n", wopt.worker_index,
                            static_cast<unsigned long long>(
                                iter - wopt.first_iteration),
                            static_cast<unsigned long long>(wopt.iterations));
                std::fflush(stdout);
              }
            });
        const worker_report report =
            report_of(wopt, stats, effective.artifact_dir);
        if (stats.failure) {
          std::printf("[w%d] FAIL at iteration %llu (seed %llu): %s\n",
                      wopt.worker_index,
                      static_cast<unsigned long long>(report.failure_iteration),
                      static_cast<unsigned long long>(stats.failure->seed),
                      report.failure_artifact.empty()
                          ? "artifact unwritable"
                          : report.failure_artifact.c_str());
          std::fflush(stdout);
        }
        write_summary(summary_path(effective.artifact_dir, wopt.worker_index),
                      report, stats.coverage);
        code = stats.failure ? 1 : 0;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "[w%d] error: %s\n", static_cast<int>(w),
                     e.what());
      }
      std::fflush(stdout);
      std::fflush(stderr);
      _exit(code);
      // ----------------------------------------------------------------
    }
    children.push_back({pid, std::move(rep), {}});
  }

  // Collect. Workers are independent; wait order does not matter. Each
  // summary is read once, straight into the worker's report and coverage.
  for (child& c : children) {
    if (c.pid < 0) continue;
    int status = 0;
    if (waitpid(c.pid, &status, 0) != c.pid || !WIFEXITED(status)) {
      c.report.lost = true;  // signal/OOM kill — died without reporting
      continue;
    }
    if (WEXITSTATUS(status) == 2) c.report.error = true;
    worker_report rep = c.report;
    if (!read_summary(summary_path(effective.artifact_dir, rep.worker), rep,
                      c.coverage)) {
      // Exited but never published a complete summary: lost, unless it
      // already declared an infrastructure error.
      if (!c.report.error) c.report.lost = true;
      continue;
    }
    c.report = std::move(rep);
    r.stats.iterations += c.report.executed;
    r.stats.replays += c.report.replays;
    r.stats.coverage.executed += c.report.executed;
  }

  // Bucket union: first discovery (by absolute iteration) wins, so the
  // merged corpus is independent of which worker finished first.
  std::vector<corpus_entry>& corpus = r.stats.coverage.corpus;
  std::map<std::string, std::size_t> by_key;
  axis_tally tally;
  for (const child& c : children) {
    if (c.report.lost || c.report.error) continue;
    tally.add_executed(c.coverage);
    for (const corpus_entry& e : c.coverage.corpus) {
      const auto [it, novel] = by_key.emplace(e.bucket, corpus.size());
      if (novel) {
        corpus.push_back(e);
      } else if (e.iteration < corpus[it->second].iteration) {
        corpus[it->second] = e;
      }
    }
  }
  std::sort(corpus.begin(), corpus.end(),
            [](const corpus_entry& a, const corpus_entry& b) {
              return a.iteration < b.iteration;
            });
  for (const corpus_entry& e : corpus) tally.add_bucket(e.bucket);
  tally.fill(r.stats.coverage);
  r.stats.coverage.distinct_buckets = corpus.size();
  r.stats.coverage.steered = effective.options.steer;

  for (child& c : children) r.workers.push_back(std::move(c.report));

  bool any_failed = false;
  bool any_lost = false;
  for (const worker_report& w : r.workers) {
    any_failed |= w.failed;
    any_lost |= w.lost || w.error;
  }
  r.exit_code = any_lost ? 2 : (any_failed ? 1 : 0);

  if (!effective.coverage_out.empty()) {
    std::ofstream out(effective.coverage_out);
    if (!out) {
      r.exit_code = 2;
    } else {
      out << r.stats.coverage.to_json(effective.options.base_seed,
                                      effective.options.iterations,
                                      r.workers);
    }
  }
  return r;
#endif
}

}  // namespace detect::fuzz
