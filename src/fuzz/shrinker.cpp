#include "fuzz/shrinker.hpp"

#include <vector>

#include "fuzz/scenario_gen.hpp"

namespace detect::fuzz {

namespace {

/// Keep `edit(s)` if the result still fails. Returns true on progress.
/// NOTE: a kept edit replaces `s` wholesale — callers must not hold
/// iterators/references into `s` across a try_edit call.
bool try_edit(api::scripted_scenario& s, const fail_predicate& fails,
              const std::function<bool(api::scripted_scenario&)>& edit) {
  api::scripted_scenario candidate = s;
  if (!edit(candidate)) return false;  // edit not applicable
  if (!fails(candidate)) return false;
  s = std::move(candidate);
  return true;
}

/// Renumber script pids densely (0..k-1) and shrink nprocs to match. Scripts
/// stay in ascending-pid order, so renumbering preserves relative identity;
/// lock ops carry the caller's pid as their argument, so those are rewritten
/// to the new pid to keep the scenario well-formed.
void compact_pids(api::scripted_scenario& s) {
  std::map<int, std::vector<hist::op_desc>> dense;
  int next = 0;
  for (auto& [pid, ops] : s.scripts) {
    for (hist::op_desc& d : ops) {
      if (d.code == hist::opcode::lock_try ||
          d.code == hist::opcode::lock_release) {
        d.a = next;
      }
    }
    dense[next++] = std::move(ops);
  }
  s.scripts = std::move(dense);
  if (next > 0) s.nprocs = next;
}

std::vector<int> pids_of(const api::scripted_scenario& s) {
  std::vector<int> pids;
  pids.reserve(s.scripts.size());
  for (const auto& [pid, ops] : s.scripts) pids.push_back(pid);
  return pids;
}

/// The usage contracts must survive shrinking, or a candidate can "fail"
/// for the contract violation instead of the original defect and the
/// minimized artifact blames a non-bug. enforce_contracts is their one
/// statement: a candidate respects them when the repair pass leaves it
/// unchanged (dumps round-trip exactly, so equal dumps are equal scenarios).
bool respects_contracts(const api::scripted_scenario& s) {
  api::scripted_scenario repaired = s;
  enforce_contracts(repaired);
  return api::dump(repaired) == api::dump(s);
}

}  // namespace

api::scripted_scenario shrink(api::scripted_scenario s,
                              const fail_predicate& raw_fails,
                              int max_rounds) {
  if (!raw_fails(s)) return s;
  fail_predicate fails = [&raw_fails](const api::scripted_scenario& c) {
    return respects_contracts(c) && raw_fails(c);
  };

  for (int round = 0; round < max_rounds; ++round) {
    bool progress = false;

    // 0. Schedule canonicalization — before any structural pass, so
    // schedule-independent failures shrink on the canonical (round_robin,
    // strict) schedule and schedule-dependent ones keep only the preemption
    // points they actually need.
    progress |= try_edit(s, fails, [](api::scripted_scenario& c) {
      const sched::sched_policy round_robin{sched::strategy::round_robin, {}};
      if (c.sched == round_robin) return false;
      c.sched = round_robin;
      return true;
    });
    progress |= try_edit(s, fails, [](api::scripted_scenario& c) {
      if (c.persist == nvm::persist_model::strict) return false;
      c.persist = nvm::persist_model::strict;
      return true;
    });
    // Visibility canonicalization: failures that do not need delayed store
    // visibility shrink back to sc (dropping the drain plan with it), and
    // ones that do keep only the explicit drain points they actually need —
    // the repro then reads as "these specific drains, nothing else".
    progress |= try_edit(s, fails, [](api::scripted_scenario& c) {
      if (c.visibility == wmm::visibility_model::sc) return false;
      c.visibility = wmm::visibility_model::sc;
      c.drain_steps.clear();
      return true;
    });
    for (int i = static_cast<int>(s.drain_steps.size()) - 1; i >= 0; --i) {
      progress |= try_edit(s, fails, [i](api::scripted_scenario& c) {
        if (i >= static_cast<int>(c.drain_steps.size())) return false;
        c.drain_steps.erase(c.drain_steps.begin() + i);
        return true;
      });
    }
    for (int i = static_cast<int>(s.sched.pct_points.size()) - 1; i >= 0;
         --i) {
      progress |= try_edit(s, fails, [i](api::scripted_scenario& c) {
        if (i >= static_cast<int>(c.sched.pct_points.size())) return false;
        c.sched.pct_points.erase(c.sched.pct_points.begin() + i);
        return true;
      });
    }

    // 1. Whole processes, highest pid first (dropping a later pid leaves the
    // earlier ones unrenumbered, so the pid snapshot stays valid).
    {
      std::vector<int> pids = pids_of(s);
      for (auto it = pids.rbegin(); it != pids.rend(); ++it) {
        int p = *it;
        progress |= try_edit(s, fails, [p](api::scripted_scenario& c) {
          if (c.scripts.size() <= 1 || c.scripts.count(p) == 0) return false;
          c.scripts.erase(p);
          compact_pids(c);
          return true;
        });
      }
    }

    // 1b. Whole objects, last declared first: drop the object, its pin and
    // every op targeting it (a scenario must keep at least one object).
    for (int i = static_cast<int>(s.objects.size()) - 1; i >= 0; --i) {
      progress |= try_edit(s, fails, [i](api::scripted_scenario& c) {
        if (c.objects.size() <= 1 ||
            i >= static_cast<int>(c.objects.size())) {
          return false;
        }
        const std::uint32_t id = c.objects[static_cast<std::size_t>(i)].id;
        c.objects.erase(c.objects.begin() + i);
        c.placement.pins.erase(id);
        for (auto& [pid, ops] : c.scripts) {
          std::erase_if(ops, [id](const hist::op_desc& d) {
            return d.object == id;
          });
        }
        return true;
      });
    }

    // 1c. Merge same-kind object pairs: retarget the later object's ops onto
    // the earlier one and drop the later declaration and its pin — fewer
    // objects, same op count, often enough to collapse a cross-shard failure
    // into one world.
    for (int j = static_cast<int>(s.objects.size()) - 1; j >= 1; --j) {
      progress |= try_edit(s, fails, [j](api::scripted_scenario& c) {
        if (j >= static_cast<int>(c.objects.size())) return false;
        const api::scenario_object& victim =
            c.objects[static_cast<std::size_t>(j)];
        int into = -1;
        for (int i = 0; i < j; ++i) {
          if (c.objects[static_cast<std::size_t>(i)].kind == victim.kind) {
            into = i;
            break;
          }
        }
        if (into < 0) return false;
        const std::uint32_t from = victim.id;
        const std::uint32_t to =
            c.objects[static_cast<std::size_t>(into)].id;
        c.objects.erase(c.objects.begin() + j);
        c.placement.pins.erase(from);
        for (auto& [pid, ops] : c.scripts) {
          for (hist::op_desc& d : ops) {
            if (d.object == from) d.object = to;
          }
        }
        return true;
      });
    }

    // 2a. Suffix halves per process.
    for (int p : pids_of(s)) {
      while (try_edit(s, fails, [p](api::scripted_scenario& c) {
        auto it = c.scripts.find(p);
        if (it == c.scripts.end() || it->second.size() < 2) return false;
        it->second.resize(it->second.size() - it->second.size() / 2);
        return true;
      })) {
        progress = true;
      }
    }

    // 2b. Individual ops, back to front (an empty script is legal; step 1
    // removes emptied processes on the next round).
    for (int p : pids_of(s)) {
      auto it = s.scripts.find(p);
      if (it == s.scripts.end()) continue;
      for (int i = static_cast<int>(it->second.size()) - 1; i >= 0; --i) {
        progress |= try_edit(s, fails, [p, i](api::scripted_scenario& c) {
          auto cit = c.scripts.find(p);
          if (cit == c.scripts.end() ||
              i >= static_cast<int>(cit->second.size())) {
            return false;
          }
          cit->second.erase(cit->second.begin() + i);
          return true;
        });
        it = s.scripts.find(p);  // s may have been replaced by the edit
        if (it == s.scripts.end()) break;
      }
    }

    // 2c. Retarget ops onto the first same-kind object: pulls a scattered
    // failure onto one object so the object-dropping pass can finish the
    // job next round.
    for (int p : pids_of(s)) {
      std::size_t len = s.scripts.count(p) != 0 ? s.scripts.at(p).size() : 0;
      for (std::size_t i = 0; i < len; ++i) {
        progress |= try_edit(s, fails, [p, i](api::scripted_scenario& c) {
          auto cit = c.scripts.find(p);
          if (cit == c.scripts.end() || i >= cit->second.size()) return false;
          hist::op_desc& d = cit->second[i];
          const api::scenario_object* from = c.find_object(d.object);
          if (from == nullptr) return false;
          for (const api::scenario_object& o : c.objects) {
            if (o.id == d.object) break;  // already the first of its kind
            if (o.kind == from->kind) {
              d.object = o.id;
              return true;
            }
          }
          return false;
        });
      }
    }

    // 2d. Migration steps, back to front, then the whole plan at once (a
    // plan-free scenario also stops running its scripts twice — a big cut).
    for (int i = static_cast<int>(s.migrations.size()) - 1; i >= 0; --i) {
      progress |= try_edit(s, fails, [i](api::scripted_scenario& c) {
        if (i >= static_cast<int>(c.migrations.size())) return false;
        c.migrations.erase(c.migrations.begin() + i);
        return true;
      });
    }
    progress |= try_edit(s, fails, [](api::scripted_scenario& c) {
      if (c.migrations.empty()) return false;
      c.migrations.clear();
      return true;
    });

    // 3. Crash steps, back to front.
    for (int i = static_cast<int>(s.crash_steps.size()) - 1; i >= 0; --i) {
      progress |= try_edit(s, fails, [i](api::scripted_scenario& c) {
        if (i >= static_cast<int>(c.crash_steps.size())) return false;
        c.crash_steps.erase(c.crash_steps.begin() + i);
        return true;
      });
    }

    // 4. Knob simplification.
    progress |= try_edit(s, fails, [](api::scripted_scenario& c) {
      if (c.policy == core::runtime::fail_policy::skip) return false;
      c.policy = core::runtime::fail_policy::skip;
      return true;
    });
    progress |= try_edit(s, fails, [](api::scripted_scenario& c) {
      if (!c.shared_cache) return false;
      c.shared_cache = false;
      return true;
    });
    // Placement first simplifies to modulo (if the failure survives, the
    // routing policy is not the culprit) ...
    progress |= try_edit(s, fails, [](api::scripted_scenario& c) {
      if (c.placement == api::placement_policy{}) return false;
      c.placement = {};
      return true;
    });
    // ... then a sharded-backend scenario tries the single backend (if the
    // failure survives, it is not a cross-shard bug) ...
    progress |= try_edit(s, fails, [](api::scripted_scenario& c) {
      if (c.backend != api::exec_backend::sharded) return false;
      c.backend = api::exec_backend::single;
      return true;
    });
    // ... then the sharded-equivalence diff is dropped (shards -> 1, which
    // also drops the placement and migration plan): if the failure still
    // survives, the simpler single-backend artifact is the one to debug.
    progress |= try_edit(s, fails, [](api::scripted_scenario& c) {
      if (c.shards <= 1) return false;
      c.shards = 1;
      c.placement = {};
      c.migrations.clear();
      return true;
    });

    // 5. Zero op arguments — a Cas toward Cas(0, 1), the canonical form
    // enforce_contracts gives Cas(0, 0). Lock ops carry their caller's pid,
    // so zeroing one is not canonical and the contract check rejects it.
    for (int p : pids_of(s)) {
      std::size_t len =
          s.scripts.count(p) != 0 ? s.scripts.at(p).size() : 0;
      for (std::size_t i = 0; i < len; ++i) {
        progress |= try_edit(s, fails, [p, i](api::scripted_scenario& c) {
          auto cit = c.scripts.find(p);
          if (cit == c.scripts.end() || i >= cit->second.size()) return false;
          hist::op_desc& d = cit->second[i];
          const hist::value_t b = d.code == hist::opcode::cas ? 1 : 0;
          if (d.a == 0 && d.b == b) return false;
          d.a = 0;
          d.b = b;
          return true;
        });
      }
    }

    if (!progress) break;
  }
  return s;
}

}  // namespace detect::fuzz
