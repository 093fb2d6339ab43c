#include "theory/cas_model.hpp"

#include <array>
#include <bit>
#include <stdexcept>
#include <string>
#include <unordered_set>

namespace detect::theory {

namespace {

constexpr int k_max_procs = 8;  // full-model BFS is for small N only

// Values live in std::int8_t cells of the full model; every entry point
// takes the same domain bound.
void check_domain(int domain, const char* fn) {
  if (domain < 2 || domain > 127) {
    throw std::invalid_argument(std::string(fn) + ": 2 <= domain <= 127");
  }
}

// Program counters of the small-step encoding. Operation lines follow the
// paper's numbering; recovery lines likewise.
enum pc : std::uint8_t {
  pc_idle = 0,
  pc_l28,       // about to read C
  pc_l30,       // value mismatch: about to persist resp=false
  pc_l33,       // about to persist RD_p (flipped bit)
  pc_l34,       // about to set checkpoint
  pc_l35,       // about to CAS
  pc_l36,       // about to persist CAS response
  // recovery
  pc_r38,       // about to read Ann.resp
  pc_r40,       // about to read Ann.CP
  pc_r42,       // about to read C (vec bit)
  pc_r45,       // about to persist resp=true
};

struct mproc {
  std::uint8_t pc = pc_idle;
  // volatile locals (lost on crash)
  std::int8_t lval = 0;       // value read at line 28
  std::uint8_t lvec = 0;      // vec read at line 28 (N ≤ 8 bits here)
  std::uint8_t lres = 0;      // CAS outcome / bit read in recovery
  // private NVM (survives crashes)
  std::uint8_t rd = 0;        // RD_p
  std::uint8_t ann_cp = 0;
  std::int8_t ann_resp = -1;  // -1 = ⊥, 0 = false, 1 = true
  std::uint8_t has_op = 0;    // announcement valid
  std::int8_t op_old = 0;
  std::int8_t op_new = 0;

  friend bool operator==(const mproc&, const mproc&) = default;
};

struct mconfig {
  std::int8_t cval = 0;
  std::uint8_t vec = 0;
  std::array<mproc, k_max_procs> procs{};

  friend bool operator==(const mconfig&, const mconfig&) = default;

  std::string key(int n) const {
    std::string s;
    s.reserve(2 + static_cast<std::size_t>(n) * sizeof(mproc));
    s.push_back(static_cast<char>(cval));
    s.push_back(static_cast<char>(vec));
    for (int i = 0; i < n; ++i) {
      const char* raw = reinterpret_cast<const char*>(&procs[static_cast<std::size_t>(i)]);
      s.append(raw, sizeof(mproc));
    }
    return s;
  }
  std::uint32_t shared_key() const {
    return static_cast<std::uint32_t>(static_cast<std::uint8_t>(cval)) << 8 |
           vec;
  }
};

// Apply one step of process p; returns the successor configuration.
// Exactly one memory access per transition (invocation/response bookkeeping
// is folded into adjacent steps; it touches no shared memory, so the shared
// projection is unaffected).
mconfig step(const mconfig& c, int p) {
  mconfig n = c;
  mproc& m = n.procs[static_cast<std::size_t>(p)];
  switch (m.pc) {
    case pc_l28:  // read C
      m.lval = c.cval;
      m.lvec = c.vec;
      m.pc = (m.lval != m.op_old) ? pc_l30 : pc_l33;
      break;
    case pc_l30:  // resp := false; return
      m.ann_resp = 0;
      m.has_op = 0;
      m.pc = pc_idle;
      break;
    case pc_l33:  // RD_p := flipped bit
      m.rd = static_cast<std::uint8_t>(((m.lvec ^ (1u << p)) >> p) & 1u);
      m.pc = pc_l34;
      break;
    case pc_l34:  // Ann.CP := 1
      m.ann_cp = 1;
      m.pc = pc_l35;
      break;
    case pc_l35:  // CAS(⟨lval,lvec⟩ → ⟨new, lvec ⊕ e_p⟩)
      if (c.cval == m.lval && c.vec == m.lvec) {
        n.cval = m.op_new;
        n.vec = static_cast<std::uint8_t>(c.vec ^ (1u << p));
        m.lres = 1;
      } else {
        m.lres = 0;
      }
      m.pc = pc_l36;
      break;
    case pc_l36:  // resp := lres; return
      m.ann_resp = static_cast<std::int8_t>(m.lres);
      m.has_op = 0;
      m.pc = pc_idle;
      break;
    case pc_r38:  // read Ann.resp
      m.pc = (m.ann_resp != -1) ? pc_idle : pc_r40;
      if (m.pc == pc_idle) m.has_op = 0;  // recovery returned the response
      break;
    case pc_r40:  // read Ann.CP
      if (m.ann_cp == 0) {  // fail: client gives up (skip policy)
        m.has_op = 0;
        m.pc = pc_idle;
      } else {
        m.pc = pc_r42;
      }
      break;
    case pc_r42:  // read C, extract vec[p]
      m.lres = static_cast<std::uint8_t>((c.vec >> p) & 1u);
      m.pc = (m.lres != m.rd) ? pc_idle : pc_r45;  // fail → idle
      if (m.pc == pc_idle) m.has_op = 0;
      break;
    case pc_r45:  // resp := true; return true
      m.ann_resp = 1;
      m.has_op = 0;
      m.pc = pc_idle;
      break;
    default:
      throw std::logic_error("cas_model: step on idle process");
  }
  return n;
}

// Invocation: announce Cas(old, new) with caller-side auxiliary resets.
mconfig invoke(const mconfig& c, int p, int old_v, int new_v) {
  mconfig n = c;
  mproc& m = n.procs[static_cast<std::size_t>(p)];
  m.has_op = 1;
  m.op_old = static_cast<std::int8_t>(old_v);
  m.op_new = static_cast<std::int8_t>(new_v);
  m.ann_cp = 0;
  m.ann_resp = -1;
  m.pc = pc_l28;
  return n;
}

// System-wide crash: volatile locals wiped, in-flight processes enter
// recovery dispatch, NVM (shared cell, RD, Ann) survives.
mconfig crash(const mconfig& c, int nprocs) {
  mconfig n = c;
  for (int p = 0; p < nprocs; ++p) {
    mproc& m = n.procs[static_cast<std::size_t>(p)];
    m.lval = 0;
    m.lvec = 0;
    m.lres = 0;
    m.pc = (m.has_op != 0) ? pc_r38 : pc_idle;
  }
  return n;
}

}  // namespace

config_count bfs_configurations(int nprocs, int domain,
                                std::uint64_t max_states) {
  if (nprocs < 1 || nprocs > k_max_procs) {
    throw std::invalid_argument("bfs_configurations: 1 <= N <= 8");
  }
  check_domain(domain, "bfs_configurations");
  return reach(
      mconfig{}, [nprocs](const mconfig& c) { return c.key(nprocs); },
      [](const mconfig& c) { return c.shared_key(); },
      [nprocs, domain](const mconfig& c, auto&& visit) {
        for (int p = 0; p < nprocs; ++p) {
          if (c.procs[static_cast<std::size_t>(p)].pc == pc_idle) {
            // Operation universe: Cas(i, (i+1) mod domain) plus the
            // self-swap Cas(i, i). The self-swap succeeds and flips vec[p]
            // without changing the value, decoupling the value from the flip
            // vector (with increments alone the two stay parity-correlated
            // for even domain sizes) while keeping BFS tractable.
            for (int i = 0; i < domain; ++i) {
              visit(invoke(c, p, i, (i + 1) % domain));
              visit(invoke(c, p, i, i));
            }
          } else {
            visit(step(c, p));
          }
        }
        visit(crash(c, nprocs));
      },
      max_states);
}

config_count quiescent_reachability(int nprocs, int domain) {
  if (nprocs < 1 || nprocs > 24) {
    throw std::invalid_argument("quiescent_reachability: 1 <= N <= 24");
  }
  check_domain(domain, "quiescent_reachability");
  // Shared state = value * 2^N + vec; derived transition: from a quiescent
  // (v, vec), a solo successful Cas_p(v, v') reaches (v', vec ^ e_p). The
  // operation universe matches the full model: v' ∈ {v, v+1 mod domain}.
  const std::uint64_t vec_space = std::uint64_t{1} << nprocs;
  return reach(
      std::uint64_t{0}, [](std::uint64_t s) { return s; }, shared_is_key{},
      [nprocs, domain, vec_space](std::uint64_t s, auto&& visit) {
        const std::uint64_t vec = s % vec_space;
        const std::uint64_t val = s / vec_space;
        for (int p = 0; p < nprocs; ++p) {
          for (std::uint64_t v2 : {val, (val + 1) % domain}) {
            visit(v2 * vec_space + (vec ^ (1ull << p)));
          }
        }
      });
}

std::uint64_t gray_code_walk(int nprocs, int domain) {
  if (nprocs < 1 || nprocs > 30) {
    throw std::invalid_argument("gray_code_walk: 1 <= N <= 30");
  }
  check_domain(domain, "gray_code_walk");
  if (nprocs > k_max_procs) {
    // The walk only needs the quiescent transition; emulate directly.
    std::unordered_set<std::uint64_t> shared;
    std::uint64_t vec = 0;
    int val = 0;
    shared.insert(0);
    const std::uint64_t total = std::uint64_t{1} << nprocs;
    for (std::uint64_t g = 1; g < total; ++g) {
      int p = std::countr_zero(g);  // Gray code: flip bit index of lowest set
      vec ^= (1ull << p);
      val = (val + 1) % domain;
      shared.insert(static_cast<std::uint64_t>(val) * total + vec);
    }
    return shared.size();
  }
  // Small N: drive the faithful model, one solo successful CAS per flip.
  std::unordered_set<std::uint32_t> shared;
  mconfig c;
  shared.insert(c.shared_key());
  const std::uint32_t total = 1u << nprocs;
  for (std::uint32_t g = 1; g < total; ++g) {
    int p = std::countr_zero(g);
    int cur = c.cval;
    c = invoke(c, p, cur, (cur + 1) % domain);
    while (c.procs[static_cast<std::size_t>(p)].pc != pc_idle) {
      c = step(c, p);
      shared.insert(c.shared_key());
    }
  }
  return shared.size();
}

std::uint64_t theorem1_bound(int nprocs) {
  if (nprocs >= 64) return ~std::uint64_t{0};
  return (std::uint64_t{1} << nprocs) - 1;
}

}  // namespace detect::theory
