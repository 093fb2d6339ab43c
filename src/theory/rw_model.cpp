#include "theory/rw_model.hpp"

#include <array>
#include <stdexcept>
#include <string>

namespace detect::theory {

namespace {

constexpr int k_max_procs = 3;  // full model: shared space is 2N² bits

// Written values live in std::uint8_t cells; both entry points take the same
// domain bound.
void check_domain(int domain, const char* fn) {
  if (domain < 2 || domain > 255) {
    throw std::invalid_argument(std::string(fn) + ": 2 <= domain <= 255");
  }
}

// R packs ⟨val, q, toggle⟩. A is a 2N²-bit array indexed [i][j][t].
struct rw_shared {
  std::uint8_t r_val = 0;
  std::uint8_t r_q = 0;
  std::uint8_t r_t = 0;
  std::uint32_t a = 0;  // bit (i*N + j)*2 + t

  friend bool operator==(const rw_shared&, const rw_shared&) = default;
};

int a_bit(int n, int i, int j, int t) { return (i * n + j) * 2 + t; }

// Program counters (paper line numbers; loop positions carry an index).
enum rw_pc : std::uint8_t {
  rw_idle = 0,
  rw_l1,    // read R
  rw_l2,    // A[p][q][1-qt] := 0
  rw_l3,    // read T_p
  rw_l4,    // RD_p := ...
  rw_l5,    // re-read R, branch
  rw_l6,    // cp := 1
  rw_l7,    // R := ⟨val, p, mtoggle⟩
  rw_l8,    // cp := 2
  rw_l9,    // loop A[i][p][mtoggle] := 1  (uses loop_i)
  rw_l11,   // T_p := 1 - mtoggle
  rw_l12,   // resp := ack
  // recovery
  rw_r14,   // read RD_p
  rw_r15,   // read resp
  rw_r17,   // read cp (0 → fail)
  rw_r20a,  // cp == 1: read R
  rw_r20b,  // read A[p][q][1-qt]
  rw_r22,   // cp := 2
  rw_r23,   // loop A[i][p][rd.mtoggle] := 1
  rw_r25,   // T_p := 1 - rd.mtoggle
  rw_r26,   // resp := ack
};

struct rw_proc {
  std::uint8_t pc = rw_idle;
  // volatile locals
  std::uint8_t lval = 0, lq = 0, lt = 0;  // triplet read at line 1
  std::uint8_t mtoggle = 0;
  std::uint8_t loop_i = 0;
  std::uint8_t rd_loaded = 0;  // recovery re-read RD into locals
  // private NVM
  std::uint8_t t_p = 0;
  std::uint8_t rd_mtoggle = 0, rd_val = 0, rd_q = 0, rd_t = 0;
  std::uint8_t cp = 0;
  std::uint8_t resp = 0;  // 0 = ⊥, 1 = ack
  std::uint8_t has_op = 0;
  std::uint8_t op_val = 0;

  friend bool operator==(const rw_proc&, const rw_proc&) = default;
};

struct rw_config {
  rw_shared sh;
  std::array<rw_proc, k_max_procs> procs{};

  friend bool operator==(const rw_config&, const rw_config&) = default;

  std::string key(int n) const {
    std::string s(reinterpret_cast<const char*>(&sh), sizeof sh);
    for (int i = 0; i < n; ++i) {
      s.append(reinterpret_cast<const char*>(&procs[static_cast<std::size_t>(i)]),
               sizeof(rw_proc));
    }
    return s;
  }
  std::uint64_t shared_key() const {
    return (static_cast<std::uint64_t>(r_key()) << 32) | sh.a;
  }
  std::uint32_t r_key() const {
    return static_cast<std::uint32_t>(sh.r_val) << 8 |
           static_cast<std::uint32_t>(sh.r_q) << 1 | sh.r_t;
  }
};

rw_config rw_step(const rw_config& c, int p, int n) {
  rw_config x = c;
  rw_proc& m = x.procs[static_cast<std::size_t>(p)];
  auto set_a = [&](int i, int j, int t, int bit) {
    std::uint32_t mask = 1u << a_bit(n, i, j, t);
    if (bit != 0) {
      x.sh.a |= mask;
    } else {
      x.sh.a &= ~mask;
    }
  };
  auto get_a = [&](int i, int j, int t) {
    return (c.sh.a >> a_bit(n, i, j, t)) & 1u;
  };
  switch (m.pc) {
    case rw_l1:
      m.lval = c.sh.r_val;
      m.lq = c.sh.r_q;
      m.lt = c.sh.r_t;
      m.pc = rw_l2;
      break;
    case rw_l2:
      set_a(p, m.lq, 1 - m.lt, 0);
      m.pc = rw_l3;
      break;
    case rw_l3:
      m.mtoggle = m.t_p;
      m.pc = rw_l4;
      break;
    case rw_l4:
      m.rd_mtoggle = m.mtoggle;
      m.rd_val = m.lval;
      m.rd_q = m.lq;
      m.rd_t = m.lt;
      m.pc = rw_l5;
      break;
    case rw_l5:
      m.pc = (c.sh.r_val == m.lval && c.sh.r_q == m.lq && c.sh.r_t == m.lt)
                 ? rw_l6
                 : rw_l8;
      break;
    case rw_l6:
      m.cp = 1;
      m.pc = rw_l7;
      break;
    case rw_l7:
      x.sh.r_val = m.op_val;
      x.sh.r_q = static_cast<std::uint8_t>(p);
      x.sh.r_t = m.mtoggle;
      m.pc = rw_l8;
      break;
    case rw_l8:
      m.cp = 2;
      m.loop_i = 0;
      m.pc = rw_l9;
      break;
    case rw_l9:
      set_a(m.loop_i, p, m.mtoggle, 1);
      ++m.loop_i;
      if (m.loop_i >= n) m.pc = rw_l11;
      break;
    case rw_l11:
      m.t_p = static_cast<std::uint8_t>(1 - m.mtoggle);
      m.pc = rw_l12;
      break;
    case rw_l12:
      m.resp = 1;
      m.has_op = 0;
      m.pc = rw_idle;
      break;
    case rw_r14:
      m.mtoggle = m.rd_mtoggle;  // recovery loads RD into locals
      m.lval = m.rd_val;
      m.lq = m.rd_q;
      m.lt = m.rd_t;
      m.pc = rw_r15;
      break;
    case rw_r15:
      if (m.resp != 0) {
        m.has_op = 0;
        m.pc = rw_idle;  // already linearized; verdict returned
      } else {
        m.pc = rw_r17;
      }
      break;
    case rw_r17:
      if (m.cp == 0) {
        m.has_op = 0;
        m.pc = rw_idle;  // fail; client gives up (skip policy)
      } else {
        m.pc = (m.cp == 1) ? rw_r20a : rw_r22;
      }
      break;
    case rw_r20a:
      if (c.sh.r_val == m.lval && c.sh.r_q == m.lq && c.sh.r_t == m.lt) {
        m.pc = rw_r20b;
      } else {
        m.pc = rw_r22;
      }
      break;
    case rw_r20b:
      if (get_a(p, m.lq, 1 - m.lt) == 0) {
        m.has_op = 0;
        m.pc = rw_idle;  // fail
      } else {
        m.pc = rw_r22;
      }
      break;
    case rw_r22:
      m.cp = 2;
      m.loop_i = 0;
      m.pc = rw_r23;
      break;
    case rw_r23:
      set_a(m.loop_i, p, m.rd_mtoggle, 1);
      ++m.loop_i;
      if (m.loop_i >= n) m.pc = rw_r25;
      break;
    case rw_r25:
      m.t_p = static_cast<std::uint8_t>(1 - m.rd_mtoggle);
      m.pc = rw_r26;
      break;
    case rw_r26:
      m.resp = 1;
      m.has_op = 0;
      m.pc = rw_idle;
      break;
    default:
      throw std::logic_error("rw_model: step on idle process");
  }
  return x;
}

rw_config rw_invoke(const rw_config& c, int p, int val) {
  rw_config x = c;
  rw_proc& m = x.procs[static_cast<std::size_t>(p)];
  m.has_op = 1;
  m.op_val = static_cast<std::uint8_t>(val);
  m.cp = 0;
  m.resp = 0;
  m.pc = rw_l1;
  return x;
}

rw_config rw_crash(const rw_config& c, int n) {
  rw_config x = c;
  for (int p = 0; p < n; ++p) {
    rw_proc& m = x.procs[static_cast<std::size_t>(p)];
    m.lval = m.lq = m.lt = m.mtoggle = m.loop_i = m.rd_loaded = 0;
    m.pc = (m.has_op != 0) ? rw_r14 : rw_idle;
  }
  return x;
}

}  // namespace

config_count rw_bfs_configurations(int nprocs, int domain,
                                   std::uint64_t max_states) {
  if (nprocs < 1 || nprocs > k_max_procs) {
    throw std::invalid_argument("rw_bfs_configurations: 1 <= N <= 3");
  }
  check_domain(domain, "rw_bfs_configurations");
  return reach(
      rw_config{},  // R = ⟨0, 0, 0⟩, A all zero
      [nprocs](const rw_config& c) { return c.key(nprocs); },
      [](const rw_config& c) { return c.shared_key(); },
      [nprocs, domain](const rw_config& c, auto&& visit) {
        for (int p = 0; p < nprocs; ++p) {
          if (c.procs[static_cast<std::size_t>(p)].pc == rw_idle) {
            for (int v = 0; v < domain; ++v) visit(rw_invoke(c, p, v));
          } else {
            visit(rw_step(c, p, nprocs));
          }
        }
        visit(rw_crash(c, nprocs));
      },
      max_states);
}

config_count rw_quiescent_reachability(int nprocs, int domain) {
  if (nprocs < 1 || nprocs > 3) {
    throw std::invalid_argument("rw_quiescent_reachability: 1 <= N <= 3");
  }
  check_domain(domain, "rw_quiescent_reachability");
  // Quiescent state = shared (R, A) plus the private toggles T[p] (they
  // determine the next transition); count the shared projection.
  struct qstate {
    rw_shared sh;
    std::array<std::uint8_t, k_max_procs> t{};
  };
  auto shared_key_of = [](const qstate& s) {
    return (static_cast<std::uint64_t>(s.sh.r_val) << 40) |
           (static_cast<std::uint64_t>(s.sh.r_q) << 34) |
           (static_cast<std::uint64_t>(s.sh.r_t) << 33) | s.sh.a;
  };
  auto key_of = [nprocs, shared_key_of](const qstate& s) {
    std::uint64_t k = shared_key_of(s);
    for (int p = 0; p < nprocs; ++p) {
      k = k * 2 + s.t[static_cast<std::size_t>(p)];
    }
    return k;
  };
  auto solo_writes = [nprocs, domain](const qstate& s, auto&& visit) {
    for (int p = 0; p < nprocs; ++p) {
      for (int v = 0; v < domain; ++v) {
        // Solo write by p of value v from a quiescent configuration:
        // line 2 clears A[p][q][1-qt]; line 7 installs ⟨v, p, T_p⟩; lines
        // 9-10 set column A[*][p][T_p]; line 11 flips T_p.
        qstate x = s;
        int q = s.sh.r_q;
        int qt = s.sh.r_t;
        x.sh.a &= ~(1u << a_bit(nprocs, p, q, 1 - qt));
        std::uint8_t mt = s.t[static_cast<std::size_t>(p)];
        x.sh.r_val = static_cast<std::uint8_t>(v);
        x.sh.r_q = static_cast<std::uint8_t>(p);
        x.sh.r_t = mt;
        for (int i = 0; i < nprocs; ++i) {
          x.sh.a |= 1u << a_bit(nprocs, i, p, mt);
        }
        x.t[static_cast<std::size_t>(p)] = static_cast<std::uint8_t>(1 - mt);
        visit(x);
      }
    }
  };
  return reach(qstate{}, key_of, shared_key_of, solo_writes);
}

}  // namespace detect::theory
