// Per-process announcement structure Ann_p (§2).
//
// Ann_p.op    — type + arguments of the recoverable operation in flight,
//               written by the *caller* immediately before invoking.
// Ann_p.resp  — the operation's response; initialized to ⊥ by the caller,
//               persisted by the operation before returning.
// Ann_p.CP    — checkpoint counter; set to 0 by the caller, advanced by the
//               operation to let recovery infer where the crash struck.
//
// The caller-side resets of resp/CP are exactly the "auxiliary state provided
// by the system" in the sense of Definition 1 — Theorem 2 proves detectable
// implementations of doubly-perturbing objects cannot do without them. Two
// more fields support the client runtime itself: `valid` marks a live
// announcement, and `done_seq` is the client's durable program counter
// (private client bookkeeping, not state passed into operations).
#pragma once

#include <memory>
#include <vector>

#include "history/event.hpp"
#include "nvm/pvar.hpp"

namespace detect::core {

using hist::value_t;

struct ann_fields {
  explicit ann_fields(nvm::pmem_domain& dom)
      : op(hist::op_desc{}, dom),
        resp(hist::k_bottom, dom),
        cp(0, dom),
        valid(0, dom),
        done_seq(0, dom) {}

  nvm::pvar<hist::op_desc> op;
  nvm::pvar<value_t> resp;
  nvm::pvar<int> cp;
  nvm::pvar<std::uint8_t> valid;
  nvm::pvar<std::uint64_t> done_seq;
};

/// Ann_p.resp := ⊥, Ann_p.CP := 0 — Definition 1's auxiliary state, provided
/// by the caller before each invocation.
inline void reset_aux(ann_fields& ann) {
  ann.resp.store(hist::k_bottom);
  ann.cp.store(0);
}

/// The caller-side announcement of §2, written immediately before invoking
/// `desc`: invalidate, publish the op, reset the auxiliary state unless the
/// object declares it needs none (`aux_reset` = wants_aux_reset()), and mark
/// the announcement valid. Every caller — the simulated runtime, the
/// real-thread executor — goes through this one sequence of stores.
inline void announce(ann_fields& ann, const hist::op_desc& desc,
                     bool aux_reset) {
  ann.valid.store(0);
  ann.op.store(desc);
  if (aux_reset) reset_aux(ann);
  ann.valid.store(1);
}

/// The announcement structures of all N processes. Shared by every object a
/// process uses (a process runs one operation at a time).
class announcement_board {
 public:
  announcement_board(int nprocs, nvm::pmem_domain& dom) {
    anns_.reserve(static_cast<std::size_t>(nprocs));
    for (int i = 0; i < nprocs; ++i) {
      anns_.push_back(std::make_unique<ann_fields>(dom));
    }
  }

  ann_fields& of(int pid) { return *anns_.at(static_cast<std::size_t>(pid)); }
  int nprocs() const noexcept { return static_cast<int>(anns_.size()); }

 private:
  std::vector<std::unique_ptr<ann_fields>> anns_;
};

}  // namespace detect::core
