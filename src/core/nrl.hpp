// NRL adapter (§6): a detectable implementation is turned into a
// nesting-safe recoverable linearizable one by having the recovery function
// re-invoke the operation instead of returning fail, repeating until it
// completes. The re-attempt is a fresh invocation, so the adapter re-arms the
// auxiliary state (resp := ⊥, CP := 0) exactly as a caller would — the reset
// happens inside the recovery function, i.e. outside the operation itself,
// which Definition 1 permits.
#pragma once

#include "core/object.hpp"

namespace detect::core {

class nrl_adapter final : public detectable_object {
 public:
  nrl_adapter(detectable_object& inner, announcement_board& board)
      : inner_(&inner), board_(&board) {}

  value_t invoke(int pid, const hist::op_desc& op) override {
    return inner_->invoke(pid, op);
  }

  recovery_result recover(int pid, const hist::op_desc& op) override {
    recovery_result r = inner_->recover(pid, op);
    if (r.verdict == hist::recovery_verdict::linearized) return r;
    // Not linearized: NRL re-attempts to completion. A crash inside the
    // re-attempt re-enters this recovery with a fresh capsule.
    if (inner_->wants_aux_reset()) reset_aux(board_->of(pid));
    return recovery_result::linearized(inner_->invoke(pid, op));
  }

  bool wants_aux_reset() const override { return inner_->wants_aux_reset(); }

 private:
  detectable_object* inner_;
  announcement_board* board_;
};

}  // namespace detect::core
