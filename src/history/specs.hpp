// Sequential specifications of every object type in the suite.
//
// A spec is a deterministic state machine: `apply` consumes an abstract
// operation and returns its response. Specs serve three consumers:
//   * the linearizability checker (candidate orders are validated against
//     the spec),
//   * the doubly-perturbing certificate machinery of §5 / appendix A
//     (histories are replayed on specs to compare responses),
//   * tests, as ground truth for sequential executions.
//
// `serialize` must be injective on states: the checker memoizes on it, and a
// collision would unsoundly prune the search.
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "history/event.hpp"

namespace detect::hist {

class spec {
 public:
  virtual ~spec() = default;
  virtual std::unique_ptr<spec> clone() const = 0;
  /// Apply `op`, mutate state, return the response.
  virtual value_t apply(const op_desc& op) = 0;
  /// Injective encoding of the current state.
  virtual std::string serialize() const = 0;
};

/// Read/write register (§3), plus swap (fetch-and-store). Responses:
/// read → value, write → ack, swap → old value.
class register_spec final : public spec {
 public:
  explicit register_spec(value_t init = 0) : value_(init) {}
  std::unique_ptr<spec> clone() const override {
    return std::make_unique<register_spec>(*this);
  }
  value_t apply(const op_desc& op) override;
  std::string serialize() const override { return std::to_string(value_); }

 private:
  value_t value_;
};

/// Try-lock / release pair. Operations carry the caller's pid in `a` (specs
/// are process-agnostic otherwise). lock_try → true iff acquired;
/// lock_release → true iff the caller held the lock.
class lock_spec final : public spec {
 public:
  std::unique_ptr<spec> clone() const override {
    return std::make_unique<lock_spec>(*this);
  }
  value_t apply(const op_desc& op) override;
  std::string serialize() const override { return std::to_string(owner_); }

 private:
  value_t owner_ = -1;  // -1 = free
};

/// CAS object (§4). Responses: cas → true/false, read → value.
class cas_spec final : public spec {
 public:
  explicit cas_spec(value_t init = 0) : value_(init) {}
  std::unique_ptr<spec> clone() const override {
    return std::make_unique<cas_spec>(*this);
  }
  value_t apply(const op_desc& op) override;
  std::string serialize() const override { return std::to_string(value_); }

 private:
  value_t value_;
};

/// Counter / fetch-and-add (appendix Lemmas 5, 7). `ctr_add` returns the old
/// value. An optional cap models the bounded counter of Lemma 5's corollary.
class counter_spec final : public spec {
 public:
  explicit counter_spec(value_t init = 0, value_t cap = -1)
      : value_(init), cap_(cap) {}
  std::unique_ptr<spec> clone() const override {
    return std::make_unique<counter_spec>(*this);
  }
  value_t apply(const op_desc& op) override;
  std::string serialize() const override { return std::to_string(value_); }

 private:
  value_t value_;
  value_t cap_;  // -1 = unbounded
};

/// Resettable test-and-set. `tas_set` returns the previous bit.
class tas_spec final : public spec {
 public:
  std::unique_ptr<spec> clone() const override {
    return std::make_unique<tas_spec>(*this);
  }
  value_t apply(const op_desc& op) override;
  std::string serialize() const override { return std::to_string(bit_); }

 private:
  value_t bit_ = 0;
};

/// FIFO queue (appendix Lemma 8). deq on empty returns k_empty.
class queue_spec final : public spec {
 public:
  std::unique_ptr<spec> clone() const override {
    return std::make_unique<queue_spec>(*this);
  }
  value_t apply(const op_desc& op) override;
  std::string serialize() const override;

 private:
  std::deque<value_t> items_;
};

/// LIFO stack (doubly-perturbing like the queue of Lemma 8). pop on empty
/// returns k_empty.
class stack_spec final : public spec {
 public:
  std::unique_ptr<spec> clone() const override {
    return std::make_unique<stack_spec>(*this);
  }
  value_t apply(const op_desc& op) override;
  std::string serialize() const override;

 private:
  std::vector<value_t> items_;
};

/// Max register (§5, Algorithm 3). read returns the largest value written.
class max_register_spec final : public spec {
 public:
  explicit max_register_spec(value_t init = 0) : max_(init) {}
  std::unique_ptr<spec> clone() const override {
    return std::make_unique<max_register_spec>(*this);
  }
  value_t apply(const op_desc& op) override;
  std::string serialize() const override { return std::to_string(max_); }

 private:
  value_t max_;
};

}  // namespace detect::hist
