#include "history/specs.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace detect::hist {

namespace {
[[noreturn]] void bad_op(const char* spec_name, const op_desc& op) {
  throw std::invalid_argument(std::string(spec_name) +
                              ": unsupported operation " + op.to_string());
}
}  // namespace

value_t register_spec::apply(const op_desc& op) {
  switch (op.code) {
    case opcode::reg_read:
      return value_;
    case opcode::reg_write:
      value_ = op.a;
      return k_ack;
    case opcode::swap: {
      value_t old = value_;
      value_ = op.a;
      return old;
    }
    default:
      bad_op("register", op);
  }
}

value_t lock_spec::apply(const op_desc& op) {
  switch (op.code) {
    case opcode::lock_try:
      if (owner_ == -1) {
        owner_ = op.a;
        return k_true;
      }
      return k_false;
    case opcode::lock_release:
      if (owner_ == op.a) {
        owner_ = -1;
        return k_true;
      }
      return k_false;
    default:
      bad_op("lock", op);
  }
}

value_t cas_spec::apply(const op_desc& op) {
  switch (op.code) {
    case opcode::cas_read:
      return value_;
    case opcode::cas:
      if (value_ == op.a) {
        value_ = op.b;
        return k_true;
      }
      return k_false;
    default:
      bad_op("cas", op);
  }
}

value_t counter_spec::apply(const op_desc& op) {
  switch (op.code) {
    case opcode::ctr_read:
      return value_;
    case opcode::ctr_add: {
      value_t old = value_;
      value_ += op.a;
      if (cap_ >= 0) value_ = std::min(value_, cap_);
      return old;
    }
    default:
      bad_op("counter", op);
  }
}

value_t tas_spec::apply(const op_desc& op) {
  switch (op.code) {
    case opcode::tas_set: {
      value_t old = bit_;
      bit_ = 1;
      return old;
    }
    case opcode::tas_reset:
      bit_ = 0;
      return k_ack;
    default:
      bad_op("tas", op);
  }
}

value_t queue_spec::apply(const op_desc& op) {
  switch (op.code) {
    case opcode::enq:
      items_.push_back(op.a);
      return k_ack;
    case opcode::deq: {
      if (items_.empty()) return k_empty;
      value_t v = items_.front();
      items_.pop_front();
      return v;
    }
    default:
      bad_op("queue", op);
  }
}

value_t stack_spec::apply(const op_desc& op) {
  switch (op.code) {
    case opcode::push:
      items_.push_back(op.a);
      return k_ack;
    case opcode::pop: {
      if (items_.empty()) return k_empty;
      value_t v = items_.back();
      items_.pop_back();
      return v;
    }
    default:
      bad_op("stack", op);
  }
}

std::string stack_spec::serialize() const {
  std::ostringstream os;
  os << 's';
  for (value_t v : items_) os << v << ',';
  return os.str();
}

std::string queue_spec::serialize() const {
  std::ostringstream os;
  os << 'q';
  for (value_t v : items_) os << v << ',';
  return os.str();
}

value_t max_register_spec::apply(const op_desc& op) {
  switch (op.code) {
    case opcode::max_read:
      return max_;
    case opcode::max_write:
      max_ = std::max(max_, op.a);
      return k_ack;
    default:
      bad_op("max_register", op);
  }
}

const char* opcode_name(opcode c) noexcept {
  switch (c) {
    case opcode::nop: return "nop";
    case opcode::reg_read: return "reg_read";
    case opcode::reg_write: return "reg_write";
    case opcode::swap: return "swap";
    case opcode::lock_try: return "lock_try";
    case opcode::lock_release: return "lock_release";
    case opcode::cas: return "cas";
    case opcode::cas_read: return "cas_read";
    case opcode::ctr_read: return "ctr_read";
    case opcode::ctr_add: return "ctr_add";
    case opcode::tas_set: return "tas_set";
    case opcode::tas_reset: return "tas_reset";
    case opcode::enq: return "enq";
    case opcode::deq: return "deq";
    case opcode::push: return "push";
    case opcode::pop: return "pop";
    case opcode::max_write: return "max_write";
    case opcode::max_read: return "max_read";
  }
  return "?";
}

std::string op_desc::to_string() const {
  std::ostringstream os;
  os << opcode_name(code) << "(";
  switch (code) {
    case opcode::reg_write:
    case opcode::swap:
    case opcode::ctr_add:
    case opcode::enq:
    case opcode::push:
    case opcode::max_write:
    case opcode::lock_try:
    case opcode::lock_release:
      os << a;
      break;
    case opcode::cas:
      os << a << "," << b;
      break;
    default:
      break;
  }
  os << ")@obj" << object;
  return os.str();
}

std::string event::to_string() const {
  std::ostringstream os;
  switch (kind) {
    case event_kind::invoke:
      os << "p" << pid << " invoke  " << desc.to_string() << " seq=" << desc.client_seq;
      break;
    case event_kind::response:
      os << "p" << pid << " resp    " << desc.to_string() << " -> " << value;
      break;
    case event_kind::crash:
      os << "== CRASH ==";
      break;
    case event_kind::recover_begin:
      os << "p" << pid << " recover " << desc.to_string();
      break;
    case event_kind::recover_result:
      os << "p" << pid << " verdict " << desc.to_string() << " -> "
         << (verdict == recovery_verdict::fail ? std::string("FAIL")
                                               : std::to_string(value));
      break;
  }
  return os.str();
}

}  // namespace detect::hist
