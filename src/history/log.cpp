#include "history/log.hpp"

#include <sstream>

namespace detect::hist {

std::string log_text(const std::vector<event>& events) {
  std::ostringstream os;
  for (const event& e : events) os << e.to_string() << '\n';
  return os.str();
}

}  // namespace detect::hist
