#include "core/workspace.hpp"

namespace bmh {

void Workspace::throw_type_mismatch(std::string_view tag) {
  throw std::logic_error("workspace tag '" + std::string(tag) +
                         "' re-leased with a different type");
}

} // namespace bmh
