#include "analysis/quality.hpp"

namespace bmh {

double matching_quality(const Matching& m, vid_t max_cardinality) {
  if (max_cardinality <= 0) return 1.0;
  return static_cast<double>(m.cardinality()) / static_cast<double>(max_cardinality);
}

} // namespace bmh
