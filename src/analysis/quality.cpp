#include "analysis/quality.hpp"

#include "matching/push_relabel.hpp"

namespace bmh {

double matching_quality(const Matching& m, vid_t max_cardinality) {
  if (max_cardinality <= 0) return 1.0;
  return static_cast<double>(m.cardinality()) / static_cast<double>(max_cardinality);
}

QualityReport evaluate_matching(const BipartiteGraph& g, const Matching& m) {
  QualityReport r;
  r.cardinality = m.cardinality();
  r.sprank = sprank(g);
  r.quality = matching_quality(m, r.sprank);
  r.valid = is_valid_matching(g, m);
  return r;
}

} // namespace bmh
