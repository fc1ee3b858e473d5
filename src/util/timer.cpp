#include "util/timer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace bmh {

namespace {
void check_window(std::size_t n, std::size_t warmup) {
  if (warmup >= n) throw std::invalid_argument("RunStats: warmup consumes all samples");
}
} // namespace

double RunStats::geomean(std::size_t warmup) const {
  check_window(samples_.size(), warmup);
  double log_sum = 0.0;
  std::size_t n = 0;
  for (std::size_t i = warmup; i < samples_.size(); ++i) {
    log_sum += std::log(std::max(samples_[i], 1e-12));
    ++n;
  }
  return std::exp(log_sum / static_cast<double>(n));
}

} // namespace bmh
