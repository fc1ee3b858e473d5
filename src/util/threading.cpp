#include "util/threading.hpp"

#include <omp.h>

#include <algorithm>
#include <stdexcept>

namespace bmh {

void set_num_threads(int n) {
  if (n < 1) throw std::invalid_argument("set_num_threads: n must be >= 1");
  omp_set_num_threads(n);
}

int max_threads() noexcept { return omp_get_max_threads(); }

int num_procs() noexcept { return omp_get_num_procs(); }

ThreadCountGuard::ThreadCountGuard(int n) : previous_(omp_get_max_threads()) {
  set_num_threads(n);
}

ThreadCountGuard::~ThreadCountGuard() { omp_set_num_threads(previous_); }

JobThreadGuard::JobThreadGuard(int threads) {
  if (threads > 0) guard_.emplace(std::min(threads, num_procs()));
}

} // namespace bmh
