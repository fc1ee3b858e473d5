// Fixture: omp-alloc violations. An allocation that throws inside an OpenMP
// region terminates the process, so buffers are sized before the region.
#include <memory>
#include <vector>

namespace fixture {

void grow_in_block(std::vector<int>& out, int n) {
#pragma omp parallel
  {
    out.resize(static_cast<std::size_t>(n));  // finding: resize
  }
}

void push_in_loop(std::vector<std::vector<int>>& rows, int n) {
#pragma omp parallel for schedule(static)
  for (int i = 0; i < n; ++i)
    rows[static_cast<std::size_t>(i)].push_back(i);  // finding: push_back
}

void heap_in_continued_pragma(int** slots, int n) {
#pragma omp parallel for \
    schedule(dynamic, 64)
  for (int i = 0; i < n; ++i) {
    if (i % 2 == 0) {
      slots[i] = new int(i);  // finding: new
    } else {
      auto p = std::make_unique<int>(i);  // finding: make_unique
      *slots[i] = *p;
    }
  }
}

// Sized before the region, filled inside it, grown after it: no finding.
void sized_before(std::vector<int>& out, int n) {
  out.resize(static_cast<std::size_t>(n));
#pragma omp parallel for
  for (int i = 0; i < n; ++i) out[static_cast<std::size_t>(i)] = i;
  out.push_back(n);
}

// Suppressed with a justification: no finding, and no bare-allow either.
void reserved_per_thread(std::vector<std::vector<int>>& parts) {
#pragma omp parallel
  {
    // bmh-lint: allow(omp-alloc) exercises the allow() path of the rule
    parts[0].reserve(16);
  }
}

}  // namespace fixture
