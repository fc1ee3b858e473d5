// Fixture: ws-twin violations. Each kernel has one entry point, its `_ws`
// form; an allocating twin beside it must produce one finding.
#include <vector>

namespace fixture {

struct Workspace {};

void degrees_ws(const std::vector<int>& ptr, Workspace& ws, std::vector<int>& out) {
  (void)ws;
  out.resize(ptr.empty() ? 0 : ptr.size() - 1);
  for (std::size_t i = 0; i + 1 < ptr.size(); ++i) out[i] = ptr[i + 1] - ptr[i];
}

std::vector<int> degrees(const std::vector<int>& ptr) {  // finding: the twin
  Workspace ws;
  std::vector<int> out;
  degrees_ws(ptr, ws, out);
  return out;
}

// Members of different classes may share a stem: no finding.
class Runner {
public:
  int run() { return 1; }
};
class Kernel {
public:
  int run_ws(Workspace& ws) {
    (void)ws;
    return 2;
  }
};

}  // namespace fixture
