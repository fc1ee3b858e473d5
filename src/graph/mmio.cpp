#include "graph/mmio.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/builder.hpp"
#include "graph/transform.hpp"

namespace bmh {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw std::runtime_error("matrix market parse error at line " + std::to_string(line) +
                           ": " + what);
}

/// The most entry lines the rest of `in` can hold, or -1 when the stream
/// cannot seek to tell.
long long entry_lines_left(std::istream& in) {
  const std::istream::pos_type here = in.tellg();
  if (here == std::istream::pos_type(-1)) return -1;
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.seekg(here);
  if (end == std::istream::pos_type(-1) || !in) {
    in.clear();
    in.seekg(here);
    return -1;
  }
  // n lines of >= 3 characters, newline-separated, take >= 4n - 1 bytes.
  return (static_cast<long long>(end - here) + 1) / 4;
}

} // namespace

BipartiteGraph read_matrix_market(std::istream& in) {
  std::string line;
  std::size_t lineno = 0;

  if (!std::getline(in, line)) fail(1, "empty stream");
  ++lineno;
  std::istringstream banner(line);
  std::string tag, object, format, field, symmetry;
  banner >> tag >> object >> format >> field >> symmetry;
  if (lower(tag) != "%%matrixmarket") fail(lineno, "missing %%MatrixMarket banner");
  if (lower(object) != "matrix") fail(lineno, "object must be 'matrix'");
  if (lower(format) != "coordinate") fail(lineno, "only 'coordinate' format supported");
  field = lower(field);
  symmetry = lower(symmetry);
  const bool mirror = symmetry == "symmetric" || symmetry == "skew-symmetric" ||
                      symmetry == "hermitian";
  if (!mirror && symmetry != "general") fail(lineno, "unknown symmetry '" + symmetry + "'");
  if (field != "pattern" && field != "real" && field != "integer" && field != "complex")
    fail(lineno, "unknown field '" + field +
                     "' (pattern|real|integer|complex)");
  const int value_tokens = (field == "pattern") ? 0 : (field == "complex" ? 2 : 1);

  // Skip comments and blank lines up to the size line.
  do {
    if (!std::getline(in, line)) fail(lineno + 1, "missing size line");
    ++lineno;
  } while (line.empty() || line[0] == '%');

  long long rows = 0, cols = 0, nnz = 0;
  {
    std::istringstream sz(line);
    if (!(sz >> rows >> cols >> nnz) || rows < 0 || cols < 0 || nnz < 0)
      fail(lineno, "bad size line");
  }

  // The size line is a claim, not a budget: reserve no more entries than the
  // bytes left can hold. An entry line takes at least 4 bytes ("1 1" and its
  // newline). A stream that cannot tell its length reserves a bounded start.
  GraphBuilder b(static_cast<vid_t>(rows), static_cast<vid_t>(cols));
  const long long fit = entry_lines_left(in);
  const long long entries = std::min(nnz, fit >= 0 ? fit : 1LL << 20);
  b.reserve(static_cast<std::size_t>(mirror ? 2 * entries : entries));
  for (long long k = 0; k < nnz; ++k) {
    do {
      if (!std::getline(in, line)) fail(lineno + 1, "unexpected end of file");
      ++lineno;
    } while (line.empty() || line[0] == '%');
    std::istringstream es(line);
    long long i = 0, j = 0;
    if (!(es >> i >> j)) fail(lineno, "bad entry");
    for (int t = 0; t < value_tokens; ++t) {
      double v;
      if (!(es >> v)) fail(lineno, "missing value token");
    }
    std::string trailing;
    if (es >> trailing) fail(lineno, "trailing garbage '" + trailing + "' after entry");
    if (i < 1 || i > rows || j < 1 || j > cols) fail(lineno, "entry out of range");
    b.add_edge(static_cast<vid_t>(i - 1), static_cast<vid_t>(j - 1));
    if (mirror && i != j)
      b.add_edge(static_cast<vid_t>(j - 1), static_cast<vid_t>(i - 1));
  }
  // The declared count is a contract, not a hint: stray entries after it
  // mean the size line undercounts (a truncated or corrupted file), and
  // silently ignoring them would serve a different matrix than the file
  // describes. Blank lines and comments remain fine.
  while (std::getline(in, line)) {
    ++lineno;
    const auto start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '%') continue;
    fail(lineno, "content after the declared " + std::to_string(nnz) + " entries");
  }
  return b.build();
}

BipartiteGraph read_matrix_market_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open '" + path + "'");
  return read_matrix_market(in);
}

void write_matrix_market(std::ostream& out, const BipartiteGraph& g) {
  out << "%%MatrixMarket matrix coordinate pattern general\n";
  out << "% written by bmh\n";
  out << g.num_rows() << ' ' << g.num_cols() << ' ' << g.num_edges() << '\n';
  for (vid_t i = 0; i < g.num_rows(); ++i)
    for (const vid_t j : g.row_neighbors(i))
      out << (i + 1) << ' ' << (j + 1) << '\n';
}

void write_matrix_market_file(const std::string& path, const BipartiteGraph& g) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open '" + path + "' for writing");
  write_matrix_market(out, g);
}

void write_matrix_market_symmetric(std::ostream& out, const BipartiteGraph& g) {
  if (!is_pattern_symmetric(g))
    throw std::invalid_argument(
        "write_matrix_market_symmetric: graph is not square pattern-symmetric");
  // Count and emit the lower triangle (j <= i), diagonal included — the
  // reader mirrors every off-diagonal entry back.
  eid_t lower = 0;
  for (vid_t i = 0; i < g.num_rows(); ++i)
    for (const vid_t j : g.row_neighbors(i))
      if (j <= i) ++lower;
  out << "%%MatrixMarket matrix coordinate pattern symmetric\n";
  out << "% written by bmh\n";
  out << g.num_rows() << ' ' << g.num_cols() << ' ' << lower << '\n';
  for (vid_t i = 0; i < g.num_rows(); ++i)
    for (const vid_t j : g.row_neighbors(i))
      if (j <= i) out << (i + 1) << ' ' << (j + 1) << '\n';
}

void write_matrix_market_symmetric_file(const std::string& path,
                                        const BipartiteGraph& g) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open '" + path + "' for writing");
  write_matrix_market_symmetric(out, g);
}

} // namespace bmh
