#include "engine/registry.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "core/k_out.hpp"
#include "core/one_sided.hpp"
#include "core/two_sided.hpp"
#include "matching/greedy.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/karp_sipser.hpp"
#include "matching/mc21.hpp"
#include "matching/push_relabel.hpp"

namespace bmh {

namespace {

// The thread budget (AlgorithmOptions::threads) is owned by the pipeline,
// which guards every stage; the kernels run at the ambient OpenMP count.
// Rows are sorted by name (checked below), the order
// registered_algorithm_names() and `bmh_engine --list` report; registry.hpp
// says what each one is. The second field is uses_scaling, the third
// is_exact.
constexpr MatchingAlgorithm kAlgorithms[] = {
    {"greedy", false, false,
     [](const BipartiteGraph& g, const ScalingResult&, const AlgorithmOptions& o,
        Workspace& ws, Matching& out) { match_random_vertices_ws(g, o.seed, ws, out); }},
    {"greedy_edge", false, false,
     [](const BipartiteGraph& g, const ScalingResult&, const AlgorithmOptions& o,
        Workspace& ws, Matching& out) { match_random_edges_ws(g, o.seed, ws, out); }},
    {"hopcroft_karp", false, true,
     [](const BipartiteGraph& g, const ScalingResult&, const AlgorithmOptions&,
        Workspace& ws, Matching& out) { hopcroft_karp_ws(g, ws, out); }},
    {"k_out", true, false,
     [](const BipartiteGraph& g, const ScalingResult& s, const AlgorithmOptions& o,
        Workspace& ws, Matching& out) { k_out_from_scaling_ws(g, s, o.k, o.seed, ws, out); }},
    {"karp_sipser", false, false,
     [](const BipartiteGraph& g, const ScalingResult&, const AlgorithmOptions& o,
        Workspace& ws, Matching& out) { karp_sipser_ws(g, o.seed, nullptr, ws, out); }},
    {"mc21", false, true,
     [](const BipartiteGraph& g, const ScalingResult&, const AlgorithmOptions&,
        Workspace& ws, Matching& out) { mc21_ws(g, ws, out); }},
    {"min_degree", false, false,
     [](const BipartiteGraph& g, const ScalingResult&, const AlgorithmOptions&,
        Workspace& ws, Matching& out) { match_min_degree_ws(g, ws, out); }},
    {"one_sided", true, false,
     [](const BipartiteGraph& g, const ScalingResult& s, const AlgorithmOptions& o,
        Workspace& ws, Matching& out) { one_sided_from_scaling_ws(g, s, o.seed, ws, out); }},
    {"push_relabel", false, true,
     [](const BipartiteGraph& g, const ScalingResult&, const AlgorithmOptions&,
        Workspace& ws, Matching& out) { push_relabel_ws(g, ws, out); }},
    {"two_sided", true, false,
     [](const BipartiteGraph& g, const ScalingResult& s, const AlgorithmOptions& o,
        Workspace& ws, Matching& out) {
       two_sided_from_scaling_ws(g, s, o.seed, nullptr, ws, out);
     }},
};
static_assert(std::ranges::adjacent_find(kAlgorithms, std::ranges::greater_equal{},
                                         &MatchingAlgorithm::name) ==
                  std::ranges::end(kAlgorithms),
              "kAlgorithms must be sorted by name without duplicates");

constexpr UndirectedAlgorithm kUndirectedAlgorithms[] = {
    {"greedy",
     [](const UndirectedGraph& g, int, const AlgorithmOptions& o, Workspace& ws,
        UndirectedMatching& out, UndirectedRunInfo&) { undirected_greedy_ws(g, o.seed, ws, out); }},
    {"one_out",
     [](const UndirectedGraph& g, int scaling_iterations, const AlgorithmOptions& o,
        Workspace& ws, UndirectedMatching& out, UndirectedRunInfo& info) {
       const SymmetricScaling& s =
           undirected_one_out_match_ws(g, scaling_iterations, o.seed, ws, out);
       info.scaling_iterations = s.iterations;
       info.scaling_error = s.error;
     }},
    {"two_thirds",
     [](const UndirectedGraph& g, int, const AlgorithmOptions& o, Workspace& ws,
        UndirectedMatching& out, UndirectedRunInfo&) {
       undirected_two_thirds_ws(g, o.seed, ws, out);
     }},
};
static_assert(std::ranges::adjacent_find(kUndirectedAlgorithms, std::ranges::greater_equal{},
                                         &UndirectedAlgorithm::name) ==
                  std::ranges::end(kUndirectedAlgorithms),
              "kUndirectedAlgorithms must be sorted by name without duplicates");

/// The row named `name`, or throws std::invalid_argument naming it and
/// listing the table's names ("unknown <what> 'NAME'; registered: a b c").
template <typename Row, std::size_t N, typename Proj>
const Row& find_row(const Row (&table)[N], std::string_view name, Proj proj,
                    const char* what) {
  const auto it = std::ranges::find(table, name, proj);
  if (it != std::ranges::end(table)) return *it;
  std::string message = std::string("unknown ") + what + " '" + std::string(name) +
                        "'; registered:";
  for (const Row& row : table) (message += ' ') += std::invoke(proj, row);
  throw std::invalid_argument(message);
}

template <typename Row, std::size_t N, typename Proj>
std::vector<std::string> names_of(const Row (&table)[N], Proj proj) {
  std::vector<std::string> out;
  out.reserve(N);
  for (const Row& row : table) out.emplace_back(std::invoke(proj, row));
  return out;
}

} // namespace

const MatchingAlgorithm& find_algorithm(std::string_view name) {
  return find_row(kAlgorithms, name, &MatchingAlgorithm::name, "algorithm");
}

std::unique_ptr<MatchingAlgorithm> make_algorithm(std::string_view name,
                                                  const AlgorithmOptions& /*options*/) {
  return std::make_unique<MatchingAlgorithm>(find_algorithm(name));
}

std::vector<std::string> registered_algorithm_names() {
  return names_of(kAlgorithms, &MatchingAlgorithm::name);
}

const UndirectedAlgorithm& find_undirected_algorithm(std::string_view name) {
  return find_row(kUndirectedAlgorithms, name, &UndirectedAlgorithm::name,
                  "undirected algorithm");
}

std::vector<std::string> registered_undirected_algorithm_names() {
  return names_of(kUndirectedAlgorithms, &UndirectedAlgorithm::name);
}

} // namespace bmh
