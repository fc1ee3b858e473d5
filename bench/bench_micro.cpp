/// \file bench_micro.cpp
/// \brief google-benchmark microbenchmarks of the library's kernels:
/// scaling sweeps, choice sampling, KarpSipserMT phases, exact solvers,
/// graph assembly, the graph store's checksum, spill and load, and a cold
/// graph acquire through the cache and store. These
/// are the building blocks behind every table.
///
/// Each kernel benchmark holds one Workspace across its iterations, warm
/// after the first as an engine worker's is, and writes into a result
/// object made fresh each iteration unless its comment says otherwise.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <unistd.h>

#include "bmh.hpp"

namespace {

using namespace bmh;

const BipartiteGraph& er_graph(vid_t n, eid_t deg) {
  static std::map<std::pair<vid_t, eid_t>, BipartiteGraph> cache;
  auto [it, inserted] = cache.try_emplace({n, deg});
  if (inserted) it->second = make_erdos_renyi(n, n, deg * n, 42);
  return it->second;
}

// {n, iterations}: 5 is the engine's default, where the fused error pass
// saves 4 of 15 edge sweeps; a single iteration sweeps 3 times either way.
void BM_SinkhornKnoppIteration(benchmark::State& state) {
  const auto n = static_cast<vid_t>(state.range(0));
  const auto iterations = static_cast<int>(state.range(1));
  const BipartiteGraph& g = er_graph(n, 8);
  Workspace ws;
  for (auto _ : state) {
    ScalingResult s;
    scale_sinkhorn_knopp_ws(g, {iterations, 0.0}, ws, s);
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations() * iterations * g.num_edges());
}
BENCHMARK(BM_SinkhornKnoppIteration)
    ->Args({1 << 14, 1})
    ->Args({1 << 17, 1})
    ->Args({1 << 17, 5})
    ->Args({1 << 20, 1});

void BM_RuizIteration(benchmark::State& state) {
  const auto n = static_cast<vid_t>(state.range(0));
  const BipartiteGraph& g = er_graph(n, 8);
  Workspace ws;
  for (auto _ : state) {
    ScalingResult s;
    scale_ruiz_ws(g, {1, 0.0}, ws, s);
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_RuizIteration)->Arg(1 << 17);

// One pick per row of er deg 8 into a kept vector, a new seed each
// iteration. Real time: the picks run on the OpenMP team, whose work the
// main thread's CPU time would hide.
void BM_ChoiceSampling(benchmark::State& state) {
  const auto n = static_cast<vid_t>(state.range(0));
  const BipartiteGraph& g = er_graph(n, 8);
  Workspace ws;
  ScalingResult s;
  scale_sinkhorn_knopp_ws(g, {2, 0.0}, ws, s);
  std::vector<vid_t> choice;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    sample_row_choices(g, s.dc, ++seed, choice);
    benchmark::DoNotOptimize(choice.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_ChoiceSampling)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 20)->UseRealTime();

// BM_ChoiceSampling's k-pick twin: k_out's row side, 2 distinct picks per
// row under 5 Sinkhorn–Knopp iterations (as BM_KOutSubgraph samples).
void BM_KOutSampling(benchmark::State& state) {
  const auto n = static_cast<vid_t>(state.range(0));
  const BipartiteGraph& g = er_graph(n, 8);
  Workspace ws;
  ScalingResult s;
  scale_sinkhorn_knopp_ws(g, {5, 0.0}, ws, s);
  DefaultInitVector<vid_t> picks;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    sample_row_choices_k(g, s.dc, 2, ++seed, picks);
    benchmark::DoNotOptimize(picks.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_KOutSampling)->Arg(1 << 10)->Arg(1 << 17)->UseRealTime();

void BM_OneSidedEndToEnd(benchmark::State& state) {
  const auto n = static_cast<vid_t>(state.range(0));
  const BipartiteGraph& g = er_graph(n, 8);
  Workspace ws;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    Matching m;
    one_sided_match_ws(g, 1, ++seed, ws, m);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_OneSidedEndToEnd)->Arg(1 << 17)->Arg(1 << 20);

void BM_KarpSipserMT(benchmark::State& state) {
  const auto n = static_cast<vid_t>(state.range(0));
  const BipartiteGraph& g = er_graph(n, 8);
  Workspace ws;
  ScalingResult s;
  scale_sinkhorn_knopp_ws(g, {1, 0.0}, ws, s);
  TwoSidedChoices ch;
  sample_two_sided_choices_ws(g, s, 7, ch);
  std::vector<vid_t> unified;
  unify_choices(g.num_rows(), g.num_cols(), ch.rchoice, ch.cchoice, unified);
  for (auto _ : state) {
    Matching m;
    karp_sipser_mt_ws(g.num_rows(), g.num_cols(), unified, nullptr, ws, m);
    benchmark::DoNotOptimize(m);
  }
  state.SetItemsProcessed(state.iterations() * (g.num_rows() + g.num_cols()));
}
BENCHMARK(BM_KarpSipserMT)->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 20);

void BM_TwoSidedEndToEnd(benchmark::State& state) {
  const auto n = static_cast<vid_t>(state.range(0));
  const BipartiteGraph& g = er_graph(n, 8);
  Workspace ws;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    Matching m;
    two_sided_match_ws(g, 1, ++seed, nullptr, ws, m);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_TwoSidedEndToEnd)->Arg(1 << 17)->Arg(1 << 20);

void BM_SequentialKarpSipser(benchmark::State& state) {
  const auto n = static_cast<vid_t>(state.range(0));
  const BipartiteGraph& g = er_graph(n, 8);
  Workspace ws;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    Matching m;
    karp_sipser_ws(g, ++seed, nullptr, ws, m);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_SequentialKarpSipser)->Arg(1 << 14)->Arg(1 << 17);

// The exact solvers share one instance set, {n, average degree}: er deg 8
// at 2^14 and 2^17, and a sprank-deficient er deg 4 at 2^14 (about 2% of
// the rows unmatchable), where push-relabel leans on its global relabels.
void exact_solver_args(benchmark::internal::Benchmark* b) {
  b->Args({1 << 14, 8})->Args({1 << 17, 8})->Args({1 << 14, 4});
}

void BM_HopcroftKarp(benchmark::State& state) {
  const BipartiteGraph& g =
      er_graph(static_cast<vid_t>(state.range(0)), static_cast<eid_t>(state.range(1)));
  Workspace ws;
  for (auto _ : state) {
    Matching m;
    hopcroft_karp_ws(g, ws, m);
    benchmark::DoNotOptimize(m);
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_HopcroftKarp)->Apply(exact_solver_args);

void BM_PushRelabel(benchmark::State& state) {
  const BipartiteGraph& g =
      er_graph(static_cast<vid_t>(state.range(0)), static_cast<eid_t>(state.range(1)));
  Workspace ws;
  for (auto _ : state) {
    Matching m;
    push_relabel_ws(g, ws, m);
    benchmark::DoNotOptimize(m);
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_PushRelabel)->Apply(exact_solver_args);

void BM_Mc21(benchmark::State& state) {
  const BipartiteGraph& g =
      er_graph(static_cast<vid_t>(state.range(0)), static_cast<eid_t>(state.range(1)));
  Workspace ws;
  for (auto _ : state) {
    Matching m;
    mc21_ws(g, ws, m);
    benchmark::DoNotOptimize(m);
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_Mc21)->Apply(exact_solver_args);

// The registry's k_out on a resident graph whose scaling (5 Sinkhorn-Knopp
// iterations) is already known: sample 2 picks per vertex, assemble the
// subgraph and solve it with push-relabel. A new seed each iteration.
void BM_KOutMatch(benchmark::State& state) {
  const BipartiteGraph& g = er_graph(static_cast<vid_t>(state.range(0)), 8);
  Workspace ws;
  ScalingResult scaling;
  scale_sinkhorn_knopp_ws(g, {5, 0.0}, ws, scaling);
  Matching m;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    k_out_from_scaling_ws(g, scaling, 2, ++seed, ws, m);
    benchmark::DoNotOptimize(m.row_match.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_KOutMatch)->Arg(1 << 17)->Unit(benchmark::kMillisecond)->UseRealTime();

// BM_KOutMatch without the solve: sample 2 picks per side and assemble the
// subgraph into a workspace-kept graph. A new seed each iteration.
void k_out_subgraph_loop(benchmark::State& state, eid_t degree) {
  const BipartiteGraph& g = er_graph(static_cast<vid_t>(state.range(0)), degree);
  Workspace ws;
  ScalingResult scaling;
  scale_sinkhorn_knopp_ws(g, {5, 0.0}, ws, scaling);
  BipartiteGraph sub;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    k_out_subgraph_ws(g, scaling, 2, ++seed, ws, sub);
    benchmark::DoNotOptimize(sub.col_idx().data());
    benchmark::ClobberMemory();
  }
}
void BM_KOutSubgraph(benchmark::State& state) { k_out_subgraph_loop(state, 8); }
BENCHMARK(BM_KOutSubgraph)->Arg(1 << 10)->Arg(1 << 17)->UseRealTime();
// Average degree 64: the subgraph keeps about 4 of every 64 edges of g.
void BM_KOutSubgraphDense(benchmark::State& state) { k_out_subgraph_loop(state, 64); }
BENCHMARK(BM_KOutSubgraphDense)->Arg(1 << 17)->UseRealTime();

void BM_HopcroftKarpWarmStarted(benchmark::State& state) {
  const auto n = static_cast<vid_t>(state.range(0));
  const BipartiteGraph& g = er_graph(n, 8);
  Workspace ws;
  Matching warm;
  two_sided_match_ws(g, 3, 7, nullptr, ws, warm);
  for (auto _ : state) {
    // Copy and check the warm start, as the engine's augment stage does.
    Matching m = warm;
    if (!is_valid_matching(g, m)) state.SkipWithError("invalid warm start");
    hopcroft_karp_augment_ws(g, m, ws);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_HopcroftKarpWarmStarted)->Arg(1 << 14)->Arg(1 << 17);

// The engine's augment stage: the same warm start completed by push-relabel.
void BM_PushRelabelWarmStarted(benchmark::State& state) {
  const auto n = static_cast<vid_t>(state.range(0));
  const BipartiteGraph& g = er_graph(n, 8);
  Workspace ws;
  Matching warm;
  two_sided_match_ws(g, 3, 7, nullptr, ws, warm);
  for (auto _ : state) {
    // Copy and check the warm start, as the engine's augment stage does.
    Matching m = warm;
    if (!is_valid_matching(g, m)) state.SkipWithError("invalid warm start");
    push_relabel_augment_ws(g, m, ws);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_PushRelabelWarmStarted)->Arg(1 << 14)->Arg(1 << 17);

void BM_GraphAssembly(benchmark::State& state) {
  const auto n = static_cast<vid_t>(state.range(0));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_erdos_renyi(n, n, 8LL * n, ++seed));
  }
  state.SetItemsProcessed(state.iterations() * 8 * n);
}
// Real time: generation and assembly run on the OpenMP team, whose work the
// main thread's CPU time would hide.
BENCHMARK(BM_GraphAssembly)->Arg(1 << 14)->Arg(1 << 17)->UseRealTime();

// cold_build's instance, planted n = 2^17 with extra = 3, built the way the
// engine builds a job's graph on a cache miss: generate, assemble, validate,
// CSC. A new seed each iteration, like the workload's distinct instances.
void BM_PlantedBuild(benchmark::State& state) {
  const GraphSpec spec =
      parse_graph_spec("gen:planted:n=" + std::to_string(state.range(0)) + ",extra=3");
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_graph(spec, ++seed));
  }
  state.SetItemsProcessed(state.iterations() * 4 * state.range(0));
}
BENCHMARK(BM_PlantedBuild)->Arg(1 << 17)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_CscConstruction(benchmark::State& state) {
  const auto n = static_cast<vid_t>(state.range(0));
  const BipartiteGraph& g = er_graph(n, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.transposed());  // exercises build_csc
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_CscConstruction)->Arg(1 << 17)->UseRealTime();

void BM_MatchingValidation(benchmark::State& state) {
  const auto n = static_cast<vid_t>(state.range(0));
  const BipartiteGraph& g = er_graph(n, 8);
  Workspace ws;
  Matching m;
  two_sided_match_ws(g, 1, 3, nullptr, ws, m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(is_valid_matching(g, m));
  }
}
BENCHMARK(BM_MatchingValidation)->Arg(1 << 17);

// The undirected check on a bipartite-union view (2n vertices), as
// kind=undirected-match runs it on every job.
void undirected_validation_loop(benchmark::State& state, const BipartiteGraph& g) {
  UndirectedGraph view;
  view.assign_bipartite_union(g);
  Workspace ws;
  UndirectedMatching m;
  undirected_greedy_ws(view, 3, ws, m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(is_valid_matching(view, m));
  }
}
void BM_UndirectedValidation(benchmark::State& state) {
  undirected_validation_loop(state, er_graph(static_cast<vid_t>(state.range(0)), 8));
}
BENCHMARK(BM_UndirectedValidation)->Arg(1 << 17)->UseRealTime();
// gen:powerlaw's rows (average degree 8, the default alpha 1.8): hubs with
// thousands of neighbours, where a matched vertex's list is longest.
void BM_UndirectedValidationPowerLaw(benchmark::State& state) {
  static const BipartiteGraph g =
      make_power_law(static_cast<vid_t>(state.range(0)), 8.0, 1.8, 42);
  undirected_validation_loop(state, g);
}
BENCHMARK(BM_UndirectedValidationPowerLaw)->Arg(1 << 17)->UseRealTime();

// The store workloads' instance: planted n = 2^17, extra = 3 (524,278 edges,
// a 6.00 MiB file), spilled once under its canonical key.
struct StoreFixture {
  BipartiteGraph graph;
  std::string key;
  std::string path;
  std::vector<char> payload;  ///< the file's bytes after the header

  explicit StoreFixture(vid_t n) {
    const GraphSpec spec =
        parse_graph_spec("gen:planted:n=" + std::to_string(n) + ",extra=3,seed=1");
    graph = build_graph(spec, 1);
    key = canonical_graph_key(spec, 1);
    path = (std::filesystem::temp_directory_path() /
            ("bmh_bench_store_" + std::to_string(::getpid()) + "_" +
             std::to_string(n) + ".bmg"))
               .string();
    save_graph(graph, path, key);
    std::ifstream in(path, std::ios::binary);
    payload.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    payload.erase(payload.begin(), payload.begin() + sizeof(GraphFileHeader));
  }
  ~StoreFixture() { std::remove(path.c_str()); }
  StoreFixture(const StoreFixture&) = delete;
  StoreFixture& operator=(const StoreFixture&) = delete;
};

const StoreFixture& store_fixture(vid_t n) {
  static std::map<vid_t, StoreFixture> cache;
  return cache.try_emplace(n, n).first->second;
}

void BM_Crc32(benchmark::State& state) {
  const StoreFixture& f = store_fixture(static_cast<vid_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32_ieee(f.payload.data(), f.payload.size()));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.payload.size()));
}
BENCHMARK(BM_Crc32)->Arg(1 << 17);

// save_graph as GraphStore spills: write, CRC, rename (no fsync).
void BM_StoreSpill(benchmark::State& state) {
  const StoreFixture& f = store_fixture(static_cast<vid_t>(state.range(0)));
  const std::string path = f.path + ".spill";
  for (auto _ : state) save_graph(f.graph, path, f.key);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(serialized_graph_bytes(f.graph, f.key)));
  std::remove(path.c_str());
}
BENCHMARK(BM_StoreSpill)->Arg(1 << 17)->Unit(benchmark::kMillisecond)->UseRealTime();

// load_graph_mapped from the page cache: mmap, CRC, structural validation.
void BM_StoreLoad(benchmark::State& state) {
  const StoreFixture& f = store_fixture(static_cast<vid_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(load_graph_mapped(f.path));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(serialized_graph_bytes(f.graph, f.key)));
}
BENCHMARK(BM_StoreLoad)->Arg(1 << 17)->Unit(benchmark::kMillisecond)->UseRealTime();

// A cold job's graph acquire: get_or_build of a fresh planted n = 2^17,
// extra = 3 key (a new seed each iteration) through a cache with a store
// attached, in wall time. The cache is smaller than the graph, so nothing
// stays resident and nothing is evicted. The store's backlog is flushed and
// the file removed outside the timed region: each iteration times what a
// job waits for before its scale stage.
void BM_GraphCacheColdAcquire(benchmark::State& state) {
  const GraphSpec spec =
      parse_graph_spec("gen:planted:n=" + std::to_string(state.range(0)) + ",extra=3");
  const std::string dir = (std::filesystem::temp_directory_path() /
                           ("bmh_bench_cold_acquire_" + std::to_string(::getpid())))
                              .string();
  {
    GraphCache::Options options;
    options.max_bytes = 1 << 20;
    options.shards = 1;
    options.store_dir = dir;
    GraphCache cache(options);
    std::uint64_t seed = 0;
    for (auto _ : state) {
      benchmark::DoNotOptimize(cache.get_or_build(spec, ++seed));
      state.PauseTiming();
      cache.store()->flush();
      std::filesystem::remove(cache.store()->path_for(canonical_graph_key(spec, seed)));
      state.ResumeTiming();
    }
  }
  std::filesystem::remove_all(dir);
  state.SetItemsProcessed(state.iterations() * 4 * state.range(0));
}
BENCHMARK(BM_GraphCacheColdAcquire)
    ->Arg(1 << 17)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

} // namespace

BENCHMARK_MAIN();
