/// \file bench_micro.cpp
/// \brief google-benchmark microbenchmarks of the library's kernels:
/// scaling sweeps, choice sampling, KarpSipserMT phases, exact solvers,
/// graph assembly, and the graph store's checksum, spill and load. These
/// are the building blocks behind every table.

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
  for (auto _ : state) {
    benchmark::DoNotOptimize(scale_sinkhorn_knopp(g, {iterations, 0.0}));
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
  for (auto _ : state) {
    benchmark::DoNotOptimize(scale_ruiz(g, {1, 0.0}));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_RuizIteration)->Arg(1 << 17);

void BM_ChoiceSampling(benchmark::State& state) {
  const auto n = static_cast<vid_t>(state.range(0));
  const BipartiteGraph& g = er_graph(n, 8);
  const ScalingResult s = scale_sinkhorn_knopp(g, {2, 0.0});
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sample_row_choices(g, s.dc, ++seed));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_ChoiceSampling)->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 20);

void BM_OneSidedEndToEnd(benchmark::State& state) {
  const auto n = static_cast<vid_t>(state.range(0));
  const BipartiteGraph& g = er_graph(n, 8);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(one_sided_match(g, 1, ++seed));
  }
}
BENCHMARK(BM_OneSidedEndToEnd)->Arg(1 << 17)->Arg(1 << 20);

void BM_KarpSipserMT(benchmark::State& state) {
  const auto n = static_cast<vid_t>(state.range(0));
  const BipartiteGraph& g = er_graph(n, 8);
  const ScalingResult s = scale_sinkhorn_knopp(g, {1, 0.0});
  const TwoSidedChoices ch = sample_two_sided_choices(g, s, 7);
  const std::vector<vid_t> unified =
      unify_choices(g.num_rows(), g.num_cols(), ch.rchoice, ch.cchoice);
  for (auto _ : state) {
    benchmark::DoNotOptimize(karp_sipser_mt(g.num_rows(), g.num_cols(), unified));
  }
  state.SetItemsProcessed(state.iterations() * (g.num_rows() + g.num_cols()));
}
BENCHMARK(BM_KarpSipserMT)->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 20);

void BM_TwoSidedEndToEnd(benchmark::State& state) {
  const auto n = static_cast<vid_t>(state.range(0));
  const BipartiteGraph& g = er_graph(n, 8);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(two_sided_match(g, 1, ++seed));
  }
}
BENCHMARK(BM_TwoSidedEndToEnd)->Arg(1 << 17)->Arg(1 << 20);

void BM_SequentialKarpSipser(benchmark::State& state) {
  const auto n = static_cast<vid_t>(state.range(0));
  const BipartiteGraph& g = er_graph(n, 8);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(karp_sipser(g, ++seed));
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
  for (auto _ : state) {
    benchmark::DoNotOptimize(hopcroft_karp(g));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_HopcroftKarp)->Apply(exact_solver_args);

void BM_PushRelabel(benchmark::State& state) {
  const BipartiteGraph& g =
      er_graph(static_cast<vid_t>(state.range(0)), static_cast<eid_t>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(push_relabel(g));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_PushRelabel)->Apply(exact_solver_args);

void BM_Mc21(benchmark::State& state) {
  const BipartiteGraph& g =
      er_graph(static_cast<vid_t>(state.range(0)), static_cast<eid_t>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(mc21(g));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_Mc21)->Apply(exact_solver_args);

void BM_HopcroftKarpWarmStarted(benchmark::State& state) {
  const auto n = static_cast<vid_t>(state.range(0));
  const BipartiteGraph& g = er_graph(n, 8);
  const Matching warm = two_sided_match(g, 3, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hopcroft_karp(g, &warm));
  }
}
BENCHMARK(BM_HopcroftKarpWarmStarted)->Arg(1 << 14)->Arg(1 << 17);

// The engine's augment stage: the same warm start completed by push-relabel.
void BM_PushRelabelWarmStarted(benchmark::State& state) {
  const auto n = static_cast<vid_t>(state.range(0));
  const BipartiteGraph& g = er_graph(n, 8);
  const Matching warm = two_sided_match(g, 3, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(push_relabel(g, &warm));
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
BENCHMARK(BM_GraphAssembly)->Arg(1 << 14)->Arg(1 << 17);

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
BENCHMARK(BM_CscConstruction)->Arg(1 << 17);

void BM_MatchingValidation(benchmark::State& state) {
  const auto n = static_cast<vid_t>(state.range(0));
  const BipartiteGraph& g = er_graph(n, 8);
  const Matching m = two_sided_match(g, 1, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(is_valid_matching(g, m));
  }
}
BENCHMARK(BM_MatchingValidation)->Arg(1 << 17);

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

} // namespace

BENCHMARK_MAIN();
