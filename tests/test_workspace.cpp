/// \file test_workspace.cpp
/// \brief Tests for the Workspace scratch-arena subsystem: lease semantics,
/// kernel output independent of workspace reuse, and the
/// allocation-freedom of the warm batch-serving hot paths (certified by the
/// global allocation counter from alloc_counter.hpp).

// Exactly one TU per binary may define this before including
// alloc_counter.hpp: it replaces the global operator new/delete with
// counting versions.
#define BMH_COUNT_ALLOCS

#include "alloc_counter.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "test_helpers.hpp"

namespace bmh {
namespace {

using ::bmh::testing::expect_valid;
using ::bmh::testing::run_k_out_ws;
using ::bmh::testing::run_on_fresh_engine;
using ::bmh::testing::run_ws;
using ::bmh::testing::small_graph_zoo;

// ------------------------------------------------------------ workspace ---

TEST(Workspace, LeasesAreStableAndMonotonic) {
  Workspace ws;
  std::vector<vid_t>& a = ws.vec<vid_t>("t.a", 100);
  EXPECT_EQ(a.size(), 100u);
  a[0] = 7;
  const vid_t* data = a.data();

  // Same tag, same or smaller size: same buffer, no reallocation.
  std::vector<vid_t>& again = ws.vec<vid_t>("t.a", 50);
  EXPECT_EQ(&again, &a);
  EXPECT_EQ(again.data(), data);
  EXPECT_EQ(again.size(), 50u);
  EXPECT_EQ(again[0], 7);  // contents unspecified but here: stale value

  // Growth reallocates but keeps the same logical lease.
  std::vector<vid_t>& grown = ws.vec<vid_t>("t.a", 1000);
  EXPECT_EQ(&grown, &a);
  EXPECT_EQ(grown.size(), 1000u);
  EXPECT_GE(grown.capacity(), 1000u);

  EXPECT_EQ(ws.lease_count(), 1u);
  EXPECT_GE(ws.bytes_reserved(), 1000u * sizeof(vid_t));
}

TEST(Workspace, FillAndBufSemantics) {
  Workspace ws;
  std::vector<double>& filled = ws.vec<double>("t.fill", 8, 2.5);
  for (const double v : filled) EXPECT_EQ(v, 2.5);

  std::vector<int>& stack = ws.buf<int>("t.stack");
  stack.push_back(1);
  stack.push_back(2);
  std::vector<int>& cleared = ws.buf<int>("t.stack");
  EXPECT_EQ(&cleared, &stack);
  EXPECT_TRUE(cleared.empty());
  EXPECT_GE(cleared.capacity(), 2u);  // capacity survives the re-lease
}

TEST(Workspace, ObjectLeasePersists) {
  Workspace ws;
  Matching& m = ws.obj<Matching>("t.matching");
  m.reset(4, 4);
  m.match(1, 2);
  Matching& again = ws.obj<Matching>("t.matching");
  EXPECT_EQ(&again, &m);
  EXPECT_EQ(again.row_match[1], 2);
}

TEST(Workspace, TagTypeMismatchThrows) {
  Workspace ws;
  (void)ws.vec<vid_t>("t.typed", 4);
  EXPECT_THROW((void)ws.vec<double>("t.typed", 4), std::logic_error);
  EXPECT_THROW((void)ws.obj<Matching>("t.typed"), std::logic_error);
  (void)ws.obj<ScalingResult>("t.object");
  EXPECT_THROW((void)ws.vec<double>("t.object", 1), std::logic_error);
}

TEST(Workspace, ReleaseDropsEverything) {
  Workspace ws;
  (void)ws.vec<vid_t>("t.a", 1000);
  (void)ws.buf<double>("t.b");
  EXPECT_EQ(ws.lease_count(), 2u);
  ws.release();
  EXPECT_EQ(ws.lease_count(), 0u);
  EXPECT_EQ(ws.bytes_reserved(), 0u);
  // Leasing after release works (fresh buffers).
  EXPECT_EQ(ws.vec<vid_t>("t.a", 3).size(), 3u);
}

// ------------------------------------------------------ reuse ----------

/// Every bipartite `_ws` kernel, run twice through one Workspace reused
/// across kernels and graphs, must give the output it gives through a fresh
/// Workspace (run_ws): leases carry stale contents, never results.
TEST(WorkspaceReuse, KernelsMatchAFreshWorkspace) {
  // One OpenMP thread: above that the paper's kernels race by design
  // (one-sided's last-writer-wins column claims, Karp–Sipser-MT's
  // concurrent vertex claims), so two runs are only bit-comparable serially.
  ThreadCountGuard serial(1);
  Workspace ws;
  Matching m;
  ScalingResult s_out;
  BipartiteGraph sub;
  PipelineResult r;
  const auto twice = [](const auto& run, const auto& check) {
    for (int pass = 0; pass < 2; ++pass) {
      run();
      check(pass);
    }
  };
  const auto same_matching = [&](const char* what, const Matching& fresh, const auto& run) {
    twice(run, [&](int pass) {
      EXPECT_EQ(m.row_match, fresh.row_match) << what << " pass " << pass;
      EXPECT_EQ(m.col_match, fresh.col_match) << what << " pass " << pass;
    });
  };
  const auto same_scaling = [&](const char* what, const ScalingResult& fresh,
                                const auto& run) {
    twice(run, [&](int pass) {
      EXPECT_EQ(s_out.dr, fresh.dr) << what << " pass " << pass;
      EXPECT_EQ(s_out.dc, fresh.dc) << what << " pass " << pass;
      EXPECT_EQ(s_out.iterations, fresh.iterations) << what << " pass " << pass;
      EXPECT_EQ(s_out.error, fresh.error) << what << " pass " << pass;
    });
  };
  for (const BipartiteGraph& g : small_graph_zoo()) {
    const ScalingOptions opts{5, 0.0};
    const ScalingResult s = run_ws(scale_sinkhorn_knopp_ws, g, opts);

    same_scaling("scale_sinkhorn_knopp_ws", s,
                 [&] { scale_sinkhorn_knopp_ws(g, opts, ws, s_out); });
    same_scaling("scale_ruiz_ws", run_ws(scale_ruiz_ws, g, opts),
                 [&] { scale_ruiz_ws(g, opts, ws, s_out); });
    same_scaling("identity_scaling_ws", run_ws(identity_scaling_ws, g, true),
                 [&] { identity_scaling_ws(g, ws, s_out); });
    EXPECT_EQ(scaling_error_ws(g, s, ws), run_ws(scaling_error_ws, g, s));

    same_matching("karp_sipser_ws", run_ws(karp_sipser_ws, g, 7, nullptr),
                  [&] { karp_sipser_ws(g, 7, nullptr, ws, m); });
    same_matching("match_random_edges_ws", run_ws(match_random_edges_ws, g, 7),
                  [&] { match_random_edges_ws(g, 7, ws, m); });
    same_matching("match_random_vertices_ws", run_ws(match_random_vertices_ws, g, 7),
                  [&] { match_random_vertices_ws(g, 7, ws, m); });
    same_matching("match_min_degree_ws", run_ws(match_min_degree_ws, g),
                  [&] { match_min_degree_ws(g, ws, m); });
    same_matching("one_sided_from_scaling_ws", run_ws(one_sided_from_scaling_ws, g, s, 7),
                  [&] { one_sided_from_scaling_ws(g, s, 7, ws, m); });
    same_matching("one_sided_match_ws", run_ws(one_sided_match_ws, g, 5, 7),
                  [&] { one_sided_match_ws(g, 5, 7, ws, m); });
    same_matching("two_sided_from_scaling_ws",
                  run_ws(two_sided_from_scaling_ws, g, s, 7, nullptr),
                  [&] { two_sided_from_scaling_ws(g, s, 7, nullptr, ws, m); });
    same_matching("two_sided_match_ws", run_ws(two_sided_match_ws, g, 5, 7, nullptr),
                  [&] { two_sided_match_ws(g, 5, 7, nullptr, ws, m); });
    const TwoSidedChoices ch = run_ws(sample_two_sided_choices_ws, g, s, 7);
    const std::vector<vid_t> unified =
        run_ws(unify_choices, g.num_rows(), g.num_cols(), ch.rchoice, ch.cchoice);
    same_matching(
        "karp_sipser_mt_ws",
        run_ws(karp_sipser_mt_ws, g.num_rows(), g.num_cols(), unified, nullptr),
        [&] { karp_sipser_mt_ws(g.num_rows(), g.num_cols(), unified, nullptr, ws, m); });
    same_matching("k_out_from_scaling_ws", run_ws(k_out_from_scaling_ws, g, s, 2, 7),
                  [&] { k_out_from_scaling_ws(g, s, 2, 7, ws, m); });
    same_matching("k_out row", run_ws(run_k_out_ws, g, 5, 2, 7),
                  [&] { run_k_out_ws(g, 5, 2, 7, ws, m); });
    const BipartiteGraph fresh_sub = run_ws(k_out_subgraph_ws, g, s, 2, 7);
    twice([&] { k_out_subgraph_ws(g, s, 2, 7, ws, sub); },
          [&](int pass) {
            testing::expect_same_arrays(sub, fresh_sub,
                                        "k_out_subgraph_ws pass " + std::to_string(pass));
          });

    // The exact solvers are deterministic too, and their outputs maximum.
    const vid_t maximum = testing::brute_force_max_matching(g);
    const auto exact = [&](const char* what, const Matching& fresh, const auto& run) {
      same_matching(what, fresh, run);
      expect_valid(g, m, what);
      EXPECT_EQ(m.cardinality(), maximum) << what;
    };
    exact("hopcroft_karp_ws", run_ws(hopcroft_karp_ws, g),
          [&] { hopcroft_karp_ws(g, ws, m); });
    exact("mc21_ws", run_ws(mc21_ws, g), [&] { mc21_ws(g, ws, m); });
    exact("push_relabel_ws", run_ws(push_relabel_ws, g),
          [&] { push_relabel_ws(g, ws, m); });
    EXPECT_EQ(sprank_ws(g, ws), maximum);
    EXPECT_EQ(sprank_ws(g, ws), run_ws(sprank_ws, g));

    for (const char* algo : {"two_sided", "one_sided", "karp_sipser", "hopcroft_karp"}) {
      PipelineConfig config;
      config.algorithm = algo;
      config.options.seed = 13;
      config.augment = std::string(algo) == "one_sided";
      const PipelineResult fresh = run_ws(run_pipeline_ws, g, config);
      twice([&] { run_pipeline_ws(g, config, ws, r); },
            [&](int pass) {
              EXPECT_EQ(r.matching.row_match, fresh.matching.row_match) << algo << pass;
              EXPECT_EQ(r.cardinality, fresh.cardinality) << algo << pass;
              EXPECT_EQ(r.heuristic_cardinality, fresh.heuristic_cardinality) << algo;
              EXPECT_EQ(r.valid, fresh.valid) << algo << pass;
              EXPECT_EQ(r.exact, fresh.exact) << algo << pass;
              EXPECT_EQ(r.sprank, fresh.sprank) << algo << pass;
              EXPECT_EQ(r.scaling_iterations, fresh.scaling_iterations) << algo << pass;
              EXPECT_EQ(r.stages.size(), fresh.stages.size()) << algo << pass;
            });
    }
  }
}

// ------------------------------------------- allocation-freedom proofs ---

TEST(WorkspaceHotPath, KernelSteadyStateIsAllocationFree) {
  // Counting is compiled out under TSan (the operator-new replacement
  // bypasses TSan's allocator interposition — see alloc_counter.hpp); the
  // alloc assertions below then compare zeros while the rest still runs.
#if !defined(BMH_BENCH_TSAN)
  static_assert(bench::kAllocCountingEnabled);
#endif
  const BipartiteGraph g = make_erdos_renyi(1024, 1024, 8192, 42);
  const ScalingResult s = run_ws(scale_sinkhorn_knopp_ws, g, ScalingOptions{5, 0.0});
  Workspace ws;
  Matching out;
  // Warm with the same seed sequence the measured pass runs: a previously
  // unseen seed may legitimately grow a stack buffer once (monotonic arena
  // growth), which is not steady state.
  const auto sweep = [&] {
    for (int r = 0; r < 20; ++r) {
      two_sided_from_scaling_ws(g, s, static_cast<std::uint64_t>(r), nullptr, ws, out);
      karp_sipser_ws(g, static_cast<std::uint64_t>(r), nullptr, ws, out);
      hopcroft_karp_ws(g, ws, out);
      // k_out's subgraph is pooled (written in place into a
      // workspace-kept graph), so it is in the zero-allocation club too;
      // on this degree-8 graph k = 2 filters g and k = 1 merges the picks.
      run_k_out_ws(g, 5, 2, static_cast<std::uint64_t>(r), ws, out);
      run_k_out_ws(g, 5, 1, static_cast<std::uint64_t>(r), ws, out);
    }
  };
  sweep();
  const bench::AllocStats before = bench::alloc_stats();
  sweep();
  const bench::AllocStats after = bench::alloc_stats();
  EXPECT_EQ(after.allocations, before.allocations);
  EXPECT_EQ(after.live_bytes, before.live_bytes);
}

TEST(WorkspaceHotPath, PipelineSteadyStateIsAllocationFree) {
  const BipartiteGraph g = make_erdos_renyi(1024, 1024, 8192, 42);
  // Runs `rounds` jobs over `algos` in one workspace — job r uses
  // algos[r % size] with seed r — once to warm, then once measured, and
  // expects the measured pass to allocate nothing.
  const auto expect_warm_free = [&g](const std::vector<std::string>& algos, int rounds,
                                     const std::string& label) {
    PipelineConfig config;
    Workspace ws;
    PipelineResult out;
    const auto sweep = [&] {
      for (int r = 0; r < rounds; ++r) {
        // Seeds vary per job in a batch, and a worker switches algorithms
        // between jobs; the table rows take their options per run, so the
        // warm worker stays allocation-free regardless.
        config.algorithm = algos[static_cast<std::size_t>(r) % algos.size()];
        config.options.seed = static_cast<std::uint64_t>(r);
        run_pipeline_ws(g, config, ws, out);
      }
    };
    // Warm with the job sequence the measured pass runs (a new seed may
    // legitimately grow a stack buffer once).
    sweep();
    const bench::AllocStats before = bench::alloc_stats();
    sweep();
    const bench::AllocStats after = bench::alloc_stats();
    EXPECT_EQ(after.allocations, before.allocations) << label;
    EXPECT_EQ(after.live_bytes, before.live_bytes) << label;
  };

  // Each algorithm alone. k_out included: with pooled CSR construction the
  // whole table runs allocation-free warm, not "everything but k_out".
  const std::vector<std::string> names = registered_algorithm_names();
  for (const std::string& name : names) expect_warm_free({name}, 20, name);
  // One warm worker switching algorithms on every job.
  expect_warm_free({"two_sided", "k_out"}, 40, "two_sided/k_out");
  expect_warm_free(names, 20 * static_cast<int>(names.size()), "all algorithms");
}

TEST(WorkspaceHotPath, CacheServedJobGraphPathIsAllocationFree) {
  // The last per-job graph cost in the engine: a warm GraphCache lookup
  // (canonical key render into the thread-local buffer + sharded LRU hit)
  // performs zero heap allocations.
  GraphCache cache;
  const GraphSpec spec = parse_graph_spec("gen:er:n=1024,deg=8,seed=5");
  for (int warm = 0; warm < 3; ++warm)
    (void)cache.get_or_build(spec, static_cast<std::uint64_t>(warm));
  const bench::AllocStats before = bench::alloc_stats();
  for (int r = 0; r < 20; ++r) {
    const auto g = cache.get_or_build(spec, static_cast<std::uint64_t>(r));
    EXPECT_EQ(g->num_rows(), 1024);
  }
  const bench::AllocStats after = bench::alloc_stats();
  EXPECT_EQ(after.allocations, before.allocations);
  EXPECT_EQ(after.live_bytes, before.live_bytes);
}

TEST(WorkspaceHotPath, MappedStoreLoadCopiesNoEdgeArrays) {
  // The restart path: a fresh cache over a warm store directory serves the
  // graph as a view of the mapped file. What the load retains on the heap
  // is a small constant (entry, key, mapping handle), not the edge arrays.
  const std::string dir = ::bmh::testing::scratch_dir("bmh_ws_store_");
  std::filesystem::remove_all(dir);
  const GraphSpec spec = parse_graph_spec("gen:planted:n=4096,seed=7");
  GraphCache::Options options;
  options.store_dir = dir;
  std::size_t file_bytes = 0;
  {
    GraphCache spilling(options);  // builds once and spills
    const auto built = spilling.get_or_build(spec, 1);
    spilling.store()->flush();
    ASSERT_EQ(spilling.stats().store_spills, 1u);
    file_bytes = serialized_graph_bytes(*built, canonical_graph_key(spec, 1));
  }
  GraphCache restarted(options);
  const bench::AllocStats before = bench::alloc_stats();
  const auto mapped = restarted.get_or_build(spec, 1);
  const bench::AllocStats after = bench::alloc_stats();
  ASSERT_NE(mapped, nullptr);
  EXPECT_EQ(restarted.stats().store_hits, 1u);
  EXPECT_FALSE(mapped->owns_storage());
  const std::uint64_t growth = after.live_bytes - before.live_bytes;
  EXPECT_LT(growth, 4096u);
  EXPECT_LT(growth * 16, file_bytes) << growth << " bytes retained";
  std::filesystem::remove_all(dir);
}

TEST(WorkspaceHotPath, UndirectedPipelineSteadyStateIsAllocationFree) {
  // The kind=undirected-match serving path: conversion, symmetric scaling,
  // choice sampling and the undirected Karp–Sipser all lease from the
  // workspace, so a warm worker alternating the registered algorithms —
  // and both conversion shapes — allocates nothing.
  const BipartiteGraph square = make_mesh(24, 24);     // symmetric view
  const BipartiteGraph rect = make_erdos_renyi(384, 512, 2048, 7);  // union
  Workspace ws;
  PipelineResult out;
  PipelineConfig config;
  const auto sweep = [&] {
    for (int r = 0; r < 10; ++r) {
      for (const char* algo : {"one_out", "greedy", "two_thirds"}) {
        config.algorithm = algo;
        config.options.seed = static_cast<std::uint64_t>(r);
        run_undirected_pipeline_ws(square, config, ws, out);
        EXPECT_TRUE(out.valid) << algo;
        run_undirected_pipeline_ws(rect, config, ws, out);
        EXPECT_TRUE(out.valid) << algo;
      }
    }
  };
  sweep();
  const bench::AllocStats before = bench::alloc_stats();
  sweep();
  const bench::AllocStats after = bench::alloc_stats();
  EXPECT_EQ(after.allocations, before.allocations);
  EXPECT_EQ(after.live_bytes, before.live_bytes);
}

TEST(WorkspaceHotPath, SprankAnalysisSteadyStateIsAllocationFree) {
  // kind=analyze type=sprank is the cheapest exact probe and stays on the
  // certified zero-allocation path (dm/koenig build their structures per
  // call and are deliberately not certified).
  const BipartiteGraph g = make_erdos_renyi(1024, 1024, 8192, 42);
  Workspace ws;
  PipelineResult out;
  PipelineConfig config;
  config.algorithm = "sprank";
  const auto sweep = [&] {
    for (int r = 0; r < 10; ++r) run_analyze_pipeline_ws(g, config, ws, out);
  };
  sweep();
  const bench::AllocStats before = bench::alloc_stats();
  sweep();
  const bench::AllocStats after = bench::alloc_stats();
  EXPECT_EQ(after.allocations, before.allocations);
  EXPECT_EQ(after.live_bytes, before.live_bytes);
  EXPECT_EQ(out.sprank, run_ws(sprank_ws, g));
  EXPECT_TRUE(out.exact);
}

// ------------------------------------------------ fresh engine reuse -------

std::string batch_jsonl(const std::vector<JobSpec>& jobs, const EngineConfig& config) {
  const std::vector<JobResult> results = run_on_fresh_engine(jobs, config);
  std::string out;
  for (const JobResult& r : results) {
    EXPECT_TRUE(r.ok) << r.name << ": " << r.error;
    out += to_json_line(r, /*include_timings=*/false);
    out += '\n';
  }
  return out;
}

TEST(WorkspaceHotPath, BatchRerunIsByteIdenticalWithZeroAllocatorGrowth) {
  std::istringstream in(
      "input=gen:er:n=1024,deg=8 algo=two_sided iters=5\n"
      "input=gen:er:n=1024,deg=8 algo=one_sided iters=5\n"
      "input=gen:er:n=512,deg=6 algo=karp_sipser\n"
      "input=gen:mesh:nx=24 algo=one_sided augment=1\n"
      "input=gen:planted:n=512 algo=hopcroft_karp\n");
  const std::vector<JobSpec> jobs = parse_job_specs(in);
  EngineConfig config;
  config.threads = 2;
  config.seed = 99;

  const std::string warm = batch_jsonl(jobs, config);  // warms everything once
  const bench::AllocStats before = bench::alloc_stats();
  {
    const std::string second = batch_jsonl(jobs, config);
    EXPECT_EQ(second, warm);
  }
  const bench::AllocStats after = bench::alloc_stats();
  // The second pass allocates only transients (per-job result records, the
  // JSONL string, the worker arenas freed at join): net heap growth is zero.
  EXPECT_EQ(after.live_bytes, before.live_bytes);
}

} // namespace
} // namespace bmh
