/// \file test_workspace.cpp
/// \brief Tests for the Workspace scratch-arena subsystem: lease semantics,
/// parity of the `_ws` overloads with the classic entry points, and the
/// allocation-freedom of the warm batch-serving hot paths (certified by the
/// global allocation counter from bench_common.hpp).

// Exactly one TU per binary may define this before including
// bench_common.hpp: it replaces the global operator new/delete with
// counting versions.
#define BMH_COUNT_ALLOCS

#include "../bench/bench_common.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "test_helpers.hpp"

namespace bmh {
namespace {

using ::bmh::testing::expect_valid;
using ::bmh::testing::run_on_fresh_engine;
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

TEST(Workspace, ThreadLocalInstancesAreDistinct) {
  Workspace* main_ws = &Workspace::for_this_thread();
  EXPECT_EQ(main_ws, &Workspace::for_this_thread());  // stable per thread
  Workspace* other_ws = nullptr;
  std::thread t([&] { other_ws = &Workspace::for_this_thread(); });
  t.join();
  ASSERT_NE(other_ws, nullptr);
  EXPECT_NE(other_ws, main_ws);
}

// ----------------------------------------------------- `_ws` parity ------

/// The `_ws` overloads must produce bit-identical results to the classic
/// entry points: they share the same RNG streams and visit orders.
TEST(WorkspaceParity, HeuristicsMatchClassicEntryPoints) {
  // Both sides at one OpenMP thread: above that the paper's kernels race
  // by design (one-sided's last-writer-wins column claims, Karp–Sipser-MT's
  // concurrent vertex claims), so two runs are only bit-comparable serially.
  ThreadCountGuard serial(1);
  Workspace ws;
  Matching out;
  for (const BipartiteGraph& g : small_graph_zoo()) {
    const ScalingResult s = scale_sinkhorn_knopp(g, {5, 0.0});

    karp_sipser_ws(g, 7, nullptr, ws, out);
    EXPECT_EQ(out.row_match, karp_sipser(g, 7).row_match);

    match_random_edges_ws(g, 7, ws, out);
    EXPECT_EQ(out.row_match, match_random_edges(g, 7).row_match);

    match_random_vertices_ws(g, 7, ws, out);
    EXPECT_EQ(out.row_match, match_random_vertices(g, 7).row_match);

    match_min_degree_ws(g, ws, out);
    EXPECT_EQ(out.row_match, match_min_degree(g).row_match);

    one_sided_from_scaling_ws(g, s, 7, ws, out);
    EXPECT_EQ(out.row_match, one_sided_from_scaling(g, s, 7).row_match);

    two_sided_from_scaling_ws(g, s, 7, nullptr, ws, out);
    EXPECT_EQ(out.row_match, two_sided_from_scaling(g, s, 7).row_match);

    k_out_match_ws(g, 5, 2, 7, ws, out);
    EXPECT_EQ(out.row_match, k_out_match(g, 5, 2, 7).row_match);

    hopcroft_karp_ws(g, ws, out);
    EXPECT_EQ(out.cardinality(), hopcroft_karp(g).cardinality());
    expect_valid(g, out, "hopcroft_karp_ws");

    mc21_ws(g, ws, out);
    EXPECT_EQ(out.cardinality(), sprank_ws(g, ws));
    expect_valid(g, out, "mc21_ws");

    push_relabel_ws(g, ws, out);
    EXPECT_EQ(out.cardinality(), sprank(g));
    expect_valid(g, out, "push_relabel_ws");
  }
}

TEST(WorkspaceParity, ScalingKernelsMatchClassicEntryPoints) {
  const BipartiteGraph g = make_planted_perfect(300, 4, 5);
  Workspace ws;
  ScalingResult out;

  scale_sinkhorn_knopp_ws(g, {5, 0.0}, ws, out);
  const ScalingResult sk = scale_sinkhorn_knopp(g, {5, 0.0});
  EXPECT_EQ(out.dr, sk.dr);
  EXPECT_EQ(out.dc, sk.dc);
  EXPECT_EQ(out.iterations, sk.iterations);
  EXPECT_EQ(out.error, sk.error);

  scale_ruiz_ws(g, {5, 0.0}, ws, out);
  const ScalingResult rz = scale_ruiz(g, {5, 0.0});
  EXPECT_EQ(out.dr, rz.dr);
  EXPECT_EQ(out.dc, rz.dc);
  EXPECT_EQ(out.error, rz.error);

  identity_scaling_ws(g, ws, out);
  const ScalingResult id = identity_scaling(g);
  EXPECT_EQ(out.dr, id.dr);
  EXPECT_EQ(out.error, id.error);
  EXPECT_EQ(scaling_error_ws(g, out, ws), scaling_error(g, id));
}

TEST(WorkspaceParity, PipelineMatchesClassicEntryPoint) {
  // Both sides at one OpenMP thread: above that the paper's kernels race
  // by design (one-sided's last-writer-wins column claims, Karp–Sipser-MT's
  // concurrent vertex claims), so two runs are only bit-comparable serially.
  ThreadCountGuard serial(1);
  const BipartiteGraph g = make_erdos_renyi(512, 512, 3072, 11);
  for (const char* algo : {"two_sided", "one_sided", "karp_sipser", "hopcroft_karp"}) {
    PipelineConfig config;
    config.algorithm = algo;
    config.options.seed = 13;
    config.augment = (std::string(algo) == "one_sided");

    Workspace ws;
    PipelineResult out;
    run_pipeline_ws(g, config, ws, out);
    // Run twice through the same workspace: results must not depend on
    // arena warmth.
    run_pipeline_ws(g, config, ws, out);
    const PipelineResult fresh = run_pipeline(g, config);

    EXPECT_EQ(out.matching.row_match, fresh.matching.row_match) << algo;
    EXPECT_EQ(out.cardinality, fresh.cardinality) << algo;
    EXPECT_EQ(out.heuristic_cardinality, fresh.heuristic_cardinality) << algo;
    EXPECT_EQ(out.valid, fresh.valid) << algo;
    EXPECT_EQ(out.exact, fresh.exact) << algo;
    EXPECT_EQ(out.sprank, fresh.sprank) << algo;
    EXPECT_EQ(out.scaling_iterations, fresh.scaling_iterations) << algo;
    EXPECT_EQ(out.stages.size(), fresh.stages.size()) << algo;
  }
}

// ------------------------------------------- allocation-freedom proofs ---

TEST(WorkspaceHotPath, KernelSteadyStateIsAllocationFree) {
  // Counting is compiled out under TSan (the operator-new replacement
  // bypasses TSan's allocator interposition — see bench_common.hpp); the
  // alloc assertions below then compare zeros while the rest still runs.
#if !defined(BMH_BENCH_TSAN)
  static_assert(bench::kAllocCountingEnabled);
#endif
  const BipartiteGraph g = make_erdos_renyi(1024, 1024, 8192, 42);
  const ScalingResult s = scale_sinkhorn_knopp(g, {5, 0.0});
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
      // k_out's subgraph CSR is pooled (GraphBuilder::build_into into a
      // workspace-kept graph), so it is in the zero-allocation club too.
      k_out_match_ws(g, 5, 2, static_cast<std::uint64_t>(r), ws, out);
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
  // k_out included: with pooled CSR construction the whole registry runs
  // allocation-free warm, not "everything but k_out".
  for (const char* algo : {"two_sided", "k_out"}) {
    PipelineConfig config;
    config.algorithm = algo;
    config.options.seed = 7;
    Workspace ws;
    PipelineResult out;
    // Warm with the seed sequence the measured pass runs (a new seed may
    // legitimately grow a stack buffer once).
    const auto sweep = [&] {
      for (int r = 0; r < 20; ++r) {
        // Seeds vary per job in a batch; the warm worker must stay
        // allocation-free regardless (rebindable algorithm cache).
        config.options.seed = static_cast<std::uint64_t>(r);
        run_pipeline_ws(g, config, ws, out);
      }
    };
    sweep();
    const bench::AllocStats before = bench::alloc_stats();
    sweep();
    const bench::AllocStats after = bench::alloc_stats();
    EXPECT_EQ(after.allocations, before.allocations) << algo;
    EXPECT_EQ(after.live_bytes, before.live_bytes) << algo;
  }
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
  EXPECT_EQ(out.sprank, sprank(g));
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
