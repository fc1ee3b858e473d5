/// \file test_engine.cpp
/// \brief Tests for the matching engine: built-in tables, pipelines, job specs,
/// engine batch determinism, and the JSON sink.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>

#include "test_helpers.hpp"

namespace bmh {
namespace {

using namespace testing;

// --------------------------------------------------------------- tables ---

/// A table's names list is sorted, has no duplicates, and every name in it
/// resolves; an unknown name throws std::invalid_argument naming both the
/// offender and `known`.
template <typename Resolve>
void expect_table(const std::vector<std::string>& names, const std::string& known,
                  Resolve resolve) {
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), known), names.end()) << known;
  for (const std::string& name : names) EXPECT_NO_THROW(resolve(name)) << name;
  try {
    resolve("does_not_exist");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The message must name the offender and list the alternatives.
    const std::string what = e.what();
    EXPECT_NE(what.find("does_not_exist"), std::string::npos) << what;
    EXPECT_NE(what.find(known), std::string::npos) << what;
  }
}

TEST(BuiltinTables, Algorithms) {
  const std::vector<std::string> names = registered_algorithm_names();
  EXPECT_EQ(names, (std::vector<std::string>{"greedy", "greedy_edge", "hopcroft_karp",
                                              "k_out", "karp_sipser", "mc21", "min_degree",
                                              "one_sided", "push_relabel", "two_sided"}));
  expect_table(names, "two_sided", [](const std::string& name) {
    EXPECT_EQ(find_algorithm(name).name(), name);
  });
}

TEST(BuiltinTables, UndirectedAlgorithms) {
  expect_table(registered_undirected_algorithm_names(), "one_out",
               [](const std::string& name) {
                 EXPECT_EQ(find_undirected_algorithm(name).name, name);
               });
  // The bipartite names do not leak into the undirected table.
  EXPECT_THROW((void)find_undirected_algorithm("two_sided"), std::invalid_argument);
}

TEST(BuiltinTables, GraphSources) {
  expect_table(registered_graph_source_schemes(), "gen", [](const std::string& scheme) {
    EXPECT_EQ(find_graph_source(scheme, scheme + ":x").scheme(), scheme);
  });
}

TEST(BuiltinTables, AnalysisTypes) {
  const BipartiteGraph g = make_planted_perfect(64, 2, 3);
  expect_table(analysis_type_names(), "koenig", [&g](const std::string& type) {
    PipelineConfig config;
    config.algorithm = type;
    Workspace ws;
    PipelineResult out;
    run_analyze_pipeline_ws(g, config, ws, out);
    EXPECT_EQ(out.sprank, 64) << type;
  });
}

TEST(BuiltinTables, MakeAlgorithmCopiesTheRow) {
  const auto copy = make_algorithm("k_out");
  const MatchingAlgorithm& row = find_algorithm("k_out");
  EXPECT_EQ(copy->name(), row.name());
  EXPECT_EQ(copy->uses_scaling(), row.uses_scaling());
  EXPECT_EQ(copy->is_exact(), row.is_exact());
  EXPECT_THROW((void)make_algorithm("does_not_exist"), std::invalid_argument);
}

TEST(Registry, EveryAlgorithmValidOnZoo) {
  Workspace ws;
  Matching m;
  for (const BipartiteGraph& g : small_graph_zoo()) {
    const ScalingResult s = run_ws(scale_sinkhorn_knopp_ws, g, ScalingOptions{5, 0.0});
    const vid_t optimum = brute_force_max_matching(g);
    for (const std::string& name : registered_algorithm_names()) {
      AlgorithmOptions options;
      options.seed = 7;
      const MatchingAlgorithm& algorithm = find_algorithm(name);
      algorithm.run_ws(g, s, options, ws, m);
      expect_valid(g, m, name.c_str());
      EXPECT_LE(m.cardinality(), optimum) << name;
      if (algorithm.is_exact()) {
        EXPECT_EQ(m.cardinality(), optimum) << name;
      }
    }
  }
}

TEST(Registry, EveryAlgorithmValidOnSuiteGraphs) {
  // A slice of the generator suite (kept small: every algorithm runs on
  // every instance, including the exact backends).
  Workspace ws;
  Matching m;
  for (const std::string& instance_name : suite_names()) {
    const SuiteInstance instance = make_suite_instance(instance_name, 0.02, /*seed=*/3);
    const BipartiteGraph& g = instance.graph;
    const ScalingResult s = run_ws(scale_sinkhorn_knopp_ws, g, ScalingOptions{5, 0.0});
    const vid_t optimum = run_ws(sprank_ws, g);
    for (const std::string& name : registered_algorithm_names()) {
      AlgorithmOptions options;
      options.seed = 11;
      const MatchingAlgorithm& algorithm = find_algorithm(name);
      algorithm.run_ws(g, s, options, ws, m);
      expect_valid(g, m, (instance.name + "/" + name).c_str());
      if (algorithm.is_exact())
        EXPECT_EQ(m.cardinality(), optimum) << instance.name << "/" << name;
      else
        EXPECT_LE(m.cardinality(), optimum) << instance.name << "/" << name;
    }
  }
}

// ------------------------------------------------------------- pipeline ---

TEST(Pipeline, ScalingMethodRoundTrip) {
  EXPECT_EQ(parse_scaling_method("none"), ScalingMethod::kNone);
  EXPECT_EQ(parse_scaling_method("sinkhorn_knopp"), ScalingMethod::kSinkhornKnopp);
  EXPECT_EQ(parse_scaling_method("sk"), ScalingMethod::kSinkhornKnopp);
  EXPECT_EQ(parse_scaling_method("ruiz"), ScalingMethod::kRuiz);
  EXPECT_THROW((void)parse_scaling_method("bogus"), std::invalid_argument);
}

TEST(Pipeline, UnknownAlgorithmThrowsBeforeWork) {
  PipelineConfig config;
  config.algorithm = "bogus";
  EXPECT_THROW((void)run_ws(run_pipeline_ws, make_full(4), config), std::invalid_argument);
}

TEST(Pipeline, StagesAreTimedAndQualityComputed) {
  const BipartiteGraph g = make_planted_perfect(512, 3, 5);
  PipelineConfig config;
  config.algorithm = "two_sided";
  config.options.seed = 9;
  const PipelineResult r = run_ws(run_pipeline_ws, g, config);
  EXPECT_TRUE(r.valid);
  ASSERT_EQ(r.stages.size(), 3u);
  EXPECT_EQ(r.stages[0].stage, "scale");
  EXPECT_EQ(r.stages[1].stage, "match");
  EXPECT_EQ(r.stages[2].stage, "analyze");
  EXPECT_EQ(r.sprank, 512);
  EXPECT_GT(r.quality, kTwoSidedGuarantee * 0.95);
  EXPECT_EQ(r.scaling_iterations, 5);
  EXPECT_GE(r.total_seconds, 0.0);
}

TEST(Pipeline, AugmentationReachesTheOptimum) {
  const BipartiteGraph g = make_erdos_renyi(1024, 1024, 4096, 2);
  const vid_t optimum = run_ws(sprank_ws, g);
  PipelineConfig config;
  config.algorithm = "one_sided";
  config.options.seed = 3;
  config.augment = true;
  const PipelineResult r = run_ws(run_pipeline_ws, g, config);
  EXPECT_TRUE(r.valid);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.cardinality, optimum);
  EXPECT_LE(r.heuristic_cardinality, r.cardinality);
  ASSERT_EQ(r.stages.size(), 4u);
  EXPECT_EQ(r.stages[2].stage, "augment");
  // The exact pipeline knows its optimum without a second sprank solve.
  EXPECT_EQ(r.sprank, optimum);
  EXPECT_EQ(r.quality, 1.0);
}

TEST(Pipeline, ExactBackendSkipsScaling) {
  PipelineConfig config;
  config.algorithm = "hopcroft_karp";
  const PipelineResult r = run_ws(run_pipeline_ws, make_full(64), config);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.cardinality, 64);
  EXPECT_EQ(r.scaling_iterations, 0);  // scale stage ran as identity
}

// ------------------------------------------------------------ job specs ---

TEST(JobSpec, ParsesGraphSpecs) {
  const GraphSpec mtx = parse_graph_spec("mtx:/tmp/some file.mtx");
  EXPECT_EQ(mtx.scheme, "mtx");
  EXPECT_EQ(mtx.name, "/tmp/some file.mtx");

  const GraphSpec gen = parse_graph_spec("gen:er:n=128,deg=3");
  EXPECT_EQ(gen.scheme, "gen");
  EXPECT_EQ(gen.name, "er");
  EXPECT_EQ(gen.params.at("n"), 128);

  const GraphSpec suite = parse_graph_spec("suite:cage15_like:scale=0.05");
  EXPECT_EQ(suite.scheme, "suite");
  EXPECT_EQ(suite.name, "cage15_like");

  EXPECT_THROW((void)parse_graph_spec("no_colon"), std::invalid_argument);
  EXPECT_THROW((void)parse_graph_spec("what:er:n=1"), std::invalid_argument);
  EXPECT_THROW((void)parse_graph_spec("gen:er:n"), std::invalid_argument);
  EXPECT_THROW((void)parse_graph_spec("gen:er:n=abc"), std::invalid_argument);
  EXPECT_THROW((void)build_graph(parse_graph_spec("gen:nope:n=4"), 1),
               std::invalid_argument);
}

TEST(JobSpec, GeneratorSpecsAreDeterministicInSeed) {
  const GraphSpec spec = parse_graph_spec("gen:er:n=256,deg=4");
  EXPECT_TRUE(structurally_equal(build_graph(spec, 5), build_graph(spec, 5)));
  EXPECT_FALSE(structurally_equal(build_graph(spec, 5), build_graph(spec, 6)));
  // A pinned seed param wins over the job seed.
  const GraphSpec pinned = parse_graph_spec("gen:er:n=256,deg=4,seed=5");
  EXPECT_TRUE(structurally_equal(build_graph(pinned, 99), build_graph(spec, 5)));
}

TEST(JobSpec, ParsesJobLines) {
  const JobSpec job = parse_job_spec_line(
      "name=j input=gen:mesh:nx=16 algo=one_sided scaling=ruiz iters=7 augment=1 "
      "quality=0 threads=2 k=3 seed=42");
  EXPECT_EQ(job.name, "j");
  EXPECT_EQ(job.pipeline.algorithm, "one_sided");
  EXPECT_EQ(job.pipeline.scaling, ScalingMethod::kRuiz);
  EXPECT_EQ(job.pipeline.scaling_iterations, 7);
  EXPECT_TRUE(job.pipeline.augment);
  EXPECT_FALSE(job.pipeline.compute_quality);
  EXPECT_EQ(job.pipeline.options.threads, 2);
  EXPECT_EQ(job.pipeline.options.k, 3);
  ASSERT_TRUE(job.seed.has_value());
  EXPECT_EQ(*job.seed, 42u);

  EXPECT_THROW((void)parse_job_spec_line("algo=two_sided"), std::invalid_argument);
  EXPECT_THROW((void)parse_job_spec_line("input=gen:er bogus_key=1"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_job_spec_line("input=gen:er iters=xyz"),
               std::invalid_argument);
}

TEST(JobSpec, DuplicateKeysAreRejectedNotLastWins) {
  // Job-line keys: the error must name the offender.
  try {
    (void)parse_job_spec_line("input=gen:er:n=64 seed=1 seed=2");
    FAIL() << "expected duplicate-key error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate key 'seed'"), std::string::npos)
        << e.what();
  }
  // `algo` and `algorithm` are one field.
  EXPECT_THROW((void)parse_job_spec_line("input=gen:er algo=greedy algorithm=mc21"),
               std::invalid_argument);
  // Graph-spec parameters too.
  try {
    (void)parse_graph_spec("gen:er:n=64,deg=3,n=128");
    FAIL() << "expected duplicate-key error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate key 'n'"), std::string::npos)
        << e.what();
  }
  // Singly-specified keys still parse.
  EXPECT_EQ(parse_job_spec_line("input=gen:er:n=64,deg=3 seed=1").input.params.at("n"),
            64);
}

TEST(JobSpecHostile, MalformedLinesThrowCleanlyNeverCrash) {
  // The serve loop feeds stdin straight into this parser, so hostile input
  // is a matter of when, not if. Every line here must produce a clean
  // std::invalid_argument — the CLI turns that into one ok=false record
  // (error_kind=parse) per line.
  const std::string huge_value(2u << 20, 'x');  // 2 MiB of one token
  const std::string hostile[] = {
      "input=gen:er:n=64 " + std::string(1u << 20, 'k') + "=1",  // giant unknown key
      "input=gen:er:n=64 seed=99999999999999999999999999",       // > int64
      "input=gen:er:n=64 iters=-99999999999999999999",           // < int64
      "input=gen:er:n=64 threads=12abc",                         // trailing junk
      "input=gen:er:n=64 algo=k_out k=-4294967294",              // < int, wraps to 2
      "input=gen:er:n=64 iters=4294967297",                      // > int, wraps to 1
      "input=gen:er:n=64 threads=2147483648",                    // > int
      "input=gen:er:n=64 threads=-2147483649",                   // < int
      "input=gen:er:n=64 seed=1 seed=2",                         // duplicate key
      "input=gen:er:n=64 timeout_ms=-1",                         // negative budget
      "input=gen:er:n=64 iters=-5",                              // negative iterations
      "input=gen:er:n=64 algo=k_out k=0",                        // no pick per side
      "input=gen:er:n=64 k=-2147483648",                         // int's floor, < 1
      "input=gen:powerlaw:n=1000,avg=nan",                       // non-finite degree
      "input=gen:powerlaw:n=1000,avg=inf",
      "input=gen:powerlaw:n=1000,alpha=nan",                     // non-finite exponent
      "input=suite:cage15_like:scale=nan",                       // non-finite scale
      std::string("input=gen:er:n=64 na\0me=x", 25),             // embedded NUL key
      "===",                                                     // no key
      "=value",                                                  // empty key
      "input=" + huge_value,                                     // giant bad spec
  };
  for (const std::string& line : hostile)
    EXPECT_THROW((void)parse_job_spec_line(line), std::invalid_argument)
        << "line: " << line.substr(0, 80);
  // An int field out of int's range is named, not wrapped; int's largest value parses.
  try {
    (void)parse_job_spec_line("input=gen:er:n=64 iters=4294967297");
    FAIL() << "expected out-of-range error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'iters'"), std::string::npos) << e.what();
  }
  EXPECT_EQ(parse_job_spec_line("input=gen:er:n=64 iters=2147483647")
                .pipeline.scaling_iterations,
            2147483647);
  EXPECT_EQ(parse_job_spec_line("input=gen:er:n=64 k=2147483647").pipeline.options.k,
            2147483647);
  // Size alone is not hostile: an oversized but well-formed value parses.
  const JobSpec big_name = parse_job_spec_line("input=gen:er:n=64 name=" + huge_value);
  EXPECT_EQ(big_name.name.size(), huge_value.size());
}

TEST(JobSpecHostile, HostileNumericsFailAsParseRecordsNotCrashes) {
  // Values that pass the line parser but denote impossible instances must
  // come back as classified parse failures from the engine — the
  // param_vid range check runs before any cast can overflow.
  EngineConfig config;
  config.threads = 1;
  Engine engine(config);
  for (const char* input :
       {"input=gen:er:n=1e300", "input=gen:er:n=1e300000", "input=gen:er:n=nan",
        "input=gen:er:n=64,deg=1e18", "input=gen:er:n=64,deg=-1"}) {
    JobSpec job;
    try {
      job = parse_job_spec_line(input);
    } catch (const std::invalid_argument&) {
      continue;  // rejected even earlier: equally fine
    }
    const JobResult r = engine.submit(std::move(job)).get();
    EXPECT_FALSE(r.ok) << input;
    EXPECT_EQ(r.error_kind, ErrorKind::kParse) << input << ": " << r.error;
    EXPECT_FALSE(r.error.empty()) << input;
  }
}

TEST(JobSpecHostile, GeneratorDimensionOverflowsAreParseRecords) {
  // Each dimension fits 32 bits, but the generator's vertex count does not:
  // it is computed in 64 bits and rejected by name before anything is
  // allocated.
  EngineConfig config;
  config.threads = 1;
  Engine engine(config);
  const std::pair<const char*, const char*> cases[] = {
      {"input=gen:mesh:nx=2000000000,ny=2", "make_mesh"},
      {"input=gen:kkt:m=2000000000,p=2000000000,d=1", "make_kkt_like"},
  };
  for (const auto& [input, generator] : cases) {
    const JobResult r = engine.submit(parse_job_spec_line(input)).get();
    EXPECT_FALSE(r.ok) << input;
    EXPECT_EQ(r.error_kind, ErrorKind::kParse) << input << ": " << r.error;
    EXPECT_NE(r.error.find(generator), std::string::npos) << input << ": " << r.error;
  }
}

TEST(JobSpec, ParseErrorResultIsAReadyMadeParseRecord) {
  const JobResult r = parse_error_result(7, "line9", "input=:::", "line 9: nope");
  EXPECT_EQ(r.index, 7u);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error_kind, ErrorKind::kParse);
  const std::string line = to_json_line(r, false);
  EXPECT_NE(line.find("\"error_kind\":\"parse\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"error\":\"line 9: nope\""), std::string::npos) << line;
}

TEST(JobSpec, StreamParsingSkipsCommentsAndNamesJobs) {
  std::istringstream in(
      "# a comment\n"
      "\n"
      "input=gen:cycle:n=64\n"
      "  # indented comment\n"
      "name=named input=gen:full:n=8\n");
  const std::vector<JobSpec> jobs = parse_job_specs(in);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].name, "job0");
  EXPECT_EQ(jobs[1].name, "named");

  std::istringstream bad("input=gen:cycle:n=64\ninput=oops\n");
  try {
    (void)parse_job_specs(bad);
    FAIL() << "expected line-numbered error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }
}

// --------------------------------------------------------- engine batch ---

/// A small fast batch mixing generators, algorithms and pipeline shapes.
std::vector<JobSpec> small_batch() {
  std::istringstream in(
      "input=gen:er:n=512,deg=4 algo=two_sided iters=5\n"
      "input=gen:er:n=512,deg=4 algo=one_sided iters=5\n"
      "input=gen:adversarial:n=256,k=8 algo=karp_sipser\n"
      "input=gen:mesh:nx=24 algo=one_sided augment=1\n"
      "input=gen:planted:n=512 algo=hopcroft_karp\n"
      "input=gen:road:n=1024 algo=greedy\n"
      "input=gen:powerlaw:n=512 algo=k_out k=2\n"
      "input=gen:kkt:m=512,p=128 algo=mc21\n");
  return parse_job_specs(in);
}

TEST(EngineBatch, ResultsIndependentOfWorkerCount) {
  const std::vector<JobSpec> jobs = small_batch();
  EngineConfig base;
  base.seed = 123;
  base.threads = 1;
  const std::vector<JobResult> sequential = run_on_fresh_engine(jobs, base);
  ASSERT_EQ(sequential.size(), jobs.size());
  for (const JobResult& r : sequential) EXPECT_TRUE(r.ok) << r.name << ": " << r.error;

  for (const int workers : {2, 4, 8}) {
    EngineConfig config = base;
    config.threads = workers;
    config.threads_per_job = workers % 3 + 1;  // vary the OpenMP budget too
    const std::vector<JobResult> parallel = run_on_fresh_engine(jobs, config);
    ASSERT_EQ(parallel.size(), sequential.size());
    for (std::size_t i = 0; i < parallel.size(); ++i) {
      // Byte-identical modulo timings: compare the deterministic JSON form.
      EXPECT_EQ(to_json_line(parallel[i], false), to_json_line(sequential[i], false))
          << "workers=" << workers;
    }
  }
}

TEST(EngineBatch, SeedChangesResults) {
  const std::vector<JobSpec> jobs = small_batch();
  EngineConfig a, b;
  a.seed = 1;
  b.seed = 2;
  const auto ra = run_on_fresh_engine(jobs, a);
  const auto rb = run_on_fresh_engine(jobs, b);
  bool any_difference = false;
  for (std::size_t i = 0; i < ra.size(); ++i)
    if (to_json_line(ra[i], false) != to_json_line(rb[i], false)) any_difference = true;
  EXPECT_TRUE(any_difference);
}

TEST(EngineBatch, FailingJobDoesNotAbortTheBatch) {
  std::istringstream in(
      "input=gen:cycle:n=64 algo=greedy\n"
      "input=mtx:/nonexistent/file.mtx\n"
      "input=gen:cycle:n=64 algo=nope\n");
  const std::vector<JobResult> results = run_on_fresh_engine(parse_job_specs(in));
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok);
  EXPECT_FALSE(results[1].ok);
  EXPECT_FALSE(results[1].error.empty());
  EXPECT_FALSE(results[2].ok);
  EXPECT_NE(results[2].error.find("nope"), std::string::npos);
}

TEST(EngineBatch, DemoBatchRunsClean) {
  const std::vector<JobSpec> jobs = demo_batch();
  EXPECT_GE(jobs.size(), 8u);
  EngineConfig config;
  config.threads = 4;
  const std::vector<JobResult> results = run_on_fresh_engine(jobs, config);
  for (const JobResult& r : results) {
    EXPECT_TRUE(r.ok) << r.name << ": " << r.error;
    EXPECT_TRUE(r.result.valid) << r.name;
  }
}

// ----------------------------------------------------------------- json ---

TEST(Json, EscapesAndFormats) {
  EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(json_number(0.5), "0.5");
  EXPECT_EQ(json_number(1.0), "1");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
}

TEST(Json, RecordShape) {
  std::istringstream in("name=j0 input=gen:cycle:n=32 algo=greedy\n");
  const auto results = run_on_fresh_engine(parse_job_specs(in));
  ASSERT_EQ(results.size(), 1u);
  const std::string with = to_json_line(results[0], true);
  const std::string without = to_json_line(results[0], false);
  EXPECT_NE(with.find("\"stages\":["), std::string::npos);
  EXPECT_NE(with.find("\"total_seconds\":"), std::string::npos);
  EXPECT_EQ(without.find("\"stages\""), std::string::npos);
  EXPECT_EQ(without.find("total_seconds"), std::string::npos);
  for (const char* field : {"\"job\":0", "\"name\":\"j0\"", "\"algorithm\":\"greedy\"",
                            "\"ok\":true", "\"cardinality\":", "\"quality\":"}) {
    EXPECT_NE(without.find(field), std::string::npos) << field << " in " << without;
  }
}

} // namespace
} // namespace bmh
