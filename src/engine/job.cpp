#include "engine/job.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/hash.hpp"

namespace bmh {

GraphSpec parse_graph_spec(const std::string& spec) {
  GraphSpec out;
  out.spec = spec;
  const auto first = spec.find(':');
  if (first == std::string::npos)
    throw std::invalid_argument("graph spec '" + spec +
                                "': expected SCHEME:REST (e.g. gen:er:n=4096, "
                                "mm:path=FILE, mtx:PATH or suite:NAME)");
  out.scheme = spec.substr(0, first);
  find_graph_source(out.scheme, spec).parse(spec.substr(first + 1), out);
  return out;
}

namespace {

/// Shortest round-trip rendering, appended without temporaries (the cache's
/// warm key-building path must not allocate).
void append_number(std::string& out, double value) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  if (ec == std::errc()) out.append(buf, end);
}

void append_number(std::string& out, std::uint64_t value) {
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  if (ec == std::errc()) out.append(buf, end);
}

const GraphSource& source_for(const GraphSpec& spec) {
  return find_graph_source(spec.scheme, spec.spec);
}

} // namespace

BipartiteGraph build_graph(const GraphSpec& spec, std::uint64_t seed) {
  const GraphSource& source = source_for(spec);
  return source.build(spec, source.resolve(spec, seed));
}

std::uint64_t canonical_graph_key(const GraphSpec& spec, std::uint64_t seed,
                                  std::string& out) {
  const GraphSource& source = source_for(spec);
  const ResolvedGraphSpec r = source.resolve(spec, seed);
  out.clear();
  out += spec.scheme;
  out += ':';
  // Content-addressed sources render their identity token in place of the
  // spec name, so equal content keys equally whatever path it came from.
  if (!r.identity.empty())
    out += r.identity;
  else
    out += spec.name;
  for (int i = 0; i < r.count; ++i) {
    out += i == 0 ? ':' : ',';
    out += r.params[static_cast<std::size_t>(i)].first;
    out += '=';
    append_number(out, r.params[static_cast<std::size_t>(i)].second);
  }
  if (r.seeded) {
    out += "#seed=";
    append_number(out, r.seed);
  }
  // FNV-1a over the canonical text; the cache shards and buckets on this,
  // and GraphStore derives its filenames from it.
  return fnv1a64(out);
}

std::string canonical_graph_key(const GraphSpec& spec, std::uint64_t seed) {
  std::string out;
  (void)canonical_graph_key(spec, seed, out);
  return out;
}

JobKind parse_job_kind(const std::string& name) {
  if (name == "match") return JobKind::kMatch;
  if (name == "undirected-match") return JobKind::kUndirectedMatch;
  if (name == "analyze") return JobKind::kAnalyze;
  throw std::invalid_argument("unknown job kind '" + name +
                              "' (match|undirected-match|analyze)");
}

const char* to_string(JobKind kind) noexcept {
  switch (kind) {
    case JobKind::kMatch: return "match";
    case JobKind::kUndirectedMatch: return "undirected-match";
    case JobKind::kAnalyze: return "analyze";
  }
  return "?";
}

std::vector<std::string> job_kind_names() {
  return {"analyze", "match", "undirected-match"};
}

JobSpec parse_job_spec_line(const std::string& line) {
  JobSpec job;
  bool have_input = false;
  bool have_algo = false;
  std::vector<std::string> seen;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos || eq == 0)
      throw std::invalid_argument("job spec: expected key=value, got '" + token + "'");
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    // Reject repeats instead of silently letting the last one win; `algo`
    // and `algorithm` are aliases for the same field.
    const std::string canonical = key == "algorithm" ? "algo" : key;
    if (std::find(seen.begin(), seen.end(), canonical) != seen.end())
      throw std::invalid_argument("job spec: duplicate key '" + key + "'");
    seen.push_back(canonical);
    const auto int_value = [&]() -> std::int64_t {
      try {
        std::size_t used = 0;
        const std::int64_t v = std::stoll(value, &used);
        if (used != value.size()) throw std::invalid_argument(value);
        return v;
      } catch (const std::exception&) {
        throw std::invalid_argument("job spec: non-integer value '" + value +
                                    "' for '" + key + "'");
      }
    };
    // An int field takes only values an int holds; a narrowing cast would
    // wrap k=-4294967294 into k=2.
    const auto int_field_value = [&]() -> int {
      const std::int64_t v = int_value();
      if (v < std::numeric_limits<int>::min() || v > std::numeric_limits<int>::max())
        throw std::invalid_argument("job spec: value '" + value + "' for '" + key +
                                    "' is out of range");
      return static_cast<int>(v);
    };
    // A count with a floor: iters below 0 and k below 1 describe no run.
    const auto int_field_at_least = [&](int floor) -> int {
      const int v = int_field_value();
      if (v < floor)
        throw std::invalid_argument("job spec: value '" + value + "' for '" + key +
                                    "' is below " + std::to_string(floor));
      return v;
    };

    if (key == "name") {
      job.name = value;
    } else if (key == "input") {
      job.input = parse_graph_spec(value);
      have_input = true;
    } else if (key == "kind") {
      job.kind = parse_job_kind(value);
    } else if (key == "algo" || key == "algorithm") {
      job.pipeline.algorithm = value;
      have_algo = true;
    } else if (key == "scaling") {
      job.pipeline.scaling = parse_scaling_method(value);
    } else if (key == "iters") {
      job.pipeline.scaling_iterations = int_field_at_least(0);
    } else if (key == "augment") {
      job.pipeline.augment = int_value() != 0;
    } else if (key == "quality") {
      job.pipeline.compute_quality = int_value() != 0;
    } else if (key == "threads") {
      job.pipeline.options.threads = int_field_value();
    } else if (key == "k") {
      job.pipeline.options.k = int_field_at_least(1);
    } else if (key == "seed") {
      job.seed = static_cast<std::uint64_t>(int_value());
    } else if (key == "timeout_ms") {
      const std::int64_t v = int_value();
      if (v < 0)
        throw std::invalid_argument("job spec: negative value '" + value +
                                    "' for 'timeout_ms'");
      job.timeout_ms = static_cast<std::uint64_t>(v);
    } else {
      throw std::invalid_argument(
          "job spec: unknown key '" + key +
          "' (name|input|kind|algo|scaling|iters|augment|quality|threads|k|seed|"
          "timeout_ms)");
    }
  }
  if (!have_input) throw std::invalid_argument("job spec: missing required 'input='");
  // The pipeline default (two_sided) only makes sense for bipartite
  // matching; the other kinds resolve their own default algorithm.
  if (!have_algo) {
    if (job.kind == JobKind::kUndirectedMatch) job.pipeline.algorithm = "one_out";
    else if (job.kind == JobKind::kAnalyze) job.pipeline.algorithm = "dm";
  }
  return job;
}

std::vector<JobSpec> parse_job_specs(std::istream& in) {
  std::vector<JobSpec> jobs;
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const auto start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '#') continue;
    try {
      jobs.push_back(parse_job_spec_line(line));
    } catch (const std::exception& e) {
      throw std::invalid_argument("line " + std::to_string(line_number) + ": " +
                                  e.what());
    }
    if (jobs.back().name.empty())
      jobs.back().name = "job" + std::to_string(jobs.size() - 1);
  }
  return jobs;
}

std::vector<JobSpec> parse_job_spec_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open job spec file '" + path + "'");
  return parse_job_specs(in);
}

std::vector<JobSpec> demo_batch() {
  // Mixed families x algorithms; small enough for CI, varied enough to
  // exercise every pipeline shape (scaling on/off, augmentation, exact).
  static const char* const kSpec =
      "name=er_two_sided      input=gen:er:n=8192,deg=5      algo=two_sided iters=5\n"
      "name=er_one_sided      input=gen:er:n=8192,deg=5      algo=one_sided iters=5\n"
      "name=adversarial_two   input=gen:adversarial:n=2048,k=16 algo=two_sided iters=10\n"
      "name=adversarial_ks    input=gen:adversarial:n=2048,k=16 algo=karp_sipser\n"
      "name=mesh_jumpstart    input=gen:mesh:nx=96,ny=96     algo=one_sided iters=5 augment=1\n"
      "name=road_two_sided    input=gen:road:n=16384         algo=two_sided iters=10\n"
      "name=powerlaw_kout     input=gen:powerlaw:n=8192,avg=10 algo=k_out k=2 iters=5\n"
      "name=kkt_greedy        input=gen:kkt:m=4096,p=1024,d=4 algo=greedy\n"
      "name=planted_exact     input=gen:planted:n=8192,extra=3 algo=hopcroft_karp\n"
      "name=suite_smoke       input=suite:cage15_like:scale=0.05 algo=two_sided iters=5\n";
  std::istringstream in(kSpec);
  return parse_job_specs(in);
}

} // namespace bmh
