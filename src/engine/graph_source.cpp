#include "engine/graph_source.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <span>
#include <sstream>

#include "graph/generators.hpp"
#include "graph/generators_suite.hpp"
#include "graph/mmio.hpp"
#include "util/failpoint.hpp"
#include "util/hash.hpp"
#include "util/thread_annotations.hpp"
#include "util/types.hpp"

namespace bmh {

namespace {

/// Splits "key=val,key=val" into a numeric parameter map.
std::map<std::string, double> parse_params(const std::string& text,
                                           const std::string& spec) {
  std::map<std::string, double> params;
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (item.empty()) continue;
    const auto eq = item.find('=');
    if (eq == std::string::npos || eq == 0)
      throw std::invalid_argument("graph spec '" + spec + "': expected key=value, got '" +
                                  item + "'");
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (params.count(key) != 0)
      throw std::invalid_argument("graph spec '" + spec + "': duplicate key '" + key +
                                  "'");
    double parsed = 0.0;
    try {
      std::size_t used = 0;
      parsed = std::stod(value, &used);
      if (used != value.size()) throw std::invalid_argument(value);
    } catch (const std::exception&) {
      throw std::invalid_argument("graph spec '" + spec + "': non-numeric value for '" +
                                  key + "'");
    }
    // stod accepts "nan" and "inf", which no parameter means, and which
    // reach the generators' double -> integer casts.
    if (!std::isfinite(parsed))
      throw std::invalid_argument("graph spec '" + spec + "': non-finite value for '" +
                                  key + "'");
    params[key] = parsed;
  }
  return params;
}

/// Looks up `key`, falling back to `fallback`; the clamp keeps tiny or
/// negative user-provided sizes from producing degenerate graphs.
double param(const GraphSpec& s, const char* key, double fallback) {
  const auto it = s.params.find(key);
  return it == s.params.end() ? fallback : it->second;
}

vid_t param_vid(const GraphSpec& s, const char* key, double fallback,
                vid_t floor_value = 1) {
  const double v = param(s, key, fallback);
  // Reject before casting: double -> int32 is UB when out of range, and the
  // range check must fail on *both* sides (a huge negative value is as
  // out-of-range as a huge positive one) plus NaN (every comparison false).
  if (!(v > -2147483649.0) || !(v < 2147483648.0))
    throw std::invalid_argument("graph spec '" + s.spec + "': '" + key +
                                "' does not fit a 32-bit vertex count");
  return std::max(floor_value, static_cast<vid_t>(v));
}

/// The seed precedence every seeded source shares: a seed pinned in the
/// spec wins over the job seed, so one batch can run several algorithms
/// against the *same* random instance.
std::uint64_t effective_seed(const GraphSpec& spec, std::uint64_t seed) {
  const auto pinned = spec.params.find("seed");
  return pinned != spec.params.end() ? static_cast<std::uint64_t>(pinned->second)
                                     : seed;
}

/// Shared NAME[:key=val,...] parsing for the generator-shaped schemes.
void parse_name_and_params(const std::string& rest, GraphSpec& out) {
  const auto colon = rest.find(':');
  out.name = rest.substr(0, colon);
  const std::string params =
      colon == std::string::npos ? std::string() : rest.substr(colon + 1);
  if (out.name.empty())
    throw std::invalid_argument("graph spec '" + out.spec + "': missing name");
  out.params = parse_params(params, out.spec);
}

const char* const kGeneratorNames =
    "er|adversarial|planted|mesh|road|powerlaw|kkt|cycle|regular|full|one_out";

/// Shared file materialization for the mtx:/mm: schemes. Everything the
/// reader throws becomes a SourceIoError: the *spec* was fine, the backing
/// input was not — the engine's transient, retry-once error class.
BipartiteGraph read_matrix_source_file(const std::string& path) {
  BMH_FAILPOINT("source.mtx.read");
  try {
    return read_matrix_market_file(path);
  } catch (const std::exception& e) {
    throw SourceIoError(e.what());
  }
}

class GenSource final : public GraphSource {
public:
  [[nodiscard]] const std::string& scheme() const noexcept override {
    static const std::string kScheme = "gen";
    return kScheme;
  }

  void parse(const std::string& rest, GraphSpec& out) const override {
    parse_name_and_params(rest, out);
  }

  [[nodiscard]] ResolvedGraphSpec resolve(const GraphSpec& spec,
                                          std::uint64_t seed) const override {
    ResolvedGraphSpec r;
    r.seed = effective_seed(spec, seed);

    const std::string& g = spec.name;
    if (g == "er") {
      const vid_t n = param_vid(spec, "n", 4096, 2);
      r.add("cols", param_vid(spec, "cols", static_cast<double>(n), 2));
      r.add("deg", param(spec, "deg", 4.0));
      r.add("n", n);
      r.seeded = true;
    } else if (g == "adversarial") {
      r.add("k", param_vid(spec, "k", 8));
      r.add("n", param_vid(spec, "n", 1024, 4));
    } else if (g == "planted") {
      r.add("extra", param_vid(spec, "extra", 3, 0));
      r.add("n", param_vid(spec, "n", 4096, 2));
      r.seeded = true;
    } else if (g == "mesh") {
      const vid_t n = param_vid(spec, "n", 4096, 2);
      const vid_t nx = param_vid(spec, "nx", std::sqrt(static_cast<double>(n)), 2);
      r.add("nx", nx);
      r.add("ny", param_vid(spec, "ny", static_cast<double>(nx), 2));
    } else if (g == "road") {
      r.add("drop", param(spec, "drop", 0.05));
      r.add("n", param_vid(spec, "n", 4096, 2));
      r.add("shortcut", param(spec, "shortcut", 0.3));
      r.seeded = true;
    } else if (g == "powerlaw") {
      r.add("alpha", param(spec, "alpha", 1.8));
      r.add("avg", param(spec, "avg", 8.0));
      r.add("n", param_vid(spec, "n", 4096, 2));
      r.seeded = true;
    } else if (g == "kkt") {
      r.add("d", param_vid(spec, "d", 4));
      r.add("m", param_vid(spec, "m", 1024, 4));
      r.add("p", param_vid(spec, "p", 256, 1));
      r.seeded = true;
    } else if (g == "cycle") {
      r.add("n", param_vid(spec, "n", 4096, 2));
    } else if (g == "regular") {
      r.add("d", param_vid(spec, "d", 3));
      r.add("n", param_vid(spec, "n", 4096, 2));
      r.seeded = true;
    } else if (g == "full") {
      r.add("n", param_vid(spec, "n", 256, 1));
    } else if (g == "one_out") {
      r.add("n", param_vid(spec, "n", 4096, 2));
      r.seeded = true;
    } else {
      throw std::invalid_argument("graph spec '" + spec.spec +
                                  "': unknown generator '" + g + "' (" +
                                  kGeneratorNames + ")");
    }
    return r;
  }

  [[nodiscard]] BipartiteGraph build(const GraphSpec& spec,
                                     const ResolvedGraphSpec& r) const override {
    const std::string& g = spec.name;
    const std::uint64_t seed = r.seed;
    const auto as_vid = [&r](const char* key) {
      return static_cast<vid_t>(r.get(key));
    };
    if (g == "er") {
      const double nnz = r.get("deg") * r.get("n");
      if (!(nnz >= 0.0 && nnz < 9.0e18))
        throw std::invalid_argument("graph spec '" + spec.spec +
                                    "': 'deg' * n is not a valid edge count");
      return make_erdos_renyi(as_vid("n"), as_vid("cols"), static_cast<eid_t>(nnz),
                              seed);
    }
    if (g == "adversarial") return make_ks_adversarial(as_vid("n"), as_vid("k"));
    if (g == "planted") return make_planted_perfect(as_vid("n"), as_vid("extra"), seed);
    if (g == "mesh") return make_mesh(as_vid("nx"), as_vid("ny"));
    if (g == "road")
      return make_road_like(as_vid("n"), r.get("shortcut"), r.get("drop"), seed);
    if (g == "powerlaw")
      return make_power_law(as_vid("n"), r.get("avg"), r.get("alpha"), seed);
    if (g == "kkt") return make_kkt_like(as_vid("m"), as_vid("p"), as_vid("d"), seed);
    if (g == "cycle") return make_cycle(as_vid("n"));
    if (g == "regular") return make_row_regular(as_vid("n"), as_vid("d"), seed);
    if (g == "full") return make_full(as_vid("n"));
    if (g == "one_out") return make_one_out(as_vid("n"), seed);
    // resolve() already rejected unknown generators.
    throw std::invalid_argument("graph spec '" + spec.spec +
                                "': unknown generator '" + g + "' (" +
                                kGeneratorNames + ")");
  }
};

class SuiteSource final : public GraphSource {
public:
  [[nodiscard]] const std::string& scheme() const noexcept override {
    static const std::string kScheme = "suite";
    return kScheme;
  }

  void parse(const std::string& rest, GraphSpec& out) const override {
    parse_name_and_params(rest, out);
  }

  [[nodiscard]] ResolvedGraphSpec resolve(const GraphSpec& spec,
                                          std::uint64_t seed) const override {
    ResolvedGraphSpec r;
    r.seed = effective_seed(spec, seed);
    r.add("scale", param(spec, "scale", 0.1));
    r.seeded = true;
    return r;
  }

  [[nodiscard]] BipartiteGraph build(const GraphSpec& spec,
                                     const ResolvedGraphSpec& r) const override {
    return make_suite_instance(spec.name, r.get("scale"), r.seed).graph;
  }
};

/// Legacy file scheme: keyed by the path *text* (cheap, but a moved file is
/// a new cache key and an edited one silently serves stale store entries).
class MtxSource final : public GraphSource {
public:
  [[nodiscard]] const std::string& scheme() const noexcept override {
    static const std::string kScheme = "mtx";
    return kScheme;
  }

  void parse(const std::string& rest, GraphSpec& out) const override {
    if (rest.empty())
      throw std::invalid_argument("graph spec '" + out.spec + "': empty mtx path");
    out.name = rest;  // paths may contain ':'; everything after "mtx:" is the path
  }

  [[nodiscard]] ResolvedGraphSpec resolve(const GraphSpec& spec,
                                          std::uint64_t seed) const override {
    ResolvedGraphSpec r;
    r.seed = effective_seed(spec, seed);
    return r;  // keyed by path text; seed never read
  }

  [[nodiscard]] BipartiteGraph build(const GraphSpec& spec,
                                     const ResolvedGraphSpec&) const override {
    return read_matrix_source_file(spec.name);
  }
};

/// Content-addressed file scheme: the canonical identity is the FNV-1a hash
/// of the file bytes, so equal content keys equally across processes, copies
/// and renames — the property that makes the GraphStore mmap-warm for real
/// matrices from the first job after a restart. The hash is memoized per
/// (path, mtime, size): a warm resolve is one stat() plus a map lookup.
class MmSource final : public GraphSource {
public:
  [[nodiscard]] const std::string& scheme() const noexcept override {
    static const std::string kScheme = "mm";
    return kScheme;
  }

  void parse(const std::string& rest, GraphSpec& out) const override {
    constexpr std::string_view kPrefix = "path=";
    if (rest.rfind(kPrefix, 0) != 0 || rest.size() == kPrefix.size())
      throw std::invalid_argument("graph spec '" + out.spec +
                                  "': expected mm:path=FILE");
    out.name = rest.substr(kPrefix.size());  // paths may contain ',' and ':'
  }

  [[nodiscard]] ResolvedGraphSpec resolve(const GraphSpec& spec,
                                          std::uint64_t seed) const override {
    ResolvedGraphSpec r;
    r.seed = effective_seed(spec, seed);
    r.identity_owner = content_token(spec);
    r.identity = *r.identity_owner;
    return r;
  }

  [[nodiscard]] BipartiteGraph build(const GraphSpec& spec,
                                     const ResolvedGraphSpec&) const override {
    return read_matrix_source_file(spec.name);
  }

private:
  struct Entry {
    std::int64_t mtime_ns = 0;
    std::uint64_t size = 0;
    std::shared_ptr<const std::string> token;  ///< 16 hex digits of fnv1a64
  };

  /// The memoized content token for the file behind `spec`. Throws
  /// std::runtime_error when the file cannot be statted or read (resolve —
  /// and therefore canonical_graph_key — fails like build would).
  std::shared_ptr<const std::string> content_token(const GraphSpec& spec) const {
    struct ::stat st = {};
    if (::stat(spec.name.c_str(), &st) != 0)
      throw SourceIoError("graph spec '" + spec.spec + "': cannot stat '" +
                          spec.name + "'");
    const std::int64_t mtime_ns =
        static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1000000000 +
        static_cast<std::int64_t>(st.st_mtim.tv_nsec);
    const auto size = static_cast<std::uint64_t>(st.st_size);
    {
      LockGuard lock(mutex_);
      const auto it = memo_.find(spec.name);
      if (it != memo_.end() && it->second.mtime_ns == mtime_ns &&
          it->second.size == size)
        return it->second.token;
    }
    auto token = std::make_shared<const std::string>(hash_file(spec));
    LockGuard lock(mutex_);
    memo_[spec.name] = Entry{mtime_ns, size, token};
    return token;
  }

  static std::string hash_file(const GraphSpec& spec) {
    std::ifstream in(spec.name, std::ios::binary);
    if (!in)
      throw SourceIoError("graph spec '" + spec.spec + "': cannot open '" +
                          spec.name + "'");
    std::uint64_t h = 14695981039346656037ull;  // FNV-1a, streamed in chunks
    char chunk[1 << 16];
    while (in.read(chunk, sizeof chunk) || in.gcount() > 0) {
      // Per-chunk site: `delay` models a slow disk stalling mid-stream,
      // `error` a read failing after some bytes already hashed.
      BMH_FAILPOINT("source.mm.read");
      const auto got = static_cast<std::size_t>(in.gcount());
      for (std::size_t i = 0; i < got; ++i) {
        h ^= static_cast<unsigned char>(chunk[i]);
        h *= 1099511628211ull;
      }
      if (!in) break;
    }
    // The corrupt action flips a hash bit: the content token (and with it
    // the cache/store key) goes wrong the way a torn read would make it —
    // harmless by construction (a novel key just builds and caches fresh),
    // which the soak test relies on.
    if (BMH_FAILPOINT_CORRUPT("source.mm.hash")) h ^= 0x1;
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
    return std::string(buf, 16);
  }

  mutable Mutex mutex_;
  mutable std::map<std::string, Entry, std::less<>> memo_ BMH_GUARDED_BY(mutex_);
};

/// The built-in sources, sorted by scheme. Function-local statics: built on
/// first use, so a lookup from another translation unit's static
/// initializer still finds them constructed.
std::span<const GraphSource* const> graph_sources() {
  static const GenSource gen;
  static const MmSource mm;
  static const MtxSource mtx;
  static const SuiteSource suite;
  static const GraphSource* const table[] = {&gen, &mm, &mtx, &suite};
  return table;
}

} // namespace

const GraphSource& find_graph_source(std::string_view scheme, std::string_view spec_text) {
  for (const GraphSource* source : graph_sources())
    if (source->scheme() == scheme) return *source;
  std::string known;
  for (const GraphSource* source : graph_sources()) {
    if (!known.empty()) known += '|';
    known += source->scheme();
  }
  throw std::invalid_argument("graph spec '" + std::string(spec_text) +
                              "': unknown scheme '" + std::string(scheme) + "' (" +
                              known + ")");
}

std::vector<std::string> registered_graph_source_schemes() {
  std::vector<std::string> out;
  for (const GraphSource* source : graph_sources()) out.push_back(source->scheme());
  return out;
}

} // namespace bmh
