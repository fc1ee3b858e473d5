#pragma once
/// \file failpoint.hpp
/// \brief Named fault-injection points for testing the serving stack under
/// failure.
///
/// A *failpoint* is a named site compiled into an I/O or resource edge
/// (`BMH_FAILPOINT("store.load")`) that normally does nothing, but can be
/// armed — programmatically or through the `BMH_FAILPOINTS` environment
/// variable — to throw, sleep, or corrupt at that site. Every build carries
/// the sites behind a one-load gate: the macros read one process-wide count
/// of armed sites (`fp::any_armed()`, a relaxed atomic load) and call
/// `fp::hit` only while it is nonzero, so a disarmed site takes no lock and
/// writes no shared cache line.
///
/// Configuration grammar (env var `BMH_FAILPOINTS`, or
/// `configure_from_string`):
///
///     SPEC      := SITE '=' ACTION [':' MOD (',' MOD)*] (';' SPEC)*
///     ACTION    := 'off' | 'error' | 'delay' '(' NUMBER ['ms'|'us'|'s'] ')'
///                | 'corrupt'
///     MOD       := 'p=' FLOAT        — fire with probability p
///                | 'every=' N        — fire every Nth evaluation
///                | 'first=' N        — fire only the first N evaluations
///
///     BMH_FAILPOINTS="store.spill=error;source.mm.read=delay(50ms);store.load.crc=corrupt:p=0.1"
///
/// Actions:
///  * `error`   — the site throws `fp::FailpointError` (derives from
///                std::runtime_error, carries the site name). Each layer's
///                existing exception discipline then classifies it exactly
///                like a real transient fault at that edge.
///  * `delay`   — the site sleeps for the given duration, modelling a slow
///                disk/fsync; combined with `timeout_ms=` job deadlines it
///                exercises the timeout path.
///  * `corrupt` — the site's `BMH_FAILPOINT_CORRUPT` macro evaluates to
///                true and the surrounding code perturbs its own data the
///                way a real corruption would (e.g. the serializer reports
///                a payload CRC mismatch, taking the content-rejection +
///                self-heal path rather than the transient-I/O path).
///
/// Trigger modes compose with any action; probability draws come from a
/// deterministic per-site counter hash (splitmix64 over a global seed set
/// by `set_seed`), so a fault schedule is reproducible run to run.
///
/// Every armed site owns two counters in the global `failpoints` metric
/// domain (`fp::metric_domain()`, attached by `bmh::Engine` to its
/// registry): `<site>.evaluations` and `<site>.fires`.
///
/// Compiled-in sites (grep for the literals):
///   store.load            GraphStore::try_load, after the stat   (error/delay)
///   store.load.crc        serialized-payload CRC check           (corrupt/error)
///   store.spill           GraphStore::spill entry                (error/delay)
///   store.prune           GraphStore::prune entry                (error/delay)
///   serialize.load        load_graph_mapped entry                (error/delay)
///   serialize.save.write  save_graph piece write                 (error/delay)
///   serialize.save.fsync  save_graph fsync                       (error/delay)
///   serialize.save.rename save_graph tmp->final rename           (error/delay)
///   mmap.open             MappedFile constructor                 (error/delay)
///   source.mm.read        mm: streaming chunk read               (error/delay)
///   source.mm.hash        mm: content-token hashing              (corrupt/error)
///   source.mtx.read       mtx:/mm: matrix parse entry            (error/delay)
///   cache.insert          GraphCache shard insert                (error/delay)
///   pipeline.stage        every pipeline stage entry             (error/delay)

#include <atomic>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>

namespace bmh::obs {
class MetricDomain;
}

namespace bmh::fp {

/// What an armed site does when its trigger mode says "fire".
enum class Action : std::uint8_t { kOff, kError, kDelay, kCorrupt };

/// Full per-site configuration. Defaults describe a disarmed site.
struct Config {
  Action action = Action::kOff;
  std::uint64_t delay_ns = 0;  ///< kDelay: how long the site sleeps
  double probability = -1.0;   ///< >= 0: fire with this probability
  std::uint64_t every = 0;     ///< > 0: fire on every Nth evaluation
  std::uint64_t first = 0;     ///< > 0: fire only on the first N evaluations
};

/// Thrown by a site armed with `error`. `site()` names the failpoint, which
/// the engine uses to classify the failure into its error taxonomy.
class FailpointError : public std::runtime_error {
public:
  explicit FailpointError(std::string site);
  [[nodiscard]] const std::string& site() const noexcept { return site_; }

private:
  std::string site_;
};

/// Parses one ACTION[:MOD,...] spec (the part right of '='). Throws
/// std::invalid_argument on grammar errors.
[[nodiscard]] Config parse_config(std::string_view spec);

/// Arms (or, with Action::kOff, disarms) one site.
void configure(std::string_view site, const Config& config);

/// Parses and applies a full `site=spec;site=spec` string. Throws
/// std::invalid_argument on grammar errors; earlier entries stay applied.
void configure_from_string(std::string_view text);

/// Disarms one site / every site. Counters are kept (monotone).
void clear(std::string_view site);
void clear_all();

/// Seed for the deterministic probability draws (default 0x9E3779B97F4A7C15).
void set_seed(std::uint64_t seed) noexcept;

/// The global `failpoints` metric domain holding `<site>.evaluations` and
/// `<site>.fires` counters for every site ever armed. Engine attaches it to
/// its registry.
[[nodiscard]] obs::MetricDomain& metric_domain();

/// Convenience counter reads for tests (0 for never-armed sites).
[[nodiscard]] std::uint64_t evaluations(std::string_view site);
[[nodiscard]] std::uint64_t fires(std::string_view site);

/// Site evaluation — reached only through the macros below in production
/// code (tests may call it directly). Looks the site up; if armed and the
/// trigger mode fires: throws FailpointError (kError), sleeps (kDelay), or
/// returns true (kCorrupt). Returns false otherwise. A lookup is one
/// shared-lock map probe; the macros skip it while `any_armed()` is false.
bool hit(std::string_view site);

namespace detail {
/// Number of armed sites, written by configure/clear/clear_all under the
/// registry's exclusive lock. It starts at a nonzero sentinel so the first
/// site evaluation reaches `hit`, whose registry construction applies the
/// `BMH_FAILPOINTS` environment variable and stores the true count.
alignas(64) inline std::atomic<std::uint32_t> armed_sites{
    std::numeric_limits<std::uint32_t>::max()};
} // namespace detail

/// The gate in front of every site: false while no site is armed.
[[nodiscard]] inline bool any_armed() noexcept {
  return detail::armed_sites.load(std::memory_order_relaxed) != 0;
}

} // namespace bmh::fp

/// Injection site: may throw FailpointError or sleep when armed.
#define BMH_FAILPOINT(site) \
  (::bmh::fp::any_armed() ? (void)::bmh::fp::hit(site) : (void)0)
/// Corruption site: evaluates to true when armed with `corrupt` and firing;
/// the surrounding code then perturbs its own data. May also throw/sleep
/// when armed with error/delay.
#define BMH_FAILPOINT_CORRUPT(site) \
  (::bmh::fp::any_armed() && ::bmh::fp::hit(site))
