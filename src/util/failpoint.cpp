#include "util/failpoint.hpp"

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <thread>

#include "obs/metrics.hpp"
#include "util/thread_annotations.hpp"

namespace bmh::fp {
namespace {

// splitmix64 — the draw for probability mode. Deterministic in
// (seed, site, per-site evaluation ordinal), so a fault schedule replays
// identically as long as each site sees the same number of evaluations.
std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint64_t fnv1a(std::string_view s) noexcept {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

struct Site {
  Config config;  ///< guarded by Registry::mutex_
  std::atomic<std::uint64_t> evals{0};
  obs::Counter* eval_counter = nullptr;   ///< stable once created
  obs::Counter* fire_counter = nullptr;
};

class Registry {
public:
  static Registry& instance() {
    static Registry* r = new Registry();  // leaked: sites outlive all users
    return *r;
  }

  void configure(std::string_view site, const Config& config) {
    ExclusiveLock lock(mutex_);
    set_config_locked(find_or_create_locked(site), config);
  }

  void clear(std::string_view site) {
    ExclusiveLock lock(mutex_);
    auto it = sites_.find(site);
    if (it != sites_.end()) set_config_locked(*it->second, Config{});
  }

  void clear_all() {
    ExclusiveLock lock(mutex_);
    for (auto& [name, site] : sites_) set_config_locked(*site, Config{});
  }

  void set_seed(std::uint64_t seed) noexcept {
    seed_.store(seed, std::memory_order_relaxed);
  }

  obs::MetricDomain& domain() noexcept { return domain_; }

  bool hit(std::string_view site_name) {
    Site* site = nullptr;
    Config config;
    {
      SharedLock lock(mutex_);
      auto it = sites_.find(site_name);
      if (it == sites_.end()) return false;
      site = it->second.get();
      config = site->config;
    }
    if (config.action == Action::kOff) return false;

    const std::uint64_t n = site->evals.fetch_add(1, std::memory_order_relaxed) + 1;
    site->eval_counter->inc();

    bool fire = true;
    if (config.first > 0 && n > config.first) fire = false;
    if (fire && config.every > 0) fire = (n % config.every == 0);
    if (fire && config.probability >= 0.0) {
      const std::uint64_t draw = splitmix64(
          seed_.load(std::memory_order_relaxed) ^ fnv1a(site_name) ^ n);
      const double u =
          static_cast<double>(draw >> 11) * (1.0 / 9007199254740992.0);  // [0,1)
      fire = u < config.probability;
    }
    if (!fire) return false;

    site->fire_counter->inc();
    switch (config.action) {
      case Action::kError:
        throw FailpointError(std::string(site_name));
      case Action::kDelay:
        std::this_thread::sleep_for(std::chrono::nanoseconds(config.delay_ns));
        return false;
      case Action::kCorrupt:
        return true;
      case Action::kOff:
        break;
    }
    return false;
  }

  void apply_string(std::string_view text) {
    std::size_t pos = 0;
    while (pos <= text.size()) {
      const std::size_t end = std::min(text.find(';', pos), text.size());
      std::string_view entry = text.substr(pos, end - pos);
      pos = end + 1;
      while (!entry.empty() && std::isspace(static_cast<unsigned char>(entry.front())))
        entry.remove_prefix(1);
      while (!entry.empty() && std::isspace(static_cast<unsigned char>(entry.back())))
        entry.remove_suffix(1);
      if (entry.empty()) continue;
      const std::size_t eq = entry.find('=');
      if (eq == std::string_view::npos || eq == 0)
        throw std::invalid_argument("failpoint spec missing 'site=': '" +
                                    std::string(entry) + "'");
      configure(entry.substr(0, eq), parse_config(entry.substr(eq + 1)));
    }
  }

  std::uint64_t counter_value(std::string_view site, const char* suffix) {
    SharedLock lock(mutex_);
    auto it = sites_.find(site);
    if (it == sites_.end()) return 0;
    return (suffix[0] == 'f' ? it->second->fire_counter : it->second->eval_counter)
        ->value();
  }

private:
  Registry() {
    // One-shot env arming: grammar errors are a warning, not a crash — a
    // bad BMH_FAILPOINTS value must not take down a production process
    // whose build happens to have the subsystem compiled in.
    // One-shot read at registry construction, before any worker exists.
    // NOLINTNEXTLINE(concurrency-mt-unsafe): see above
    if (const char* env = std::getenv("BMH_FAILPOINTS"); env && *env) {
      try {
        apply_string(env);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "bmh: ignoring bad BMH_FAILPOINTS entry: %s\n",
                     e.what());
      }
    }
    // Replaces the gate's sentinel: from here on it holds the true count.
    ExclusiveLock lock(mutex_);
    detail::armed_sites.store(armed_, std::memory_order_relaxed);
  }

  /// Applies `config` to `site` and publishes the new armed-site count to
  /// the macros' gate.
  void set_config_locked(Site& site, const Config& config) BMH_REQUIRES(mutex_) {
    if (site.config.action != Action::kOff) --armed_;
    if (config.action != Action::kOff) ++armed_;
    site.config = config;
    detail::armed_sites.store(armed_, std::memory_order_relaxed);
  }

  Site& find_or_create_locked(std::string_view site) BMH_REQUIRES(mutex_) {
    auto it = sites_.find(site);
    if (it == sites_.end()) {
      auto owned = std::make_unique<Site>();
      owned->eval_counter = &domain_.counter(std::string(site) + ".evaluations");
      owned->fire_counter = &domain_.counter(std::string(site) + ".fires");
      it = sites_.emplace(std::string(site), std::move(owned)).first;
    }
    return *it->second;
  }

  SharedMutex mutex_;
  std::map<std::string, std::unique_ptr<Site>, std::less<>> sites_
      BMH_GUARDED_BY(mutex_);
  std::uint32_t armed_ BMH_GUARDED_BY(mutex_) = 0;  ///< sites not kOff
  std::atomic<std::uint64_t> seed_{0x9E3779B97F4A7C15ull};
  obs::MetricDomain domain_{"failpoints"};
};

std::uint64_t parse_count(std::string_view text, const char* what) {
  if (text.empty()) throw std::invalid_argument(std::string("failpoint ") + what +
                                                " missing a value");
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9')
      throw std::invalid_argument(std::string("failpoint ") + what +
                                  " is not a number: '" + std::string(text) + "'");
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return value;
}

std::uint64_t parse_delay_ns(std::string_view arg) {
  std::size_t digits = 0;
  while (digits < arg.size() && arg[digits] >= '0' && arg[digits] <= '9') ++digits;
  if (digits == 0)
    throw std::invalid_argument("failpoint delay needs a duration: '" +
                                std::string(arg) + "'");
  const std::uint64_t value = parse_count(arg.substr(0, digits), "delay");
  const std::string_view unit = arg.substr(digits);
  if (unit.empty() || unit == "ms") return value * 1'000'000ull;
  if (unit == "us") return value * 1'000ull;
  if (unit == "ns") return value;
  if (unit == "s") return value * 1'000'000'000ull;
  throw std::invalid_argument("failpoint delay unit must be ns/us/ms/s: '" +
                              std::string(arg) + "'");
}

} // namespace

FailpointError::FailpointError(std::string site)
    : std::runtime_error("failpoint '" + site + "' injected error"),
      site_(std::move(site)) {}

Config parse_config(std::string_view spec) {
  Config config;
  const std::size_t colon = spec.find(':');
  std::string_view action = spec.substr(0, colon);
  if (action == "off") {
    config.action = Action::kOff;
  } else if (action == "error") {
    config.action = Action::kError;
  } else if (action == "corrupt") {
    config.action = Action::kCorrupt;
  } else if (action.starts_with("delay(") && action.ends_with(")")) {
    config.action = Action::kDelay;
    config.delay_ns = parse_delay_ns(action.substr(6, action.size() - 7));
  } else {
    throw std::invalid_argument("unknown failpoint action: '" +
                                std::string(action) + "'");
  }
  if (colon == std::string_view::npos) return config;

  std::string_view mods = spec.substr(colon + 1);
  std::size_t pos = 0;
  while (pos <= mods.size()) {
    const std::size_t end = std::min(mods.find(',', pos), mods.size());
    const std::string_view mod = mods.substr(pos, end - pos);
    pos = end + 1;
    if (mod.empty()) continue;
    if (mod.starts_with("p=")) {
      const std::string text(mod.substr(2));
      char* tail = nullptr;
      const double p = std::strtod(text.c_str(), &tail);
      if (tail == text.c_str() || *tail != '\0' || !(p >= 0.0) || p > 1.0)
        throw std::invalid_argument("failpoint probability must be in [0,1]: '" +
                                    text + "'");
      config.probability = p;
    } else if (mod.starts_with("every=")) {
      config.every = parse_count(mod.substr(6), "every");
      if (config.every == 0)
        throw std::invalid_argument("failpoint every= must be >= 1");
    } else if (mod.starts_with("first=")) {
      config.first = parse_count(mod.substr(6), "first");
      if (config.first == 0)
        throw std::invalid_argument("failpoint first= must be >= 1");
    } else {
      throw std::invalid_argument("unknown failpoint modifier: '" +
                                  std::string(mod) + "'");
    }
  }
  return config;
}

void configure(std::string_view site, const Config& config) {
  Registry::instance().configure(site, config);
}

void configure_from_string(std::string_view text) {
  Registry::instance().apply_string(text);
}

void clear(std::string_view site) { Registry::instance().clear(site); }
void clear_all() { Registry::instance().clear_all(); }
void set_seed(std::uint64_t seed) noexcept { Registry::instance().set_seed(seed); }

obs::MetricDomain& metric_domain() { return Registry::instance().domain(); }

std::uint64_t evaluations(std::string_view site) {
  return Registry::instance().counter_value(site, "e");
}

std::uint64_t fires(std::string_view site) {
  return Registry::instance().counter_value(site, "f");
}

bool hit(std::string_view site) { return Registry::instance().hit(site); }

} // namespace bmh::fp
