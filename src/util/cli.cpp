#include "util/cli.hpp"

#include <cstdlib>

namespace bmh {

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      std::string key = arg.substr(2);
      const auto eq = key.find('=');
      if (eq != std::string::npos) {
        values_[key.substr(0, eq)] = key.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = std::string("1");
      }
    } else {
      positional_.push_back(std::move(arg));
    }
  }
}

bool CliArgs::has(const std::string& key) const { return values_.count(key) != 0; }

std::string CliArgs::get(const std::string& key, const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t CliArgs::get_int(const std::string& key, std::int64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

} // namespace bmh
