#pragma once
/// \file cli.hpp
/// \brief Minimal `--flag value` command-line parsing for examples/benches.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace bmh {

/// Parses `--key value` and `--switch` style arguments. Unknown positional
/// arguments are collected in order. No external dependency; just enough
/// for the example programs and bench harnesses.
class CliArgs {
public:
  CliArgs(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key, const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept { return positional_; }

private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

} // namespace bmh
