#pragma once
/// \file json.hpp
/// \brief Minimal JSON emission for batch results (JSON-lines sink).
///
/// Hand-rolled on purpose: the container has no JSON dependency, and the
/// records must be byte-stable — doubles are rendered with std::to_chars
/// shortest round-trip form, so the same result always serializes to the
/// same bytes. `include_timings=false` drops the wall-clock fields (the
/// only nondeterministic ones), making the emitted lines byte-identical
/// across reruns with the same seed.

#include <string>

#include "engine/engine_api.hpp"

namespace bmh {

/// JSON string escaping (quotes, backslash, control characters).
[[nodiscard]] std::string json_escape(const std::string& text);

/// Shortest round-trip decimal rendering of a finite double ("0.5", not
/// "0.500000"); non-finite values render as null per JSON.
[[nodiscard]] std::string json_number(double value);

/// One JobResult as a single-line JSON object. Field order is fixed.
[[nodiscard]] std::string to_json_line(const JobResult& result,
                                       bool include_timings = true);

} // namespace bmh
