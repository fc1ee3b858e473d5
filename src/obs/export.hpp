#pragma once
/// \file export.hpp
/// \brief Machine-readable renderings of a metrics Snapshot: Prometheus
/// text exposition format and JSON lines.
///
/// Both exporters aggregate per-worker domains first (the "worker" domain's
/// instances merge into one) and render deterministically: metric order
/// follows registration order, doubles use shortest-round-trip formatting,
/// so identical snapshots serialize to identical bytes — the property the
/// golden-output tests pin down.
///
/// Naming scheme (see README "Observability"):
///   bmh_<domain>_<metric>[_total|_seconds]
/// Counters get the Prometheus `_total` suffix; histograms record
/// nanoseconds internally but export seconds with the `_seconds` suffix, as
/// Prometheus convention requires. Names are sanitized to
/// [a-zA-Z0-9_] before emission.
///
/// Histogram buckets are cumulative (`le` = upper bound in seconds); empty
/// buckets are skipped to keep the exposition small — sparse bucket sets
/// are valid Prometheus — and the `+Inf` bucket, `_sum` and `_count` are
/// always present.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace bmh::obs {

/// Prometheus text exposition (version 0.0.4) of the aggregated snapshot.
[[nodiscard]] std::string prometheus_text(const Snapshot& snapshot);
void export_prometheus(const Snapshot& snapshot, std::ostream& out);

/// One JSON object per line, one line per metric of the aggregated
/// snapshot. `ts_ms` stamps every line (pass 0 for deterministic output —
/// the golden tests do).
[[nodiscard]] std::string json_lines_text(const Snapshot& snapshot,
                                          std::int64_t ts_ms = 0);
void export_json_lines(const Snapshot& snapshot, std::ostream& out,
                       std::int64_t ts_ms = 0);

} // namespace bmh::obs
