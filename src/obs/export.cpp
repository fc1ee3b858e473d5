#include "obs/export.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>

namespace bmh::obs {

namespace {

/// Prometheus metric names admit [a-zA-Z_:][a-zA-Z0-9_:]*; we map anything
/// else to '_' (domain/metric names here are already snake_case, this is a
/// guard against future punctuation).
std::string sanitize(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  if (out.empty() || (out.front() >= '0' && out.front() <= '9'))
    out.insert(out.begin(), '_');
  return out;
}

/// Shortest round-trip decimal rendering, so identical snapshots serialize
/// to identical bytes (ostream default formatting is locale- and
/// precision-dependent; std::to_chars is neither).
std::string format_double(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  if (std::isnan(v)) return "NaN";
  std::array<char, 64> buf{};
  const auto [ptr, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), v);
  return ec == std::errc() ? std::string(buf.data(), ptr) : std::string("0");
}

std::string metric_name(const DomainSnapshot& domain, std::string_view metric,
                        std::string_view suffix) {
  std::string out = "bmh_";
  out += sanitize(domain.name);
  out += '_';
  out += sanitize(metric);
  out += suffix;
  return out;
}

constexpr double kNsPerSecond = 1e9;

void prometheus_histogram(std::string& out, const std::string& name,
                          const HistogramData& data) {
  out += "# TYPE " + name + " histogram\n";
  std::uint64_t cumulative = 0;
  for (int b = 0; b < kHistBuckets; ++b) {
    const std::uint64_t in_bucket = data.buckets[static_cast<std::size_t>(b)];
    if (in_bucket == 0) continue;  // sparse exposition: skip empty buckets
    cumulative += in_bucket;
    const double upper = histogram_bucket_upper_ns(b);
    if (std::isinf(upper)) continue;  // overflow folds into +Inf below
    out += name + "_bucket{le=\"" + format_double(upper / kNsPerSecond) +
           "\"} " + std::to_string(cumulative) + "\n";
  }
  out += name + "_bucket{le=\"+Inf\"} " + std::to_string(data.count) + "\n";
  out += name + "_sum " +
         format_double(static_cast<double>(data.sum_ns) / kNsPerSecond) + "\n";
  out += name + "_count " + std::to_string(data.count) + "\n";
}

void json_escape_into(std::string& out, std::string_view raw) {
  for (char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
}

void json_line_prefix(std::string& out, std::int64_t ts_ms,
                      const DomainSnapshot& domain, std::string_view metric,
                      std::string_view type) {
  out += "{\"ts_ms\":" + std::to_string(ts_ms) + ",\"domain\":\"";
  json_escape_into(out, domain.name);
  out += "\",\"metric\":\"";
  json_escape_into(out, metric);
  out += "\",\"type\":\"";
  out += type;
  out += '"';
}

} // namespace

std::string prometheus_text(const Snapshot& snapshot) {
  const Snapshot agg = snapshot.aggregated();
  std::string out;
  for (const DomainSnapshot& domain : agg.domains) {
    for (const auto& [metric, value] : domain.counters) {
      const std::string name = metric_name(domain, metric, "_total");
      out += "# TYPE " + name + " counter\n";
      out += name + " " + std::to_string(value) + "\n";
    }
    for (const auto& [metric, value] : domain.gauges) {
      const std::string name = metric_name(domain, metric, "");
      out += "# TYPE " + name + " gauge\n";
      out += name + " " + std::to_string(value) + "\n";
    }
    for (const auto& [metric, data] : domain.histograms) {
      prometheus_histogram(out, metric_name(domain, metric, "_seconds"), data);
    }
  }
  return out;
}

void export_prometheus(const Snapshot& snapshot, std::ostream& out) {
  out << prometheus_text(snapshot);
}

std::string json_lines_text(const Snapshot& snapshot, std::int64_t ts_ms) {
  const Snapshot agg = snapshot.aggregated();
  std::string out;
  for (const DomainSnapshot& domain : agg.domains) {
    for (const auto& [metric, value] : domain.counters) {
      json_line_prefix(out, ts_ms, domain, metric, "counter");
      out += ",\"value\":" + std::to_string(value) + "}\n";
    }
    for (const auto& [metric, value] : domain.gauges) {
      json_line_prefix(out, ts_ms, domain, metric, "gauge");
      out += ",\"value\":" + std::to_string(value) + "}\n";
    }
    for (const auto& [metric, data] : domain.histograms) {
      json_line_prefix(out, ts_ms, domain, metric, "histogram");
      out += ",\"count\":" + std::to_string(data.count);
      out += ",\"sum_seconds\":" +
             format_double(static_cast<double>(data.sum_ns) / kNsPerSecond);
      out += ",\"mean_seconds\":" + format_double(data.mean_ns() / kNsPerSecond);
      out += ",\"p50_seconds\":" + format_double(data.p50_ns() / kNsPerSecond);
      out += ",\"p90_seconds\":" + format_double(data.p90_ns() / kNsPerSecond);
      out += ",\"p99_seconds\":" + format_double(data.p99_ns() / kNsPerSecond);
      out += "}\n";
    }
  }
  return out;
}

void export_json_lines(const Snapshot& snapshot, std::ostream& out,
                       std::int64_t ts_ms) {
  out << json_lines_text(snapshot, ts_ms);
}

} // namespace bmh::obs
