#include "engine/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace bmh {

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  return ec == std::errc() ? std::string(buf, end) : "null";
}

namespace {

/// Appends `,"key":value` (no comma when the object is still empty).
class ObjectBuilder {
public:
  explicit ObjectBuilder(std::string& out) : out_(out) { out_ += '{'; }
  void close() { out_ += '}'; }

  void raw(const char* key, const std::string& value) {
    if (!first_) out_ += ',';
    first_ = false;
    out_ += '"';
    out_ += key;
    out_ += "\":";
    out_ += value;
  }
  void string(const char* key, const std::string& value) {
    raw(key, '"' + json_escape(value) + '"');
  }
  void integer(const char* key, std::int64_t value) { raw(key, std::to_string(value)); }
  void unsigned_integer(const char* key, std::uint64_t value) {
    raw(key, std::to_string(value));
  }
  void number(const char* key, double value) { raw(key, json_number(value)); }
  void boolean(const char* key, bool value) { raw(key, value ? "true" : "false"); }

private:
  std::string& out_;
  bool first_ = true;
};

} // namespace

namespace {

void append_timings(ObjectBuilder& obj, const JobResult& r) {
  std::string stages = "[";
  for (std::size_t s = 0; s < r.result.stages.size(); ++s) {
    if (s > 0) stages += ',';
    stages += "{\"stage\":\"" + json_escape(r.result.stages[s].stage) +
              "\",\"seconds\":" + json_number(r.result.stages[s].seconds) + '}';
  }
  stages += ']';
  obj.raw("stages", stages);
  obj.number("total_seconds", r.result.total_seconds);
}

} // namespace

std::string to_json_line(const JobResult& r, bool include_timings) {
  std::string line;
  ObjectBuilder obj(line);
  obj.integer("job", static_cast<std::int64_t>(r.index));
  obj.string("name", r.name);
  obj.string("input", r.input);
  // Emitted only for the newer kinds: legacy kind=match records keep their
  // exact pre-kind byte layout, so downstream diffs against old runs hold.
  if (r.kind != JobKind::kMatch) obj.string("kind", to_string(r.kind));
  obj.string("algorithm", r.algorithm);
  obj.unsigned_integer("seed", r.seed);
  obj.boolean("ok", r.ok);
  if (!r.ok) {
    obj.string("error", r.error);
    // Only when classified: records that predate the taxonomy (or were
    // built by hand with kNone) keep their old byte layout.
    if (r.error_kind != ErrorKind::kNone)
      obj.string("error_kind", to_string(r.error_kind));
    obj.close();
    return line;
  }
  if (r.kind == JobKind::kUndirectedMatch) {
    obj.integer("rows", r.rows);
    obj.integer("cols", r.cols);
    obj.integer("edges", r.edges);
    obj.string("conversion", r.result.extras.symmetric_view ? "symmetric" : "union");
    obj.integer("vertices", r.result.extras.vertices);
    obj.integer("undirected_edges",
                static_cast<std::int64_t>(r.result.extras.undirected_edges));
    obj.integer("cardinality", r.result.cardinality);
    obj.boolean("valid", r.result.valid);
    obj.integer("scaling_iterations", r.result.scaling_iterations);
    obj.number("scaling_error", r.result.scaling_error);
    if (include_timings) append_timings(obj, r);
    obj.close();
    return line;
  }
  if (r.kind == JobKind::kAnalyze) {
    obj.integer("rows", r.rows);
    obj.integer("cols", r.cols);
    obj.integer("edges", r.edges);
    if (r.algorithm == "dm") {
      obj.integer("sprank", r.result.sprank);
      obj.integer("h_rows", r.result.extras.h_rows);
      obj.integer("h_cols", r.result.extras.h_cols);
      obj.integer("s_size", r.result.extras.s_size);
      obj.integer("v_rows", r.result.extras.v_rows);
      obj.integer("v_cols", r.result.extras.v_cols);
      obj.integer("fine_blocks", r.result.extras.fine_blocks);
      obj.boolean("total_support", r.result.extras.total_support);
      obj.boolean("fully_indecomposable", r.result.extras.fully_indecomposable);
    } else if (r.algorithm == "koenig") {
      obj.integer("cardinality", r.result.cardinality);
      obj.boolean("valid", r.result.valid);
      obj.integer("cover_size", r.result.extras.cover_size);
      obj.boolean("cover_valid", r.result.extras.cover_valid);
      obj.boolean("maximum", r.result.extras.maximum);
    } else {  // sprank
      obj.integer("sprank", r.result.sprank);
    }
    if (include_timings) append_timings(obj, r);
    obj.close();
    return line;
  }
  obj.integer("rows", r.rows);
  obj.integer("cols", r.cols);
  obj.integer("edges", r.edges);
  obj.integer("cardinality", r.result.cardinality);
  obj.integer("heuristic_cardinality", r.result.heuristic_cardinality);
  obj.boolean("valid", r.result.valid);
  obj.boolean("exact", r.result.exact);
  if (r.result.sprank > 0) {
    obj.integer("sprank", r.result.sprank);
    obj.number("quality", r.result.quality);
  }
  obj.integer("scaling_iterations", r.result.scaling_iterations);
  obj.number("scaling_error", r.result.scaling_error);
  if (include_timings) append_timings(obj, r);
  obj.close();
  return line;
}

} // namespace bmh
