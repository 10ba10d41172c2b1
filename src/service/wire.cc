#include "service/wire.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>
#include <vector>

#include "util/json.h"

namespace impreg {

namespace {

std::string FormatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Minimal escaping for the echoed id (the only free-form string we
/// emit): backslash, quote, and control characters.
std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':  out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// True iff `d` is an integral double that fits std::int64_t exactly —
/// the guard that keeps `static_cast<std::int64_t>(d)` defined
/// behavior (a double ≥ 2^63 or NaN makes the bare cast UB).
bool IsExactInt64(double d) {
  return std::isfinite(d) && d == std::floor(d) &&
         d >= -9223372036854775808.0 && d < 9223372036854775808.0;
}

/// True iff `d` is an integral double in 32-bit `int` range — the
/// range of NodeId and of the `int` query fields.
bool IsExactInt32(double d) {
  return IsExactInt64(d) && d >= -2147483648.0 && d <= 2147483647.0;
}

/// Looks up optional field `key`: *out is nullptr when it is absent. A
/// present value of any other type (null included) is a parse error
/// naming the field and what it must be — never read as "absent".
bool FindField(const JsonValue& obj, const char* key, JsonValue::Type type,
               const char* must_be, const JsonValue** out,
               std::string* error) {
  *out = obj.Find(key);
  if (*out == nullptr || (*out)->type() == type) return true;
  *error = std::string("\"") + key + "\" must be " + must_be;
  return false;
}

/// Reads an optional number field; absent leaves *out untouched.
bool ReadNumberField(const JsonValue& obj, const char* key, double* out,
                     std::string* error) {
  const JsonValue* v = nullptr;
  if (!FindField(obj, key, JsonValue::Type::kNumber, "a number", &v, error)) {
    return false;
  }
  if (v != nullptr) *out = v->AsDouble();
  return true;
}

/// Reads an optional string field; absent leaves *out untouched.
bool ReadStringField(const JsonValue& obj, const char* key, std::string* out,
                     std::string* error) {
  const JsonValue* v = nullptr;
  if (!FindField(obj, key, JsonValue::Type::kString, "a string", &v, error)) {
    return false;
  }
  if (v != nullptr) *out = v->AsString();
  return true;
}

/// Reads an optional integer field (`int` or `std::int64_t`). Absent
/// leaves *out untouched; anything but an integral number in the
/// field's range is a parse error naming the field, never a truncated
/// or wrapping cast.
template <class Int>
bool ReadIntField(const JsonValue& obj, const char* key, Int* out,
                  std::string* error) {
  constexpr bool kWide = sizeof(Int) == sizeof(std::int64_t);
  const char* must_be =
      kWide ? "an integer in int64 range"
            : "an integer in [-2147483648, 2147483647]";
  const JsonValue* v = nullptr;
  if (!FindField(obj, key, JsonValue::Type::kNumber, must_be, &v, error)) {
    return false;
  }
  if (v == nullptr) return true;
  const double d = v->AsDouble();
  if (!(kWide ? IsExactInt64(d) : IsExactInt32(d))) {
    *error = std::string("\"") + key + "\" must be " + must_be;
    return false;
  }
  *out = static_cast<Int>(d);
  return true;
}

/// Reads one edit-endpoint id: must be present, integral, and in
/// NodeId range. Anything else is a hard parse error.
bool ReadNodeId(const JsonValue& obj, const char* key, NodeId* out) {
  const JsonValue* v = obj.FindOfType(key, JsonValue::Type::kNumber);
  if (v == nullptr || !IsExactInt32(v->AsDouble())) return false;
  *out = static_cast<NodeId>(v->AsDouble());
  return true;
}

}  // namespace

bool ParseQueryRequest(const std::string& json_line, QueryRequest* out,
                       std::string* error) {
  *out = QueryRequest{};
  JsonParseResult parsed = JsonParse(json_line);
  if (!parsed.ok()) {
    *error = parsed.error;
    return false;
  }
  const JsonValue& obj = parsed.value;
  if (!obj.is_object()) {
    *error = "request line is not a JSON object";
    return false;
  }

  std::string op = "query";
  if (!ReadStringField(obj, "id", &out->id, error) ||
      !ReadStringField(obj, "op", &op, error)) {
    return false;
  }

  if (op == "add-edge" || op == "remove-edge") {
    out->is_add_edge = op == "add-edge";
    out->is_remove_edge = !out->is_add_edge;
    if (!ReadNodeId(obj, "u", &out->u) || !ReadNodeId(obj, "v", &out->v)) {
      *error = op + " requires integral \"u\" and \"v\" in node-id range";
      return false;
    }
    // Defaults differ: an add accumulates 1.0; a remove's 0.0 means
    // "remove the edge entirely".
    out->weight = out->is_add_edge ? 1.0 : 0.0;
    if (!ReadNumberField(obj, "weight", &out->weight, error)) return false;
    const double weight = out->weight;
    const bool valid = out->is_add_edge
                           ? std::isfinite(weight) && weight > 0.0
                           : std::isfinite(weight) && weight >= 0.0;
    if (!valid) {
      *error = out->is_add_edge
                   ? "add-edge weight must be a finite positive number"
                   : "remove-edge weight must be a finite non-negative "
                     "number (0 = remove entirely)";
      return false;
    }
    return true;
  }
  if (op != "query") {
    *error = "unknown op \"" + op +
             "\" (expected \"query\", \"add-edge\", or \"remove-edge\")";
    return false;
  }

  const JsonValue* method = nullptr;
  if (!FindField(obj, "method", JsonValue::Type::kString, "a string", &method,
                 error)) {
    return false;
  }
  if (method != nullptr &&
      !QueryMethodFromName(method->AsString(), &out->query.method)) {
    *error = "unknown method \"" + method->AsString() +
             "\" (expected ppr, ppr-dense, heat-kernel, or nibble)";
    return false;
  }

  const JsonValue* seeds = obj.FindOfType("seeds", JsonValue::Type::kArray);
  if (seeds == nullptr || seeds->Items().empty()) {
    *error = "query requires a non-empty \"seeds\" array";
    return false;
  }
  for (const JsonValue& s : seeds->Items()) {
    const double d = s.is_number() ? s.AsDouble() : -1.0;
    if (!s.is_number() || !IsExactInt32(d)) {
      *error = "\"seeds\" entries must be integers in node-id range";
      return false;
    }
    out->query.seeds.push_back(static_cast<NodeId>(d));
  }

  Query& q = out->query;
  if (!ReadNumberField(obj, "gamma", &q.gamma, error) ||
      !ReadNumberField(obj, "epsilon", &q.epsilon, error) ||
      !ReadNumberField(obj, "tolerance", &q.tolerance, error) ||
      !ReadNumberField(obj, "t", &q.t, error) ||
      !ReadNumberField(obj, "delta", &q.delta, error) ||
      !ReadIntField(obj, "max_work", &q.max_work, error) ||
      !ReadStringField(obj, "tenant", &q.tenant, error) ||
      !ReadIntField(obj, "max_iterations", &q.max_iterations, error) ||
      !ReadIntField(obj, "steps", &q.steps, error) ||
      !ReadIntField(obj, "top", &out->top, error)) {
    return false;
  }
  out->top = std::max(out->top, 0);
  return true;
}

std::string QueryResponseToJson(const QueryRequest& request,
                                const QueryResponse& response,
                                std::int64_t epoch) {
  const Vector& scores = response.scores;
  std::int64_t support = 0;
  for (double s : scores) {
    if (s > 0.0) ++support;
  }

  // Top-k by score descending, node id ascending on ties; only
  // positive-score nodes compete. Full sort keeps the order total and
  // replay-stable.
  std::vector<std::pair<double, NodeId>> ranked;
  for (NodeId u = 0; u < static_cast<NodeId>(scores.size()); ++u) {
    if (scores[u] > 0.0) ranked.emplace_back(scores[u], u);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const std::pair<double, NodeId>& a,
               const std::pair<double, NodeId>& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  if (static_cast<int>(ranked.size()) > request.top) {
    ranked.resize(request.top);
  }

  std::string out = "{\"schema\":\"impreg-query-response-v1\"";
  out += ",\"id\":\"" + EscapeJson(request.id) + "\"";
  out += ",\"method\":\"";
  out += QueryMethodName(request.query.method);
  out += "\"";
  out += ",\"status\":\"";
  out += SolveStatusName(response.status);
  out += "\"";
  out += ",\"source\":\"";
  out += QuerySourceName(response.source);
  out += "\"";
  out += ",\"degraded\":";
  out += response.degraded ? "true" : "false";
  out += ",\"shed\":";
  out += response.shed ? "true" : "false";
  out += ",\"tenant\":\"" + EscapeJson(response.tenant) + "\"";
  out += ",\"epoch\":" + std::to_string(epoch);
  out += ",\"support\":" + std::to_string(support);
  out += ",\"work\":" + std::to_string(response.work);
  out += ",\"conductance\":" + FormatDouble(response.conductance);
  out += ",\"set\":[";
  for (std::size_t i = 0; i < response.set.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(response.set[i]);
  }
  out += "]";
  out += ",\"top\":[";
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    if (i > 0) out += ',';
    out += "[" + std::to_string(ranked[i].second) + "," +
           FormatDouble(ranked[i].first) + "]";
  }
  out += "]}";
  return out;
}

}  // namespace impreg
