#ifndef IMPREG_SERVICE_WIRE_H_
#define IMPREG_SERVICE_WIRE_H_

#include <cstdint>
#include <string>

#include "service/query_engine.h"

/// \file
/// JSONL wire format for the query-serving layer.
///
/// Requests are one JSON object per line. Three shapes:
///
///   {"op": "add-edge", "u": 3, "v": 7, "weight": 0.5}
///   {"op": "remove-edge", "u": 3, "v": 7}
///   {"id": "q1", "method": "ppr", "seeds": [0, 4],
///    "gamma": 0.15, "epsilon": 1e-6, "top": 5}
///
/// An add-edge weight defaults to 1.0 and must be finite and positive.
/// A remove-edge weight defaults to 0.0 — the "remove the edge
/// entirely" sentinel — and must be finite and non-negative (a
/// positive value is a partial weight decrement). All ids must be
/// integral numbers in NodeId range, the `int` query fields
/// (`max_iterations`, `steps`, `top`) integral numbers in `int` range,
/// and `max_work` an integral number in int64 range; anything else is
/// a parse error naming the field, never a truncated or wrapped cast.
/// Every optional field present must have its JSON type (a number, or
/// a string for `id`/`op`/`method`/`tenant`); a mistyped one is a
/// parse error naming it, never treated as absent.
///
/// `op` defaults to "query". Query fields beyond `seeds` are optional
/// and default to the Query struct defaults; `method` is one of "ppr",
/// "ppr-dense", "heat-kernel", "nibble"; `tenant` (string, default "")
/// names the admission-control billing account. Responses follow the
/// pinned schema "impreg-query-response-v1" (see docs/serving.md and
/// the golden test in tests/service_test.cc) — `shed` (bool) and
/// `tenant` (string) report admission-control outcomes; a shed
/// response has status "shed" and empty set/top.

namespace impreg {

/// One parsed request line: either a graph edit or a query.
struct QueryRequest {
  /// Caller-supplied id echoed back in the response ("" if absent).
  std::string id;
  /// True for {"op": "add-edge", ...} lines.
  bool is_add_edge = false;
  /// True for {"op": "remove-edge", ...} lines (weight 0.0 = remove
  /// the edge entirely).
  bool is_remove_edge = false;
  NodeId u = 0;
  NodeId v = 0;
  double weight = 1.0;
  /// The query (valid when !is_add_edge).
  Query query;
  /// How many top-scoring nodes the response lists (default 10).
  int top = 10;
};

/// Parses one JSONL request line. Returns false with `*error` set on
/// malformed JSON, unknown method/op, or missing required fields.
/// Range-checking seeds against the graph is the caller's job (the
/// engine reports kInvalidInput).
bool ParseQueryRequest(const std::string& json_line, QueryRequest* out,
                       std::string* error);

/// Serializes one response as a single JSONL line (no trailing
/// newline), schema "impreg-query-response-v1". Doubles print as
/// %.17g so replayed output is bit-stable.
std::string QueryResponseToJson(const QueryRequest& request,
                                const QueryResponse& response,
                                std::int64_t epoch);

}  // namespace impreg

#endif  // IMPREG_SERVICE_WIRE_H_
