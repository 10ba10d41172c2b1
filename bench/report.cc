#include "bench/report.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

#include "util/json.h"

namespace impreg {

namespace {

// JSON string escaping for benchmark names (quotes, backslashes,
// control characters — names like "BM_Foo/8" need none, but stay safe).
void AppendEscaped(std::ostringstream& out, const std::string& s) {
  out << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      case '\t':
        out << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

// One record from a parsed JSON object; returns false (with an error
// message) when required members are missing or mistyped.
bool RecordFromJson(const JsonValue& obj, BenchRecord* record,
                    std::string* error) {
  if (!obj.is_object()) {
    *error = "record is not a JSON object";
    return false;
  }
  const JsonValue* bench = obj.FindOfType("bench", JsonValue::Type::kString);
  const JsonValue* ns = obj.FindOfType("ns_per_iter", JsonValue::Type::kNumber);
  if (bench == nullptr || ns == nullptr) {
    *error = "record missing \"bench\" or \"ns_per_iter\"";
    return false;
  }
  record->bench = bench->AsString();
  record->ns_per_iter = ns->AsDouble();
  if (const JsonValue* v = obj.FindOfType("n", JsonValue::Type::kNumber)) {
    record->n = static_cast<std::int64_t>(v->AsDouble());
  }
  if (const JsonValue* v = obj.FindOfType("m", JsonValue::Type::kNumber)) {
    record->m = static_cast<std::int64_t>(v->AsDouble());
  }
  if (const JsonValue* v = obj.FindOfType("threads", JsonValue::Type::kNumber)) {
    record->threads = static_cast<int>(v->AsDouble());
  }
  if (const JsonValue* v = obj.FindOfType("p50_ns", JsonValue::Type::kNumber)) {
    record->p50_ns = v->AsDouble();
  }
  if (const JsonValue* v = obj.FindOfType("p99_ns", JsonValue::Type::kNumber)) {
    record->p99_ns = v->AsDouble();
  }
  return true;
}

bool RecordsFromArray(const JsonValue& array, std::vector<BenchRecord>* records,
                      std::string* error) {
  for (const JsonValue& item : array.Items()) {
    BenchRecord record;
    if (!RecordFromJson(item, &record, error)) return false;
    records->push_back(std::move(record));
  }
  return true;
}

}  // namespace

std::string BenchReportToJson(const std::vector<BenchRecord>& records,
                              const std::string& metrics_json,
                              const BenchMetadata& machine) {
  std::ostringstream out;
  out.precision(17);
  out << "{\n  \"schema\": \"impreg-bench-v2\",\n";
  if (!machine.empty()) {
    out << "  \"machine\": {";
    bool first = true;
    for (const auto& [key, value] : machine) {
      if (!first) out << ", ";
      first = false;
      AppendEscaped(out, key);
      out << ": ";
      AppendEscaped(out, value);
    }
    out << "},\n";
  }
  out << "  \"records\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    out << "    {\"bench\": ";
    AppendEscaped(out, r.bench);
    out << ", \"n\": " << r.n << ", \"m\": " << r.m
        << ", \"threads\": " << r.threads
        << ", \"ns_per_iter\": " << r.ns_per_iter;
    // Percentiles are opt-in: throughput-only records keep the exact
    // byte layout older baselines were written with.
    if (r.p50_ns > 0.0) out << ", \"p50_ns\": " << r.p50_ns;
    if (r.p99_ns > 0.0) out << ", \"p99_ns\": " << r.p99_ns;
    out << "}";
    if (i + 1 < records.size()) out << ",";
    out << "\n";
  }
  out << "  ],\n  \"metrics\": "
      << (metrics_json.empty() ? "{}" : metrics_json) << "\n}\n";
  return out.str();
}

bool WriteBenchReport(const std::string& path,
                      const std::vector<BenchRecord>& records,
                      const std::string& metrics_json,
                      const BenchMetadata& machine) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
    // A failure here surfaces as the open failing below.
  }
  std::ofstream out(path);
  if (!out) return false;
  out << BenchReportToJson(records, metrics_json, machine);
  return static_cast<bool>(out);
}

BenchParseResult ParseBenchReport(const std::string& text) {
  BenchParseResult result;
  const JsonParseResult parsed = JsonParse(text);
  if (!parsed.ok()) {
    result.error = parsed.error;
    return result;
  }
  const JsonValue& doc = parsed.value;
  if (doc.is_object()) {
    const JsonValue* schema =
        doc.FindOfType("schema", JsonValue::Type::kString);
    if (schema == nullptr || schema->AsString() != "impreg-bench-v2") {
      result.error = "unrecognized report schema (want impreg-bench-v2)";
      return result;
    }
    result.schema = schema->AsString();
    if (const JsonValue* machine =
            doc.FindOfType("machine", JsonValue::Type::kObject)) {
      for (const auto& [key, value] : machine->Members()) {
        if (!value.is_string()) {
          result.error = "machine metadata value for \"" + key +
                         "\" is not a string";
          return result;
        }
        result.machine.emplace(key, value.AsString());
      }
    }
    const JsonValue* records =
        doc.FindOfType("records", JsonValue::Type::kArray);
    if (records == nullptr) {
      result.error = "impreg-bench-v2 document missing \"records\" array";
      return result;
    }
    if (!RecordsFromArray(*records, &result.records, &result.error)) {
      result.records.clear();
    }
    return result;
  }
  result.error = "report is not an impreg-bench-v2 object";
  return result;
}

BenchParseResult ReadBenchReport(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    BenchParseResult result;
    result.error = "cannot open " + path;
    return result;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return ParseBenchReport(text.str());
}

BenchDiffResult DiffBenchReports(const std::vector<BenchRecord>& old_records,
                                 const std::vector<BenchRecord>& new_records,
                                 double max_regress,
                                 double max_regress_p99) {
  BenchDiffResult result;
  result.max_regress = max_regress;
  result.max_regress_p99 = max_regress_p99;
  // Duplicate names (benchmark repetitions) keep the first occurrence:
  // reports from the JSON reporter emit one record per run in run
  // order, so "first" is stable across both sides.
  std::map<std::string, const BenchRecord*> old_by_name, new_by_name;
  for (const BenchRecord& r : old_records) old_by_name.emplace(r.bench, &r);
  for (const BenchRecord& r : new_records) new_by_name.emplace(r.bench, &r);

  for (const auto& [bench, old_rec] : old_by_name) {
    const auto it = new_by_name.find(bench);
    if (it == new_by_name.end()) {
      result.only_old.push_back(bench);
      continue;
    }
    const BenchRecord& new_rec = *it->second;
    BenchDiffEntry entry;
    entry.bench = bench;
    entry.old_ns = old_rec->ns_per_iter;
    entry.new_ns = new_rec.ns_per_iter;
    entry.ratio = entry.old_ns > 0.0 ? entry.new_ns / entry.old_ns : 1.0;
    entry.regressed = entry.ratio > 1.0 + max_regress;
    if (entry.regressed) ++result.regressions;
    if (old_rec->p99_ns > 0.0 && new_rec.p99_ns > 0.0) {
      entry.has_p99 = true;
      entry.old_p99 = old_rec->p99_ns;
      entry.new_p99 = new_rec.p99_ns;
      entry.p99_ratio = entry.new_p99 / entry.old_p99;
      if (max_regress_p99 >= 0.0) {
        entry.p99_regressed = entry.p99_ratio > 1.0 + max_regress_p99;
        if (entry.p99_regressed) ++result.p99_regressions;
      }
    }
    result.entries.push_back(std::move(entry));
  }
  for (const auto& [bench, rec] : new_by_name) {
    if (old_by_name.find(bench) == old_by_name.end()) {
      result.only_new.push_back(bench);
    }
  }
  return result;
}

std::vector<std::string> DiffBenchMetadata(const BenchMetadata& old_machine,
                                           const BenchMetadata& new_machine) {
  std::vector<std::string> mismatches;
  // One pass over the union of keys (both maps are ordered, so the
  // output is deterministic and key-sorted).
  std::map<std::string, std::pair<const std::string*, const std::string*>>
      merged;
  for (const auto& [key, value] : old_machine) merged[key].first = &value;
  for (const auto& [key, value] : new_machine) merged[key].second = &value;
  for (const auto& [key, sides] : merged) {
    const auto& [old_value, new_value] = sides;
    if (old_value != nullptr && new_value != nullptr &&
        *old_value == *new_value) {
      continue;
    }
    const std::string old_text =
        old_value != nullptr ? "'" + *old_value + "'" : "<absent>";
    const std::string new_text =
        new_value != nullptr ? "'" + *new_value + "'" : "<absent>";
    mismatches.push_back(key + ": " + old_text + " vs " + new_text);
  }
  return mismatches;
}

}  // namespace impreg
