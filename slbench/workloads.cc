#include "workloads.h"

#include <cmath>

#include "format/row_codec.h"
#include "query/plan.h"
#include "query/sql_parser.h"

namespace slbench {

using streamlake::format::Value;
using streamlake::query::CompareOp;

void QueryBook::Add(const streamlake::table::SelectMetrics& m,
                    size_t rows_returned, double wall_ns) {
  wall_ns_.push_back(wall_ns);
  sim_ns_ += static_cast<double>(m.elapsed_ns);
  files_scanned_ += static_cast<double>(m.files_scanned);
  files_skipped_ += static_cast<double>(m.files_skipped);
  groups_scanned_ += static_cast<double>(m.row_groups_scanned);
  groups_skipped_ += static_cast<double>(m.row_groups_skipped);
  bytes_decoded_ += static_cast<double>(m.bytes_decoded);
  rows_returned_ += static_cast<double>(rows_returned);
}

void QueryBook::Fill(Outcome* out) const {
  double n = static_cast<double>(wall_ns_.size());
  out->e2e["query_p50_ms"] = Quantile(wall_ns_, 0.5) / 1e6;
  out->layer["query.p99_ms"] = Quantile(wall_ns_, 0.99) / 1e6;
  out->e2e["query_sim_ms"] = n > 0 ? sim_ns_ / n / 1e6 : 0;
  out->layer["query.count"] = n;
  double files = files_scanned_ + files_skipped_;
  out->layer["table.files_considered"] = files;
  out->layer["table.files_skipped_ratio"] = files > 0 ? files_skipped_ / files : 0;
  double groups = groups_scanned_ + groups_skipped_;
  out->layer["table.row_groups_considered"] = groups;
  out->layer["table.row_groups_skipped_ratio"] =
      groups > 0 ? groups_skipped_ / groups : 0;
  out->layer["table.rows_returned"] = rows_returned_;
  out->layer["table.bytes_decoded_per_row_returned"] =
      rows_returned_ > 0 ? bytes_decoded_ / rows_returned_ : 0;
}

namespace {

// -1, 0, 1 for two values of one type; numbers compare across int/double.
int Compare(const Value& a, const Value& b) {
  auto number = [](const Value& v, double* out) {
    if (const auto* i = std::get_if<int64_t>(&v)) {
      *out = static_cast<double>(*i);
      return true;
    }
    if (const auto* d = std::get_if<double>(&v)) {
      *out = *d;
      return true;
    }
    return false;
  };
  double x = 0, y = 0;
  if (std::holds_alternative<int64_t>(a) && std::holds_alternative<int64_t>(b)) {
    int64_t i = std::get<int64_t>(a), j = std::get<int64_t>(b);
    return i < j ? -1 : (i > j ? 1 : 0);
  }
  if (number(a, &x) && number(b, &y)) return x < y ? -1 : (x > y ? 1 : 0);
  if (std::holds_alternative<std::string>(a) &&
      std::holds_alternative<std::string>(b)) {
    int c = std::get<std::string>(a).compare(std::get<std::string>(b));
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  if (std::holds_alternative<bool>(a) && std::holds_alternative<bool>(b)) {
    return static_cast<int>(std::get<bool>(a)) -
           static_cast<int>(std::get<bool>(b));
  }
  return 2;  // incomparable: no predicate but != holds
}

}  // namespace

bool NaiveHolds(const streamlake::query::Predicate& p, const Value& v) {
  bool null = std::holds_alternative<std::monostate>(v);
  switch (p.op) {
    case CompareOp::kIsNull:
      return null;
    case CompareOp::kIsNotNull:
      return !null;
    case CompareOp::kIn:
      if (null) return false;
      for (const Value& candidate : p.in_list) {
        if (Compare(v, candidate) == 0) return true;
      }
      return false;
    default:
      break;
  }
  if (null) return false;
  int c = Compare(v, p.literal);
  switch (p.op) {
    case CompareOp::kEq: return c == 0;
    case CompareOp::kNe: return c != 0;
    case CompareOp::kLt: return c == -1;
    case CompareOp::kLe: return c == -1 || c == 0;
    case CompareOp::kGt: return c == 1;
    case CompareOp::kGe: return c == 1 || c == 0;
    default: return false;
  }
}

bool NaiveMatches(const streamlake::query::Conjunction& where,
                  const streamlake::format::Schema& schema,
                  const streamlake::format::Row& row) {
  for (const auto& p : where.predicates()) {
    int index = schema.FieldIndex(p.column);
    if (index < 0 || !NaiveHolds(p, row.fields[index])) return false;
  }
  return true;
}

uint64_t UserBytes(const streamlake::format::Schema& schema,
                   const streamlake::format::Row& row) {
  streamlake::Bytes encoded;
  streamlake::format::EncodeRow(schema, row, &encoded);
  return encoded.size();
}

void ParseAndPlan(Recorder* rec, const std::string& sql,
                  const std::map<std::string, const streamlake::format::Schema*>&
                      schemas,
                  Outcome* out) {
  namespace query = streamlake::query;
  auto parsed = rec->Call("query::ParseSql", "query",
                          [&] { return query::ParseSql(sql); });
  if (!parsed.ok()) {
    out->Fail("ParseSql: " + parsed.status().ToString() + " in " + sql);
    return;
  }
  std::vector<query::PlanTableRef> refs;
  auto ref = [&](const std::string& table, const std::string& alias) {
    auto it = schemas.find(table);
    refs.push_back({table, alias, it == schemas.end() ? nullptr : it->second});
  };
  ref(parsed->table, parsed->table_alias);
  for (const auto& join : parsed->joins) ref(join.table, join.alias);
  for (const auto& r : refs) {
    if (r.schema == nullptr) {
      out->Fail("ParseAndPlan: unknown table " + r.table);
      return;
    }
  }
  auto plan = rec->Call("query::PlanSelect", "query",
                        [&] { return query::PlanSelect(*parsed, refs); });
  if (!plan.ok()) out->Fail("PlanSelect: " + plan.status().ToString());
}

int64_t CellInt(const Value& v) {
  if (const auto* i = std::get_if<int64_t>(&v)) return *i;
  if (const auto* d = std::get_if<double>(&v)) {
    return static_cast<int64_t>(std::llround(*d));
  }
  return -1;
}

}  // namespace slbench
