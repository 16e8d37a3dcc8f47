// The three workloads of the StreamLake benchmark and the helpers they
// share: query accounting and an evaluator of pushdown predicates written
// apart from the program's own, so output checks do not reuse the code
// they check.
#ifndef SLBENCH_WORKLOADS_H_
#define SLBENCH_WORKLOADS_H_

#include <map>
#include <string>
#include <vector>

#include "format/schema.h"
#include "format/types.h"
#include "harness.h"
#include "query/predicate.h"
#include "table/table.h"

namespace slbench {

Outcome RunStreamEtl(const RunConfig& config);
Outcome RunLakehouseAnalytics(const RunConfig& config);
Outcome RunTableChurn(const RunConfig& config);

/// Per-query accounting of one run: wall latency, simulated elapsed time
/// and the pruning/decode counters of SelectMetrics.
class QueryBook {
 public:
  void Add(const streamlake::table::SelectMetrics& m, size_t rows_returned,
           double wall_ns);
  /// query_p50_ms, query_sim_ms, query.p99_ms and the table.* ratios.
  void Fill(Outcome* out) const;
  uint64_t count() const { return wall_ns_.size(); }

 private:
  std::vector<double> wall_ns_;
  double sim_ns_ = 0;
  double files_scanned_ = 0, files_skipped_ = 0;
  double groups_scanned_ = 0, groups_skipped_ = 0;
  double bytes_decoded_ = 0, rows_returned_ = 0;
};

/// Independent evaluation of one predicate / conjunction on a row.
bool NaiveHolds(const streamlake::query::Predicate& p,
                const streamlake::format::Value& v);
bool NaiveMatches(const streamlake::query::Conjunction& where,
                  const streamlake::format::Schema& schema,
                  const streamlake::format::Row& row);

/// Encoded size of a row in the program's row codec: the "user bytes" a
/// client hands over for one row.
uint64_t UserBytes(const streamlake::format::Schema& schema,
                   const streamlake::format::Row& row);

/// Traced runs only: parse and plan `sql` once more through
/// query::ParseSql / query::PlanSelect (outside any round) to time those
/// layers on their own. `schemas` maps table name to schema.
void ParseAndPlan(Recorder* rec, const std::string& sql,
                  const std::map<std::string, const streamlake::format::Schema*>&
                      schemas,
                  Outcome* out);

/// Exact integer of a COUNT(*) / SUM result cell (SUM is a double).
int64_t CellInt(const streamlake::format::Value& v);

}  // namespace slbench

#endif  // SLBENCH_WORKLOADS_H_
