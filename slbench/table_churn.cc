// table_churn: the Fig. 16(a) test bed with writes beside reads. Each
// round inserts 120-row TPC-H batches into a day-partitioned lineitem
// table (most rows to the hot day, 10% late to the previous day), then the
// auto-compaction agent steps every partition, planning on the pre-ingest
// snapshot and training online. At fixed intervals the round also runs a
// merge-on-read DELETE or UPDATE, TPC-H queries and the MetaFresher flush;
// RewriteManifest + ExpireSnapshots run on a long period. COUNT(*) and
// SUM(l_quantity) are checked against a shadow model after every DELETE,
// UPDATE and successful compaction.
#include <memory>
#include <set>

#include "common/random.h"
#include "core/streamlake.h"
#include "lakebrain/compaction.h"
#include "workload/tpch.h"
#include "workloads.h"

namespace slbench {

namespace sl = streamlake;
using sl::format::Row;
using sl::format::Value;

namespace {

constexpr uint64_t kBlockSize = 64 << 10;
constexpr uint64_t kTargetFileBytes = 512 << 10;
constexpr int kDays = 30;
constexpr int64_t kWindowStart = sl::workload::TpchLineitemGenerator::kShipDateMin;
constexpr int kShipdate = 5, kQuantity = 2;

std::string PartitionOf(int day) {
  return "day=" + std::to_string((kWindowStart + day * 86400LL) / 86400);
}

sl::query::Predicate DayFrom(int day) {
  return sl::query::Predicate::Ge("l_shipdate", Value(kWindowStart + day * 86400LL));
}
sl::query::Predicate DayUntil(int day) {
  return sl::query::Predicate::Lt("l_shipdate",
                                  Value(kWindowStart + (day + 1) * 86400LL));
}

// Scale a TPC-H query's ship-date range (1992-1998) into the 30-day
// window the table holds, so date predicates prune some days, not all.
sl::query::QuerySpec InWindow(sl::query::QuerySpec spec) {
  using Gen = sl::workload::TpchLineitemGenerator;
  std::vector<sl::query::Predicate> scaled;
  for (sl::query::Predicate p : spec.where.predicates()) {
    if (p.column == "l_shipdate") {
      int64_t t = std::get<int64_t>(p.literal);
      double f = static_cast<double>(t - Gen::kShipDateMin) /
                 static_cast<double>(Gen::kShipDateMax - Gen::kShipDateMin);
      p.literal = Value(kWindowStart + static_cast<int64_t>(f * kDays * 86400.0));
    }
    scaled.push_back(p);
  }
  spec.where = sl::query::Conjunction(std::move(scaled));
  return spec;
}

}  // namespace

Outcome RunTableChurn(const RunConfig& config) {
  const bool smoke = config.size == Size::kSmoke;
  const int kBatchRows = 120;
  const int kBatchesPerRound = 5;
  const int kBatchesPerHotDay = 20;
  const int kPreloadRowsPerDay = smoke ? 40 : 400;
  const uint64_t kDeleteEvery = 4, kUpdateEvery = 4, kManifestEvery = 25;
  const int kQueriesPerRound = 8;
  const double kRowsPerSimSecond = 400;
  const sl::format::Schema schema = sl::workload::TpchLineitemGenerator::Schema();

  Outcome out;
  Recorder rec(config.trace);
  CounterLedger ledger;
  std::unique_ptr<sl::core::StreamLake> lake;
  std::unique_ptr<sl::lakebrain::AutoCompactionAgent> agent;
  sl::table::Table* table = nullptr;

  sl::core::StreamLakeOptions options;
  options.ssd_capacity_per_disk = 8ULL << 30;
  options.table_options.target_file_bytes = kTargetFileBytes;
  options.table_options.delete_mode = sl::table::DeleteMode::kMergeOnRead;
  sl::lakebrain::AutoCompactionAgent::Options agent_options;
  agent_options.block_size = kBlockSize;
  agent_options.training = true;
  agent_options.dqn.epsilon_decay_steps = 3000;
  agent_options.dqn.seed = 17;

  // Shadow model: every inserted row and whether it is still live.
  std::vector<Row> rows;
  std::vector<char> live;
  sl::workload::TpchOptions gen_options;
  gen_options.seed = config.seed;
  sl::Random rng(config.seed * 131 + 17);  // row placement
  sl::Random ops(131);  // DELETE / UPDATE parameters, the same every run
  auto make_row = [&](sl::workload::TpchLineitemGenerator* gen, int day) {
    Row row = gen->NextRow();
    row.fields[kShipdate] = Value(kWindowStart + day * 86400LL +
                                  static_cast<int64_t>(rng.Uniform(86400)));
    return row;
  };

  // ---- set-up: deployment, agent and a 30-day history, repeated ----
  std::vector<Row> preload;
  {
    sl::workload::TpchLineitemGenerator gen(gen_options);
    for (int day = 0; day < kDays; ++day) {
      for (int i = 0; i < kPreloadRowsPerDay; ++i) preload.push_back(make_row(&gen, day));
    }
  }
  std::vector<double> setup_walls;
  double setup_cpu_s = 0, setup_wall_s = 0;
  uint64_t user_bytes = 0;
  for (int rep = 0; rep < config.setup_reps && out.correct; ++rep) {
    table = nullptr;
    agent.reset();
    lake.reset();
    ledger.Start();
    rec.BeginGroup("setup");
    int64_t w0 = WallNs(), c0 = CpuNs();
    rec.Call("core::StreamLake", "core", [&] {
      lake = std::make_unique<sl::core::StreamLake>(options);
      agent = std::make_unique<sl::lakebrain::AutoCompactionAgent>(agent_options);
      return 0;
    });
    auto created = rec.Call("LakehouseService::CreateTable", "table", [&] {
      return lake->lakehouse().CreateTable("lineitem", schema,
                                           sl::table::PartitionSpec::Day("l_shipdate"));
    });
    if (!created.ok()) {
      out.Fail("CreateTable: " + created.status().ToString());
      break;
    }
    table = *created;
    for (int day = 0; day < kDays && out.correct; ++day) {
      std::vector<Row> part(preload.begin() + day * kPreloadRowsPerDay,
                            preload.begin() + (day + 1) * kPreloadRowsPerDay);
      sl::Status st = rec.Call("Table::Insert", "table", [&] { return table->Insert(part); });
      if (!st.ok()) out.Fail("preload Insert: " + st.ToString());
    }
    sl::Status st = rec.Call("StreamLake::RunBackgroundWork", "core",
                             [&] { return lake->RunBackgroundWork(); });
    if (!st.ok()) out.Fail("RunBackgroundWork: " + st.ToString());
    setup_wall_s = static_cast<double>(WallNs() - w0) / 1e9;
    setup_cpu_s = static_cast<double>(CpuNs() - c0) / 1e9;
    rec.EndGroup();
    setup_walls.push_back(setup_wall_s);
  }
  if (!out.correct) return out;
  rows = preload;
  live.assign(rows.size(), 1);
  for (const Row& row : rows) user_bytes += UserBytes(schema, row);

  auto shadow_totals = [&](int day) {  // day < 0: whole table
    int64_t n = 0, q = 0;
    for (size_t i = 0; i < rows.size(); ++i) {
      if (!live[i]) continue;
      int64_t ship = std::get<int64_t>(rows[i].fields[kShipdate]);
      if (day >= 0 && (ship < kWindowStart + day * 86400LL ||
                       ship >= kWindowStart + (day + 1) * 86400LL)) {
        continue;
      }
      ++n;
      q += std::get<int64_t>(rows[i].fields[kQuantity]);
    }
    return std::make_pair(n, q);
  };
  // COUNT(*) / SUM(l_quantity) of the table (or one day) vs the shadow.
  auto check_totals = [&](int day, const char* after) {
    ledger.BeginExclude();
    sl::query::QuerySpec spec;
    if (day >= 0) {
      spec.where.Add(DayFrom(day));
      spec.where.Add(DayUntil(day));
    }
    spec.aggregates = {sl::query::AggregateSpec::CountStar("n"),
                       sl::query::AggregateSpec::Sum("l_quantity", "q")};
    auto r = table->Select(spec);
    auto [n, q] = shadow_totals(day);
    if (!r.ok() || r->rows.size() != 1 || CellInt(r->rows[0].fields[0]) != n ||
        (n > 0 && CellInt(r->rows[0].fields[1]) != q)) {
      out.Fail(std::string("COUNT/SUM differ from the shadow model after ") + after);
    }
    ledger.EndExclude();
  };

  sl::workload::TpchLineitemGenerator gen(
      sl::workload::TpchOptions{config.seed * 7 + 1, 1.0, 60000});
  // The query sequence is the same every run (fixed generator seed).
  sl::workload::TpchQueryGenerator tpch_gen(11);
  QueryBook queries;
  double utilization_sum = 0;
  uint64_t utilization_samples = 0, ingested = 0, batch_index = 0;

  // Loop-only insert figures: the set-up preload shares the call stats.
  const size_t base_inserts = rec.calls().at("Table::Insert").wall_ns.size();
  const double base_insert_s = rec.SumWall("Table::Insert", 1e9);
  const int64_t loop_start = WallNs();
  const int64_t loop_cpu_start = CpuNs();
  const int64_t deadline =
      loop_start + static_cast<int64_t>(config.seconds * 1e9);
  uint64_t round = 0;
  do {
    ++round;
    // Inputs of the round.
    std::vector<std::vector<Row>> batches(kBatchesPerRound);
    int hot_day = 0;
    for (auto& batch : batches) {
      hot_day = static_cast<int>(batch_index++ / kBatchesPerHotDay) % kDays;
      for (int i = 0; i < kBatchRows; ++i) {
        int day = rng.OneIn(10) ? (hot_day + kDays - 1) % kDays : hot_day;
        batch.push_back(make_row(&gen, day));
        user_bytes += UserBytes(schema, batch.back());
      }
    }
    const int warm_day = (hot_day + kDays - 1) % kDays;
    // A cold day for the round's DELETE / UPDATE.
    const int cold_day = (hot_day + 2 + static_cast<int>(ops.Uniform(kDays - 3))) % kDays;
    const int64_t max_quantity = 1 + static_cast<int64_t>(ops.Uniform(10));
    const double max_discount = 0.01 * static_cast<double>(ops.Uniform(3));
    const int64_t new_quantity = 1 + static_cast<int64_t>(ops.Uniform(50));

    rec.BeginRound();
    uint64_t plan_snapshot = 0;
    for (const auto& batch : batches) {
      ++out.attempted;
      auto info = rec.Call("Table::Info", "table", [&] { return table->Info(); });
      if (!info.ok()) {
        out.Fail("Info: " + info.status().ToString());
        break;
      }
      plan_snapshot = info->current_snapshot_id;
      ++out.attempted;
      sl::Status st = rec.Call("Table::Insert", "table", [&] { return table->Insert(batch); });
      if (!st.ok()) out.Fail("Insert: " + st.ToString());
      for (const Row& row : batch) {
        rows.push_back(row);
        live.push_back(1);
      }
      ingested += batch.size();
      lake->clock().AdvanceTo(lake->clock().NowNanos() +
                              static_cast<uint64_t>(kBatchRows / kRowsPerSimSecond * 1e9));
    }

    // The agent steps every partition, planning on the pre-ingest snapshot.
    ++out.attempted;
    auto files = rec.Call("Table::LiveFiles", "table", [&] { return table->LiveFiles(); });
    if (!files.ok()) out.Fail("LiveFiles: " + files.status().ToString());
    std::set<std::string> partitions;
    if (files.ok()) {
      for (const auto& f : *files) partitions.insert(f.partition);
    }
    sl::lakebrain::GlobalFeatures global;
    global.target_file_bytes = kTargetFileBytes;
    global.ingestion_files_per_sec = kRowsPerSimSecond / kBatchRows;
    global.concurrent_queries = kQueriesPerRound;
    for (const std::string& partition : partitions) {
      if (!out.correct) break;
      double access = partition == PartitionOf(hot_day)    ? 1.0
                      : partition == PartitionOf(warm_day) ? 0.5
                                                           : 0.05;
      ++out.attempted;
      auto decision = rec.Call("AutoCompactionAgent::Step", "lakebrain", [&] {
        return agent->Step(table, partition, global, access, plan_snapshot);
      });
      if (!decision.ok()) {
        out.Fail("Step: " + decision.status().ToString());
      } else if (decision->succeeded) {
        for (int day = 0; day < kDays; ++day) {
          if (PartitionOf(day) == partition) check_totals(day, "compaction");
        }
      }
    }

    // Merge-on-read DELETE and UPDATE of a cold day, on their periods.
    if (round % kDeleteEvery == 0 && out.correct) {
      sl::query::Conjunction where{DayFrom(cold_day), DayUntil(cold_day),
                                   sl::query::Predicate::Le("l_quantity",
                                                            Value(max_quantity))};
      ++out.attempted;
      auto deleted = rec.Call("Table::Delete", "table", [&] { return table->Delete(where); });
      int64_t expected = 0;
      for (size_t i = 0; i < rows.size(); ++i) {
        if (live[i] && NaiveMatches(where, schema, rows[i])) {
          live[i] = 0;
          ++expected;
        }
      }
      if (!deleted.ok()) {
        out.Fail("Delete: " + deleted.status().ToString());
      } else if (static_cast<int64_t>(*deleted) != expected) {
        out.Fail("DELETE affected rows differ from the shadow model");
      }
      check_totals(-1, "DELETE");
    }
    if (round % kUpdateEvery == kUpdateEvery / 2 && out.correct) {
      sl::query::Conjunction where{DayFrom(cold_day), DayUntil(cold_day),
                                   sl::query::Predicate::Le("l_discount",
                                                            Value(max_discount))};
      ++out.attempted;
      auto updated = rec.Call("Table::Update", "table", [&] {
        return table->Update(where, "l_quantity", Value(new_quantity));
      });
      int64_t expected = 0;
      for (size_t i = 0; i < rows.size(); ++i) {
        if (live[i] && NaiveMatches(where, schema, rows[i])) {
          rows[i].fields[kQuantity] = Value(new_quantity);
          ++expected;
        }
      }
      if (!updated.ok()) {
        out.Fail("Update: " + updated.status().ToString());
      } else if (static_cast<int64_t>(*updated) != expected) {
        out.Fail("UPDATE affected rows differ from the shadow model");
      }
      check_totals(-1, "UPDATE");
    }

    // TPC-H random-predicate queries over the live table.
    for (int q = 0; q < kQueriesPerRound && out.correct; ++q) {
      sl::query::QuerySpec spec = InWindow(tpch_gen.NextQuery());
      ++out.attempted;
      sl::table::SelectMetrics m;
      auto r = rec.Call("Table::Select.tpch", "table",
                        [&] { return table->Select(spec, {}, &m); });
      if (!r.ok()) {
        out.Fail("TPC-H Select: " + r.status().ToString());
        break;
      }
      queries.Add(m, r->rows.size(), rec.calls().at("Table::Select.tpch").wall_ns.back());
      ledger.BeginExclude();
      int64_t n = 0;
      for (size_t i = 0; i < rows.size(); ++i) {
        n += live[i] && NaiveMatches(spec.where, schema, rows[i]);
      }
      if (r->rows.size() != 1 || CellInt(r->rows[0].fields[0]) != n) {
        out.Fail("wrong TPC-H count");
      }
      ledger.EndExclude();
    }

    // MetaFresher flush every round; manifest rewrite + expiry on a long
    // period.
    ++out.attempted;
    sl::Status st = rec.Call("StreamLake::RunBackgroundWork", "core",
                             [&] { return lake->RunBackgroundWork(); });
    if (!st.ok()) out.Fail("RunBackgroundWork: " + st.ToString());
    if (round % kManifestEvery == 0 && out.correct) {
      out.attempted += 2;
      auto squashed = rec.Call("Table::RewriteManifest", "table",
                               [&] { return table->RewriteManifest(); });
      if (!squashed.ok()) out.Fail("RewriteManifest: " + squashed.status().ToString());
      int64_t before = static_cast<int64_t>(lake->clock().NowSeconds()) - 60;
      st = rec.Call("Table::ExpireSnapshots", "table",
                    [&] { return table->ExpireSnapshots(before); });
      if (!st.ok()) out.Fail("ExpireSnapshots: " + st.ToString());
    }

    // Block utilization of the live files (Section VI-A).
    ++out.attempted;
    auto after = rec.Call("Table::LiveFiles", "table", [&] { return table->LiveFiles(); });
    if (after.ok()) {
      std::vector<uint64_t> sizes;
      for (const auto& f : *after) sizes.push_back(f.file_bytes);
      utilization_sum += sl::lakebrain::BlockUtilization(sizes, kBlockSize);
      ++utilization_samples;
    } else {
      out.Fail("LiveFiles: " + after.status().ToString());
    }
    rec.EndRound();
  } while (WallNs() < deadline && out.correct);
  const double loop_wall_s = static_cast<double>(WallNs() - loop_start) / 1e9;
  const double loop_cpu_s = static_cast<double>(CpuNs() - loop_cpu_start) / 1e9;
  ledger.Stop();
  if (out.correct) check_totals(-1, "the run");

  // ---- metrics ----
  out.e2e["setup_s"] = Median(setup_walls);
  double insert_s = rec.SumWall("Table::Insert", 1e9) - base_insert_s;
  out.e2e["ingest_rows_per_s"] = insert_s > 0 ? ingested / insert_s : 0;
  queries.Fill(&out);
  out.e2e["stored_bytes_per_user_byte"] =
      static_cast<double>(lake->plogs().TotalLivePhysicalBytes()) / user_bytes;
  out.e2e["written_bytes_per_user_byte"] =
      ledger.Delta("storage.plog.append_bytes") / user_bytes;
  out.layer["bench.user_bytes"] = static_cast<double>(user_bytes);
  out.layer["table.insert_p50_ms"] = rec.P50("Table::Insert", 1e6);
  out.layer["table.insert_cpu_ms"] = rec.MeanCpu("Table::Insert", 1e6);
  const auto& insert_walls = rec.calls().at("Table::Insert").wall_ns;
  out.layer["table.insert_p99_ms"] =
      Quantile({insert_walls.begin() + base_inserts, insert_walls.end()}, 0.99) / 1e6;
  out.layer["table.live_files_p50_ms"] = rec.P50("Table::LiveFiles", 1e6);
  out.layer["table.delete_p50_ms"] = rec.P50("Table::Delete", 1e6);
  out.layer["table.update_p50_ms"] = rec.P50("Table::Update", 1e6);
  out.layer["table.rewrite_manifest_ms"] = rec.P50("Table::RewriteManifest", 1e6);
  out.layer["core.background_work_ms"] = rec.P50("StreamLake::RunBackgroundWork", 1e6);
  out.layer["query.tpch_p50_ms"] = rec.P50("Table::Select.tpch", 1e6);
  out.layer["lakebrain.step_p50_ms"] = rec.P50("AutoCompactionAgent::Step", 1e6);
  out.layer["lakebrain.block_utilization"] =
      utilization_samples > 0 ? utilization_sum / utilization_samples : 0;
  out.layer["lakebrain.utilization_samples"] = static_cast<double>(utilization_samples);
  FillCommonMetrics(rec, ledger, setup_cpu_s, setup_wall_s, loop_cpu_s,
                    loop_wall_s, &out);
  out.e2e["peak_rss_mb"] = PeakRssMb();
  if (config.trace) out.spans = rec.spans();
  return out;
}

}  // namespace slbench
