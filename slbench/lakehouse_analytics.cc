// lakehouse_analytics: read-mostly SQL over three tables. Set-up loads a
// province-partitioned DPI table (full width several times the 64 MiB
// block cache, narrow columns well under it), an unpartitioned TPC-H
// lineitem table and a small users dimension, then applies one late UPDATE
// so time travel has a past. Each round runs a fixed mix with seeded
// parameters: DAU, filtered COUNT, IN-list GROUP BY, a wide SELECT * point
// lookup, TPC-H random-predicate queries, a DPI JOIN users, an as-of read
// from before the update, and one small INSERT into users. After a fixed
// round PartitionAdvisor::Advise + Repartition learn from the TPC-H
// predicates seen so far; later TPC-H queries read the repartitioned table.
#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>

#include "common/random.h"
#include "core/streamlake.h"
#include "lakebrain/partition_advisor.h"
#include "workload/dpi_log.h"
#include "workload/tpch.h"
#include "workloads.h"

namespace slbench {

namespace sl = streamlake;
using sl::format::Row;
using sl::format::Value;

namespace {

// Canonical result: group key -> aggregate values (or row digests).
using Canon = std::map<std::string, std::vector<int64_t>>;

struct DpiShadow {
  int url;
  int province;
  int64_t start_time;
  int64_t user_id;
  int64_t bytes;     // at head (after the late update)
  int64_t bytes_before;
  uint64_t payload_hash;
};

const char* kTiers[] = {"bronze", "silver", "gold"};
constexpr const char* kLateProvince = "xizang";

std::string Quote(const std::string& s) { return "'" + s + "'"; }

// Result rows -> Canon: leading `keys` columns form the group key, the
// rest are integers.
Canon ToCanon(const sl::query::QueryResult& r, size_t keys) {
  Canon canon;
  for (const Row& row : r.rows) {
    std::string key;
    for (size_t i = 0; i < keys; ++i) {
      key += std::get<std::string>(row.fields[i]) + "|";
    }
    auto& values = canon[key];
    for (size_t i = keys; i < row.fields.size(); ++i) {
      values.push_back(CellInt(row.fields[i]));
    }
  }
  return canon;
}

}  // namespace

Outcome RunLakehouseAnalytics(const RunConfig& config) {
  const bool smoke = config.size == Size::kSmoke;
  const size_t kDpiRows = smoke ? 6000 : 200000;
  const size_t kDpiChunk = smoke ? 3000 : 25000;
  const uint64_t kLineitemRows = smoke ? 3000 : 60000;
  const int kUsers = 2000;
  const int kTpchPerRound = 4;
  const uint64_t kAdviseRound = smoke ? 2 : 12;
  // Event time of the late-updated rows: 40% of the first load chunk
  // (the generator advances 10 ms per row).
  const int64_t late_span = static_cast<int64_t>(kDpiChunk) / 250;
  const sl::format::Schema dpi_schema = sl::workload::DpiLogGenerator::Schema();
  const sl::format::Schema li_schema =
      sl::workload::TpchLineitemGenerator::Schema();
  const sl::format::Schema users_schema{{"user_id", sl::format::DataType::kInt64},
                                        {"tier", sl::format::DataType::kString},
                                        {"age", sl::format::DataType::kInt64}};

  Outcome out;
  Recorder rec(config.trace);
  CounterLedger ledger;
  std::unique_ptr<sl::core::StreamLake> lake;
  sl::core::StreamLakeOptions options;
  options.ssd_capacity_per_disk = 8ULL << 30;
  options.plog.plog.redundancy =
      sl::storage::RedundancyConfig::ErasureCoding(4, 1);
  sl::table::TableOptions li_options = options.table_options;
  const size_t kFileRows = 4096;
  li_options.max_rows_per_file = kFileRows;

  // ---- inputs (the benchmark's own work, outside set-up time) ----
  sl::workload::TpchOptions tpch_options;
  tpch_options.seed = config.seed;
  tpch_options.rows_per_sf = kLineitemRows;
  const std::vector<Row> lineitem =
      sl::workload::TpchLineitemGenerator(tpch_options).GenerateAll();
  std::vector<Row> users;
  sl::Random user_rng(config.seed * 31 + 5);
  std::vector<int> user_tier(kUsers);
  for (int u = 0; u < kUsers; ++u) {
    user_tier[u] = static_cast<int>(user_rng.Uniform(3));
    users.push_back(Row{{Value(int64_t{u}), Value(std::string(kTiers[user_tier[u]])),
                         Value(static_cast<int64_t>(18 + user_rng.Uniform(60)))}});
  }
  std::vector<DpiShadow> dpi;
  std::vector<std::string> urls, provinces;
  std::map<std::string, int> url_index, province_index;
  uint64_t user_bytes = 0;

  // ---- set-up, repeated; the last deployment is the one measured ----
  std::vector<double> setup_walls;
  double setup_cpu_s = 0, setup_wall_s = 0;
  int64_t as_of = 0;
  for (int rep = 0; rep < config.setup_reps && out.correct; ++rep) {
    lake.reset();
    ledger.Start();
    rec.BeginGroup("setup");
    const int64_t c0 = CpuNs();
    int64_t program_ns = 0;
    auto timed = [&](const char* name, const char* layer, auto&& f) {
      int64_t w0 = WallNs();
      auto r = rec.Call(name, layer, f);
      program_ns += WallNs() - w0;
      return r;
    };
    timed("core::StreamLake", "core", [&] {
      lake = std::make_unique<sl::core::StreamLake>(options);
      return 0;
    });
    auto& lh = lake->lakehouse();
    auto dpi_t = timed("LakehouseService::CreateTable", "table", [&] {
      return lh.CreateTable("dpi", dpi_schema,
                            sl::table::PartitionSpec::Identity("province"));
    });
    auto li_t = timed("LakehouseService::CreateTable", "table", [&] {
      return lh.CreateTable("lineitem", li_schema, sl::table::PartitionSpec::None(),
                            &li_options);
    });
    auto users_t = timed("LakehouseService::CreateTable", "table", [&] {
      return lh.CreateTable("users", users_schema, sl::table::PartitionSpec::None());
    });
    if (!dpi_t.ok() || !li_t.ok() || !users_t.ok()) {
      out.Fail("CreateTable failed");
      break;
    }
    sl::workload::DpiLogOptions dpi_options;
    dpi_options.seed = config.seed;
    sl::workload::DpiLogGenerator gen(dpi_options);
    uint64_t bytes_in = 0;
    for (size_t done = 0; done < kDpiRows && out.correct; done += kDpiChunk) {
      std::vector<Row> chunk = gen.NextBatch(kDpiChunk);
      for (const Row& row : chunk) {
        bytes_in += UserBytes(dpi_schema, row);
        if (rep > 0) continue;
        const std::string& url = std::get<std::string>(row.fields[0]);
        const std::string& province = std::get<std::string>(row.fields[2]);
        auto [u, new_url] = url_index.emplace(url, urls.size());
        if (new_url) urls.push_back(url);
        auto [p, new_province] = province_index.emplace(province, provinces.size());
        if (new_province) provinces.push_back(province);
        int64_t bytes = std::get<int64_t>(row.fields[4]);
        dpi.push_back({u->second, p->second, std::get<int64_t>(row.fields[1]),
                       std::get<int64_t>(row.fields[3]), bytes, bytes,
                       Fnv1a(std::get<std::string>(row.fields[5]))});
      }
      sl::Status st = timed("Table::Insert", "table",
                            [&] { return (*dpi_t)->Insert(chunk); });
      if (!st.ok()) out.Fail("DPI Insert: " + st.ToString());
    }
    for (const Row& row : lineitem) bytes_in += UserBytes(li_schema, row);
    for (const Row& row : users) bytes_in += UserBytes(users_schema, row);
    // One Insert per data file: several files of one partition written by
    // one call can collide on their path (see CHANGES.md).
    for (size_t i = 0; i < lineitem.size() && out.correct; i += kFileRows) {
      std::vector<Row> file(lineitem.begin() + i,
                            lineitem.begin() + std::min(lineitem.size(), i + kFileRows));
      sl::Status st = timed("Table::Insert", "table",
                            [&] { return (*li_t)->Insert(file); });
      if (!st.ok()) out.Fail("lineitem Insert: " + st.ToString());
    }
    sl::Status st = timed("Table::Insert", "table", [&] { return (*users_t)->Insert(users); });
    if (!st.ok()) out.Fail("users Insert: " + st.ToString());
    // The late UPDATE, an hour of simulated time after the load, of rows
    // from the first load chunk only (one rewritten file).
    const int64_t late_before = dpi.front().start_time + late_span;
    as_of = static_cast<int64_t>(lake->clock().NowSeconds()) + 1;
    lake->clock().AdvanceTo(lake->clock().NowNanos() + 3600ULL * 1000000000ULL);
    auto updated = timed("StreamLake::Query.update", "core", [&] {
      return lake->Query("UPDATE dpi SET bytes = 0 WHERE province = " +
                         Quote(kLateProvince) + " AND start_time < " +
                         std::to_string(late_before));
    });
    if (!updated.ok()) out.Fail("late UPDATE: " + updated.status().ToString());
    setup_wall_s = static_cast<double>(program_ns) / 1e9;
    setup_cpu_s = static_cast<double>(CpuNs() - c0) / 1e9;
    rec.EndGroup();
    setup_walls.push_back(setup_wall_s);
    user_bytes = bytes_in;
  }
  if (!out.correct) return out;
  int late = province_index.count(kLateProvince) ? province_index[kLateProvince] : -1;
  for (DpiShadow& r : dpi) {
    if (r.province == late && r.start_time < dpi.front().start_time + late_span) {
      r.bytes = 0;
    }
  }
  sl::table::Table* dpi_t = *lake->lakehouse().GetTable("dpi");
  sl::table::Table* tpch_t = *lake->lakehouse().GetTable("lineitem");
  sl::table::Table* source_t = tpch_t;

  // ---- naive evaluations over the generated rows ----
  const int fin = url_index.count(sl::workload::DpiLogGenerator::FinAppUrl())
                      ? url_index[sl::workload::DpiLogGenerator::FinAppUrl()]
                      : -1;
  const int64_t t0 = dpi.front().start_time, t1 = dpi.back().start_time;
  // Provinces and urls ranked by frequency, for parameter choice.
  auto ranked = [](const std::vector<DpiShadow>& rows, bool by_url, size_t n) {
    std::map<int, int64_t> freq;
    for (const auto& r : rows) ++freq[by_url ? r.url : r.province];
    std::vector<std::pair<int64_t, int>> order;
    for (auto [k, c] : freq) order.emplace_back(-c, k);
    std::sort(order.begin(), order.end());
    std::vector<int> top;
    for (size_t i = 0; i < order.size() && i < n; ++i) top.push_back(order[i].second);
    return top;
  };
  const std::vector<int> top_provinces = ranked(dpi, false, 8);
  // Check indexes: rows by (province, user) and per-url totals at head.
  std::map<std::pair<int, int64_t>, std::vector<size_t>> by_user;
  std::vector<std::array<int64_t, 2>> url_totals(urls.size(), {0, 0});
  std::vector<std::vector<size_t>> province_rows(top_provinces.size());
  for (size_t i = 0; i < dpi.size(); ++i) {
    by_user[{dpi[i].province, dpi[i].user_id}].push_back(i);
    for (size_t k = 0; k < top_provinces.size(); ++k) {
      if (dpi[i].province == top_provinces[k]) province_rows[k].push_back(i);
    }
    ++url_totals[dpi[i].url][0];
    url_totals[dpi[i].url][1] += dpi[i].bytes;
  }
  const std::vector<int> top_urls = ranked(dpi, true, 16);

  // Query parameters cycle with the round number and come from fixed
  // streams, so every run replays the same query sequence; only the rows
  // depend on the seed.
  sl::Random rng(7919);
  sl::workload::TpchQueryGenerator tpch_gen(11);
  std::unordered_map<std::string, Canon> memo;
  std::vector<sl::query::QuerySpec> tpch_specs;
  const std::map<std::string, const sl::format::Schema*> schemas = {
      {"dpi", &dpi_schema}, {"lineitem", &li_schema}, {"users", &users_schema}};
  std::set<std::string> planned;
  QueryBook queries;
  double tpch_scanned[2] = {0, 0}, tpch_skipped[2] = {0, 0};
  int64_t next_user = 1000000;
  uint64_t inserted_rows = 0;

  // Run one SQL SELECT, account it, check it against `expected`.
  auto sql_query = [&](const char* name, const std::string& sql, size_t keys,
                       const std::function<Canon()>& expected) {
    ++out.attempted;
    sl::table::SelectMetrics m;
    auto r = rec.Call(name, "core", [&] { return lake->Query(sql, &m); });
    if (!r.ok()) {
      out.Fail(sql + ": " + r.status().ToString());
      return;
    }
    queries.Add(m, r->rows.size(), rec.calls().at(name).wall_ns.back());
    ledger.BeginExclude();
    auto it = memo.find(sql);
    if (it == memo.end()) it = memo.emplace(sql, expected()).first;
    if (ToCanon(*r, keys) != it->second) out.Fail("wrong result: " + sql);
    ledger.EndExclude();
    if (config.trace && planned.insert(sql).second) {
      ParseAndPlan(&rec, sql, schemas, &out);
    }
  };
  auto tpch_expected = [&](const sl::query::Conjunction& where) {
    std::vector<std::pair<int, const sl::query::Predicate*>> terms;
    for (const auto& p : where.predicates()) {
      terms.emplace_back(li_schema.FieldIndex(p.column), &p);
    }
    int64_t n = 0;
    for (const Row& row : lineitem) {
      bool match = true;
      for (const auto& [index, p] : terms) {
        if (index < 0 || !NaiveHolds(*p, row.fields[index])) {
          match = false;
          break;
        }
      }
      n += match;
    }
    return n;
  };

  const int64_t loop_start = WallNs();
  const int64_t loop_cpu_start = CpuNs();
  const int64_t deadline =
      loop_start + static_cast<int64_t>(config.seconds * 1e9);
  uint64_t round = 0;
  // Whole rounds until the deadline, and at least through the advise round.
  do {
    ++round;
    rec.BeginRound();
    // DAU over one of eight event-time windows.
    {
      int64_t span = std::max<int64_t>((t1 - t0) / 4, 1);
      int64_t lo = t0 + static_cast<int64_t>(round % 8) * span / 2;
      int64_t hi = lo + span;
      std::string sql = "SELECT province, COUNT(*) AS dau FROM dpi WHERE url = " +
                        Quote(sl::workload::DpiLogGenerator::FinAppUrl()) +
                        " AND start_time >= " + std::to_string(lo) +
                        " AND start_time <= " + std::to_string(hi) +
                        " GROUP BY province";
      sql_query("StreamLake::Query.dau", sql, 1, [&] {
        Canon c;
        for (const auto& r : dpi) {
          if (r.url == fin && r.start_time >= lo && r.start_time <= hi) {
            auto& v = c[provinces[r.province] + "|"];
            if (v.empty()) v.push_back(0);
            ++v[0];
          }
        }
        return c;
      });
    }
    // Filtered COUNT.
    {
      int p = top_provinces[(round * 3) % top_provinces.size()];
      int64_t min_bytes = 200 + 500 * static_cast<int64_t>(round % 3);
      std::string sql = "SELECT COUNT(*) AS n FROM dpi WHERE province = " +
                        Quote(provinces[p]) + " AND bytes >= " +
                        std::to_string(min_bytes);
      sql_query("StreamLake::Query.filter_count", sql, 0, [&] {
        int64_t n = 0;
        for (const auto& r : dpi) n += r.province == p && r.bytes >= min_bytes;
        return Canon{{"", {n}}};
      });
    }
    // IN-list GROUP BY.
    {
      std::set<int> chosen;
      for (size_t k : {round, round + 5, round + 11}) {
        chosen.insert(top_urls[k % top_urls.size()]);
      }
      std::string list;
      for (int u : chosen) list += (list.empty() ? "" : ", ") + Quote(urls[u]);
      std::string sql = "SELECT url, COUNT(*) AS n, SUM(bytes) AS b FROM dpi "
                        "WHERE url IN (" + list + ") GROUP BY url";
      sql_query("StreamLake::Query.group_in", sql, 1, [&] {
        Canon c;
        for (int u : chosen) {
          c[urls[u] + "|"] = {url_totals[u][0], url_totals[u][1]};
        }
        return c;
      });
    }
    // Wide SELECT * point lookup of one (province, user).
    {
      const std::vector<size_t>& rows_of = province_rows[round % top_provinces.size()];
      const DpiShadow& pick = dpi[rows_of[rng.Uniform(rows_of.size())]];
      std::string sql = "SELECT * FROM dpi WHERE province = " +
                        Quote(provinces[pick.province]) +
                        " AND user_id = " + std::to_string(pick.user_id);
      ++out.attempted;
      sl::table::SelectMetrics m;
      auto r = rec.Call("StreamLake::Query.point_wide", "core",
                        [&] { return lake->Query(sql, &m); });
      if (!r.ok()) {
        out.Fail(sql + ": " + r.status().ToString());
      } else {
        queries.Add(m, r->rows.size(),
                    rec.calls().at("StreamLake::Query.point_wide").wall_ns.back());
        ledger.BeginExclude();
        std::multiset<std::string> got, want;
        for (const Row& row : r->rows) {
          got.insert(std::get<std::string>(row.fields[0]) + "|" +
                     std::to_string(std::get<int64_t>(row.fields[1])) + "|" +
                     std::to_string(std::get<int64_t>(row.fields[4])) + "|" +
                     std::to_string(Fnv1a(std::get<std::string>(row.fields[5]))));
        }
        for (size_t i : by_user[{pick.province, pick.user_id}]) {
          const DpiShadow& s = dpi[i];
          {
            want.insert(urls[s.url] + "|" + std::to_string(s.start_time) + "|" +
                        std::to_string(s.bytes) + "|" +
                        std::to_string(s.payload_hash));
          }
        }
        if (got != want) out.Fail("wrong result: " + sql);
        ledger.EndExclude();
        if (config.trace && planned.insert(sql).second) {
          ParseAndPlan(&rec, sql, schemas, &out);
        }
      }
    }
    // TPC-H random-predicate queries (Fig. 16b).
    for (int q = 0; q < kTpchPerRound && out.correct; ++q) {
      sl::query::QuerySpec spec = tpch_gen.NextQuery();
      ++out.attempted;
      sl::table::SelectMetrics m;
      auto r = rec.Call("Table::Select.tpch", "table",
                        [&] { return tpch_t->Select(spec, {}, &m); });
      if (!r.ok()) {
        out.Fail("TPC-H Select: " + r.status().ToString());
        break;
      }
      queries.Add(m, r->rows.size(),
                  rec.calls().at("Table::Select.tpch").wall_ns.back());
      int after = tpch_t != source_t;
      tpch_scanned[after] += static_cast<double>(m.files_scanned);
      tpch_skipped[after] += static_cast<double>(m.files_skipped);
      ledger.BeginExclude();
      if (r->rows.size() != 1 ||
          CellInt(r->rows[0].fields[0]) != tpch_expected(spec.where)) {
        out.Fail("wrong TPC-H count");
      }
      ledger.EndExclude();
      if (round <= kAdviseRound) tpch_specs.push_back(spec);
    }
    // DPI JOIN users.
    {
      int p = top_provinces[(round * 5) % top_provinces.size()];
      std::string sql = "SELECT u.tier, COUNT(*) AS c, SUM(d.bytes) AS b "
                        "FROM dpi d JOIN users u ON d.user_id = u.user_id "
                        "WHERE d.province = " + Quote(provinces[p]) +
                        " GROUP BY u.tier";
      sql_query("StreamLake::Query.join", sql, 1, [&] {
        Canon c;
        for (const auto& r : dpi) {
          if (r.province != p || r.user_id >= kUsers) continue;
          auto& v = c[std::string(kTiers[user_tier[r.user_id]]) + "|"];
          if (v.empty()) v = {0, 0};
          ++v[0];
          v[1] += r.bytes;
        }
        return c;
      });
    }
    // As-of read from before the late update.
    {
      int u = top_urls[(round * 7) % top_urls.size()];
      sl::query::QuerySpec spec;
      spec.where.Add(sl::query::Predicate::Eq("province", Value(std::string(kLateProvince))));
      spec.where.Add(sl::query::Predicate::Eq("url", Value(urls[u])));
      spec.aggregates = {sl::query::AggregateSpec::CountStar("n"),
                         sl::query::AggregateSpec::Sum("bytes", "b")};
      sl::table::SelectOptions select_options;
      select_options.as_of_timestamp = as_of;
      ++out.attempted;
      sl::table::SelectMetrics m;
      auto r = rec.Call("Table::Select.time_travel", "table", [&] {
        return dpi_t->Select(spec, select_options, &m);
      });
      if (!r.ok()) {
        out.Fail("as-of Select: " + r.status().ToString());
      } else {
        queries.Add(m, r->rows.size(),
                    rec.calls().at("Table::Select.time_travel").wall_ns.back());
        ledger.BeginExclude();
        int64_t n = 0, b = 0;
        for (const auto& s : dpi) {
          if (s.province == late && s.url == u) {
            ++n;
            b += s.bytes_before;
          }
        }
        bool ok = r->rows.size() == 1 && CellInt(r->rows[0].fields[0]) == n &&
                  (n == 0 || CellInt(r->rows[0].fields[1]) == b);
        if (!ok) out.Fail("wrong as-of result");
        ledger.EndExclude();
      }
    }
    // A trickle of new users (ids outside the DPI range: joins unchanged).
    {
      std::string sql = "INSERT INTO users VALUES ";
      std::vector<Row> rows;
      for (int i = 0; i < 5; ++i) {
        int64_t id = next_user++;
        std::string tier = kTiers[rng.Uniform(3)];
        int64_t age = 18 + static_cast<int64_t>(rng.Uniform(60));
        sql += (i ? ", (" : "(") + std::to_string(id) + ", " + Quote(tier) + ", " +
               std::to_string(age) + ")";
        rows.push_back(Row{{Value(id), Value(tier), Value(age)}});
      }
      ++out.attempted;
      auto r = rec.Call("StreamLake::Query.insert", "core",
                        [&] { return lake->Query(sql); });
      if (!r.ok()) out.Fail("INSERT users: " + r.status().ToString());
      for (const Row& row : rows) user_bytes += UserBytes(users_schema, row);
      inserted_rows += rows.size();
    }
    rec.EndRound();
    // Midway, between rounds: learn a partitioning from the TPC-H
    // predicates seen so far.
    if (round == kAdviseRound && out.correct) {
      sl::lakebrain::PartitionAdvisor::Options advisor_options;
      advisor_options.tree.min_partition_rows = kLineitemRows / 64 + 1;
      advisor_options.tree.max_leaves = 32;
      sl::lakebrain::PartitionAdvisor advisor(advisor_options);
      out.attempted += 2;
      std::vector<sl::query::Conjunction> predicates;
      for (const auto& spec : tpch_specs) predicates.push_back(spec.where);
      auto plan = rec.Call("PartitionAdvisor::Advise", "lakebrain",
                           [&] { return advisor.Advise(source_t, predicates); });
      if (!plan.ok()) {
        out.Fail("Advise: " + plan.status().ToString());
      } else {
        auto moved = rec.Call("PartitionAdvisor::Repartition", "lakebrain", [&] {
          return advisor.Repartition(&lake->lakehouse(), source_t, "lineitem_qd",
                                     *plan);
        });
        if (!moved.ok()) {
          out.Fail("Repartition: " + moved.status().ToString());
        } else {
          tpch_t = *lake->lakehouse().GetTable("lineitem_qd");
        }
      }
    }
    if (round == kAdviseRound && out.correct) {
      // The repartitioned table answers every TPC-H query seen so far
      // exactly like the source table.
      ledger.BeginExclude();
      for (const auto& spec : tpch_specs) {
        auto a = source_t->Select(spec);
        auto b = tpch_t->Select(spec);
        if (!a.ok() || !b.ok() || a->rows != b->rows) {
          out.Fail("repartitioned lineitem answers differ from the source");
          break;
        }
      }
      ledger.EndExclude();
    }
  } while ((WallNs() < deadline || round < kAdviseRound) && out.correct);
  const double loop_wall_s = static_cast<double>(WallNs() - loop_start) / 1e9;
  const double loop_cpu_s = static_cast<double>(CpuNs() - loop_cpu_start) / 1e9;
  ledger.Stop();

  // ---- metrics ----
  out.e2e["setup_s"] = Median(setup_walls);
  double insert_s = rec.SumWall("StreamLake::Query.insert", 1e9);
  out.e2e["ingest_rows_per_s"] = insert_s > 0 ? inserted_rows / insert_s : 0;
  queries.Fill(&out);
  out.e2e["stored_bytes_per_user_byte"] =
      static_cast<double>(lake->plogs().TotalLivePhysicalBytes()) / user_bytes;
  out.e2e["written_bytes_per_user_byte"] =
      ledger.Delta("storage.plog.append_bytes") / user_bytes;
  out.layer["bench.user_bytes"] = static_cast<double>(user_bytes);
  out.layer["table.insert_p50_ms"] = rec.P50("Table::Insert", 1e6);
  out.layer["table.insert_cpu_ms"] = rec.MeanCpu("Table::Insert", 1e6);
  out.layer["query.dau_p50_ms"] = rec.P50("StreamLake::Query.dau", 1e6);
  out.layer["query.filter_count_p50_ms"] =
      rec.P50("StreamLake::Query.filter_count", 1e6);
  out.layer["query.group_in_p50_ms"] = rec.P50("StreamLake::Query.group_in", 1e6);
  out.layer["query.point_wide_p50_ms"] =
      rec.P50("StreamLake::Query.point_wide", 1e6);
  out.layer["query.tpch_p50_ms"] = rec.P50("Table::Select.tpch", 1e6);
  out.layer["query.join_p50_ms"] = rec.P50("StreamLake::Query.join", 1e6);
  out.layer["query.time_travel_p50_ms"] = rec.P50("Table::Select.time_travel", 1e6);
  out.layer["query.parse_p50_us"] = rec.P50("query::ParseSql", 1e3);
  out.layer["query.plan_p50_us"] = rec.P50("query::PlanSelect", 1e3);
  out.layer["lakebrain.advise_ms"] = rec.SumWall("PartitionAdvisor::Advise", 1e6);
  out.layer["lakebrain.repartition_ms"] =
      rec.SumWall("PartitionAdvisor::Repartition", 1e6);
  for (int after = 0; after < 2; ++after) {
    double considered = tpch_scanned[after] + tpch_skipped[after];
    std::string suffix = after ? "_after" : "_before";
    out.layer["lakebrain.tpch_files_considered" + suffix] = considered;
    out.layer["lakebrain.tpch_files_skipped_ratio" + suffix] =
        considered > 0 ? tpch_skipped[after] / considered : 0;
  }
  FillCommonMetrics(rec, ledger, setup_cpu_s, setup_wall_s, loop_cpu_s,
                    loop_wall_s, &out);
  out.e2e["peak_rss_mb"] = PeakRssMb();
  if (config.trace) out.spans = rec.spans();
  return out;
}

}  // namespace slbench
