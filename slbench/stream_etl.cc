// stream_etl: the Table I / Fig. 12 pipeline. Each round a producer sends
// keyed 1.2 KB DPI messages into a 3-stream topic (convert_2_table by
// province, delete_msg, EC(4,1)), a live consumer group polls until it has
// caught up, the conversion service turns the stream tail into table files
// and trims it, the Fig. 13 DAU query reads the round's time window, the
// MetaFresher flushes, and a lagging consumer group polls once.
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "core/streamlake.h"
#include "format/row_codec.h"
#include "workload/dpi_log.h"
#include "workloads.h"

namespace slbench {

namespace sl = streamlake;
using sl::format::Row;

namespace {

constexpr const char* kTopic = "collect";
constexpr const char* kTable = "dpi";

// Members are destroyed bottom-up: clients before the deployment.
struct Deployment {
  std::unique_ptr<sl::core::StreamLake> lake;
  std::optional<sl::streaming::Producer> producer;
  std::optional<sl::streaming::Consumer> live;
  std::optional<sl::streaming::Consumer> lagging;
};

// Order-independent digest of a message multiset.
struct Digest {
  uint64_t count = 0, sum = 0, xor_ = 0;
  void Add(const sl::streaming::Message& m) {
    uint64_t h = Fnv1a(m.value, Fnv1a(m.key));
    h ^= static_cast<uint64_t>(m.timestamp) * 0x9E3779B97F4A7C15ULL;
    ++count;
    sum += h;
    xor_ ^= h * 0xBF58476D1CE4E5B9ULL;
  }
  bool operator==(const Digest& o) const {
    return count == o.count && sum == o.sum && xor_ == o.xor_;
  }
};

std::string DauSql(int64_t lo, int64_t hi) {
  std::string sql = "SELECT province, COUNT(*) AS dau FROM dpi WHERE url = '" +
                    std::string(sl::workload::DpiLogGenerator::FinAppUrl()) +
                    "'";
  if (lo >= 0) {
    sql += " AND start_time >= " + std::to_string(lo) +
           " AND start_time <= " + std::to_string(hi);
  }
  return sql + " GROUP BY province";
}

}  // namespace

Outcome RunStreamEtl(const RunConfig& config) {
  const bool smoke = config.size == Size::kSmoke;
  const size_t kMsgsPerBatch = 100;
  const size_t kBatchesPerRound = 10;
  const size_t kBacklogBatches = smoke ? 2 : 50;
  const sl::format::Schema schema = sl::workload::DpiLogGenerator::Schema();

  Outcome out;
  Recorder rec(config.trace);
  CounterLedger ledger;
  Deployment dep;

  sl::core::StreamLakeOptions options;
  options.ssd_capacity_per_disk = 8ULL << 30;
  options.plog.plog.redundancy =
      sl::storage::RedundancyConfig::ErasureCoding(4, 1);
  sl::streaming::TopicConfig topic;
  topic.stream_num = 3;
  topic.convert_2_table.enabled = true;
  topic.convert_2_table.table_schema = schema;
  topic.convert_2_table.table_path = kTable;
  topic.convert_2_table.partition_spec =
      sl::table::PartitionSpec::Identity("province");
  topic.convert_2_table.split_offset = 1;
  topic.convert_2_table.delete_msg = true;

  // ---- inputs: the generator and the shadow of what was sent ----
  sl::workload::DpiLogOptions gen_options;
  gen_options.seed = config.seed;
  sl::workload::DpiLogGenerator gen(gen_options);
  const std::string fin_url = sl::workload::DpiLogGenerator::FinAppUrl();
  std::map<std::string, int> province_index;
  std::vector<std::string> provinces;
  // (start_time, province) of every produced fin-app row, in time order.
  std::vector<std::pair<int64_t, int>> fin_rows;
  Digest sent, received;
  uint64_t user_bytes = 0, produced = 0, converted = 0;
  std::set<std::string> planned;
  const std::map<std::string, const sl::format::Schema*> schemas = {
      {kTable, &schema}};
  QueryBook queries;
  // Messages of `batches` x kMsgsPerBatch, recorded in the shadow.
  // Returns the event-time range of the rows.
  auto make_batches = [&](size_t count,
                          std::vector<std::vector<sl::streaming::Message>>* out_batches) {
    out_batches->assign(count, {});
    int64_t lo = -1, hi = 0;
    for (auto& batch : *out_batches) {
      for (size_t i = 0; i < kMsgsPerBatch; ++i) {
        Row row = gen.NextRow();
        sl::Bytes value;
        sl::format::EncodeRow(schema, row, &value);
        const std::string& province = std::get<std::string>(row.fields[2]);
        int64_t ts = std::get<int64_t>(row.fields[1]);
        if (lo < 0) lo = ts;
        hi = ts;
        if (std::get<std::string>(row.fields[0]) == fin_url) {
          auto [it, added] = province_index.emplace(province, provinces.size());
          if (added) provinces.push_back(province);
          fin_rows.emplace_back(ts, it->second);
        }
        batch.emplace_back(province, sl::BytesToString(value), ts);
        sent.Add(batch.back());
        user_bytes += batch.back().ByteSize();
      }
    }
    return std::make_pair(lo, hi);
  };
  // Produce `batches`, let the live group catch up, convert: the work of
  // one round and of the set-up backlog.
  auto produce = [&](const std::vector<std::vector<sl::streaming::Message>>& batches) {
    for (const auto& batch : batches) {
      sl::Status st = rec.Call("Producer::SendBatch", "streaming", [&] {
        return dep.producer->SendBatch(kTopic, batch);
      });
      ++out.attempted;
      if (!st.ok()) out.Fail("SendBatch: " + st.ToString());
      produced += batch.size();
    }
  };
  auto catch_up = [&] {
    ++out.attempted;
    int empty_polls = 0;
    while (received.count < produced && out.correct) {
      auto polled = rec.Call("Consumer::Poll", "streaming",
                             [&] { return dep.live->Poll(1024); });
      if (!polled.ok()) {
        out.Fail("live Poll: " + polled.status().ToString());
        break;
      }
      if (polled->empty() && ++empty_polls > 1000) {
        out.Fail("live group cannot catch up");
      }
      for (const auto& consumed : *polled) received.Add(consumed.message);
    }
  };
  auto convert = [&] {
    ++out.attempted;
    auto run = rec.Call("ConversionService::Run", "convert",
                        [&] { return dep.lake->converter().Run(kTopic, true); });
    if (!run.ok()) {
      out.Fail("ConversionService::Run: " + run.status().ToString());
    } else {
      converted += run->converted_records;
      if (run->parse_errors != 0) out.Fail("conversion parse errors");
    }
  };
  std::vector<std::vector<sl::streaming::Message>> backlog;
  make_batches(kBacklogBatches, &backlog);

  // ---- set-up, repeated; the last deployment is the one measured: the
  // deployment, the topic, both consumer groups and a converted backlog ----
  std::vector<double> setup_walls;
  double setup_cpu_s = 0, setup_wall_s = 0;
  for (int rep = 0; rep < config.setup_reps; ++rep) {
    dep.lagging.reset();
    dep.live.reset();
    dep.producer.reset();
    dep.lake.reset();
    ledger.Start();
    rec.BeginGroup("setup");
    int64_t w0 = WallNs(), c0 = CpuNs();
    rec.Call("core::StreamLake", "core", [&] {
      dep.lake = std::make_unique<sl::core::StreamLake>(options);
      return 0;
    });
    sl::Status st = rec.Call("StreamDispatcher::CreateTopic", "streaming", [&] {
      return dep.lake->dispatcher().CreateTopic(kTopic, topic);
    });
    if (!st.ok()) out.Fail("CreateTopic: " + st.ToString());
    dep.producer.emplace(dep.lake->NewProducer());
    dep.live.emplace(dep.lake->NewConsumer("live"));
    dep.lagging.emplace(dep.lake->NewConsumer("lagging"));
    for (auto* consumer : {&*dep.live, &*dep.lagging}) {
      st = rec.Call("Consumer::Subscribe", "streaming",
                    [&] { return consumer->Subscribe(kTopic); });
      if (!st.ok()) out.Fail("Subscribe: " + st.ToString());
    }
    received = Digest();
    produced = converted = 0;
    out.attempted = 0;
    produce(backlog);
    catch_up();
    convert();
    setup_wall_s = static_cast<double>(WallNs() - w0) / 1e9;
    setup_cpu_s = static_cast<double>(CpuNs() - c0) / 1e9;
    rec.EndGroup();
    setup_walls.push_back(setup_wall_s);
  }
  if (!out.correct) return out;
  sl::core::StreamLake& lake = *dep.lake;
  out.attempted = 0;  // the loop's operations only
  // Rates below are over the loop: subtract the set-up backlog.
  const double base_produced = produced, base_received = received.count,
               base_converted = converted;
  const double base_send_s = rec.SumWall("Producer::SendBatch", 1e9),
               base_poll_s = rec.SumWall("Consumer::Poll", 1e9),
               base_convert_s = rec.SumWall("ConversionService::Run", 1e9);

  // ---- the measured loop ----
  const int64_t loop_start = WallNs();
  const int64_t loop_cpu_start = CpuNs();
  const int64_t deadline =
      loop_start + static_cast<int64_t>(config.seconds * 1e9);
  do {
    // Inputs of the round (the benchmark's own work, outside any span).
    std::vector<std::vector<sl::streaming::Message>> batches;
    auto [round_lo, round_hi] = make_batches(kBatchesPerRound, &batches);

    rec.BeginRound();
    produce(batches);   // 1. produce
    catch_up();         // 2. the live group catches up
    convert();          // 3. stream -> table, trimming the converted tail
    // 4. the Fig. 13 DAU query over the round's event-time window.
    ++out.attempted;
    const std::string sql = DauSql(round_lo, round_hi);
    sl::table::SelectMetrics metrics;
    auto dau = rec.Call("StreamLake::Query.dau", "core",
                        [&] { return lake.Query(sql, &metrics); });
    if (!dau.ok()) {
      out.Fail("DAU query: " + dau.status().ToString());
    } else {
      queries.Add(metrics, dau->rows.size(),
                  rec.calls().at("StreamLake::Query.dau").wall_ns.back());
    }
    // 5. MetaFresher flush.
    ++out.attempted;
    sl::Status bg = rec.Call("StreamLake::RunBackgroundWork", "core",
                             [&] { return lake.RunBackgroundWork(); });
    if (!bg.ok()) out.Fail("RunBackgroundWork: " + bg.ToString());
    // 6. the lagging group polls once. Its position is below the trim
    // point of the conversion above, so the read fails.
    ++out.attempted;
    auto lag = rec.Call("Consumer::Poll.lagging", "streaming",
                        [&] { return dep.lagging->Poll(100); });
    if (!lag.ok()) ++out.failed;
    rec.EndRound();

    // Checks of the round (the benchmark's own work).
    ledger.BeginExclude();
    if (!(received == sent)) out.Fail("live group multiset differs from sent");
    if (converted != produced) out.Fail("converted rows != produced messages");
    if (dau.ok()) {
      std::map<std::string, int64_t> expected, got;
      auto first = std::lower_bound(
          fin_rows.begin(), fin_rows.end(), std::make_pair(round_lo, -1));
      for (auto it = first; it != fin_rows.end() && it->first <= round_hi; ++it) {
        ++expected[provinces[it->second]];
      }
      for (const Row& row : dau->rows) {
        got[std::get<std::string>(row.fields[0])] = CellInt(row.fields[1]);
      }
      if (got != expected) out.Fail("DAU counts differ from the generated rows");
    }
    if (config.trace && planned.insert(sql).second) {
      ParseAndPlan(&rec, sql, schemas, &out);
    }
    ledger.EndExclude();
  } while (WallNs() < deadline && out.correct);
  const double loop_wall_s = static_cast<double>(WallNs() - loop_start) / 1e9;
  const double loop_cpu_s = static_cast<double>(CpuNs() - loop_cpu_start) / 1e9;
  ledger.Stop();

  // ---- whole-run checks: COUNT(*) and the full DAU ----
  auto count = lake.Query("SELECT COUNT(*) AS n FROM dpi");
  if (!count.ok() || count->rows.size() != 1 ||
      CellInt(count->rows[0].fields[0]) != static_cast<int64_t>(produced)) {
    out.Fail("converted table COUNT(*) != messages produced");
  }
  auto full = lake.Query(DauSql(-1, 0));
  std::map<std::string, int64_t> expected, got;
  for (const auto& [ts, p] : fin_rows) ++expected[provinces[p]];
  if (full.ok()) {
    for (const Row& row : full->rows) {
      got[std::get<std::string>(row.fields[0])] = CellInt(row.fields[1]);
    }
  }
  if (!full.ok() || got != expected) out.Fail("full DAU differs from inputs");

  // ---- metrics ----
  out.e2e["setup_s"] = Median(setup_walls);
  double send_s = rec.SumWall("Producer::SendBatch", 1e9) - base_send_s;
  out.e2e["ingest_rows_per_s"] = send_s > 0 ? (produced - base_produced) / send_s : 0;
  queries.Fill(&out);
  out.e2e["stored_bytes_per_user_byte"] =
      static_cast<double>(lake.plogs().TotalLivePhysicalBytes()) / user_bytes;
  out.e2e["written_bytes_per_user_byte"] =
      ledger.Delta("storage.plog.append_bytes") / user_bytes;
  out.layer["bench.user_bytes"] = static_cast<double>(user_bytes);
  out.layer["streaming.produce_msgs_per_s"] = out.e2e["ingest_rows_per_s"];
  double poll_s = rec.SumWall("Consumer::Poll", 1e9) - base_poll_s;
  out.layer["streaming.consume_msgs_per_s"] =
      poll_s > 0 ? (received.count - base_received) / poll_s : 0;
  out.layer["streaming.send_batch_p50_us"] = rec.P50("Producer::SendBatch", 1e3);
  out.layer["streaming.send_batch_cpu_us"] =
      rec.MeanCpu("Producer::SendBatch", 1e3);
  out.layer["streaming.poll_p50_us"] = rec.P50("Consumer::Poll", 1e3);
  double convert_s = rec.SumWall("ConversionService::Run", 1e9) - base_convert_s;
  out.layer["convert.rows_per_s"] =
      convert_s > 0 ? (converted - base_converted) / convert_s : 0;
  out.layer["convert.run_ms"] = rec.P50("ConversionService::Run", 1e6);
  out.layer["convert.run_cpu_ms"] = rec.MeanCpu("ConversionService::Run", 1e6);
  out.layer["query.dau_p50_ms"] = rec.P50("StreamLake::Query.dau", 1e6);
  out.layer["core.background_work_ms"] =
      rec.P50("StreamLake::RunBackgroundWork", 1e6);
  out.layer["query.parse_p50_us"] = rec.P50("query::ParseSql", 1e3);
  out.layer["query.plan_p50_us"] = rec.P50("query::PlanSelect", 1e3);
  FillCommonMetrics(rec, ledger, setup_cpu_s, setup_wall_s, loop_cpu_s,
                    loop_wall_s, &out);
  out.e2e["peak_rss_mb"] = PeakRssMb();
  if (config.trace) out.spans = rec.spans();
  return out;
}

}  // namespace slbench
