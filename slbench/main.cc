// StreamLake end-to-end benchmark driver.
//
//   slbench --workload stream_etl|lakehouse_analytics|table_churn
//           --seed N --seconds S --trace 0|1 [--size full|smoke]
//           [--spans PATH]
//
// Prints a human-readable summary, then as the last line of stdout one
// JSON object {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics; traced runs run the workload twice for
// S/2 seconds each (untraced, then traced), report the per-layer metrics
// of the traced half and the tracing overhead (traced minus untraced).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace slbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (the smoke test checks it).
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"ingest_rows_per_s", "rows/s"},
    {"round_ms", "ms"},
    {"cpu_ms_per_round", "ms"},
    {"query_p50_ms", "ms"},
    {"query_sim_ms", "ms"},
    {"stored_bytes_per_user_byte", "B/B"},
    {"written_bytes_per_user_byte", "B/B"},
};

const MetricDef kPerLayer[] = {
    {"streaming.produce_msgs_per_s", "msg/s"},
    {"streaming.consume_msgs_per_s", "msg/s"},
    {"streaming.send_batch_p50_us", "us"},
    {"streaming.send_batch_cpu_us", "us"},
    {"streaming.poll_p50_us", "us"},
    {"stream.slices_persisted", "count"},
    {"storage.plog_append_bytes", "bytes"},
    {"storage.plog_append_ops", "count"},
    {"storage.plog_read_bytes", "bytes"},
    {"storage.stripe_contention", "count"},
    {"convert.rows_per_s", "rows/s"},
    {"convert.run_ms", "ms"},
    {"convert.run_cpu_ms", "ms"},
    {"kv.write_bytes", "bytes"},
    {"kv.get_ops", "count"},
    {"table.insert_p50_ms", "ms"},
    {"table.insert_p99_ms", "ms"},
    {"table.insert_cpu_ms", "ms"},
    {"table.live_files_p50_ms", "ms"},
    {"table.metadata_reads", "count"},
    {"table.metadata_small_ios", "count"},
    {"table.metadata_bytes_read", "bytes"},
    {"table.delete_p50_ms", "ms"},
    {"table.update_p50_ms", "ms"},
    {"table.rewrite_manifest_ms", "ms"},
    {"core.background_work_ms", "ms"},
    {"table.files_considered", "count"},
    {"table.files_skipped_ratio", "fraction"},
    {"table.row_groups_considered", "count"},
    {"table.row_groups_skipped_ratio", "fraction"},
    {"table.rows_returned", "count"},
    {"table.bytes_decoded_per_row_returned", "B/row"},
    {"table.block_cache_lookups", "count"},
    {"table.block_cache_hit_ratio", "fraction"},
    {"table.block_cache_evictions", "count"},
    {"query.count", "count"},
    {"query.p99_ms", "ms"},
    {"query.parse_p50_us", "us"},
    {"query.plan_p50_us", "us"},
    {"query.rows_matched", "count"},
    {"query.rows_scanned_per_row_matched", "rows/row"},
    {"query.dau_p50_ms", "ms"},
    {"query.filter_count_p50_ms", "ms"},
    {"query.group_in_p50_ms", "ms"},
    {"query.point_wide_p50_ms", "ms"},
    {"query.tpch_p50_ms", "ms"},
    {"query.join_p50_ms", "ms"},
    {"query.time_travel_p50_ms", "ms"},
    {"lakebrain.advise_ms", "ms"},
    {"lakebrain.repartition_ms", "ms"},
    {"lakebrain.tpch_files_considered_before", "count"},
    {"lakebrain.tpch_files_skipped_ratio_before", "fraction"},
    {"lakebrain.tpch_files_considered_after", "count"},
    {"lakebrain.tpch_files_skipped_ratio_after", "fraction"},
    {"lakebrain.step_p50_ms", "ms"},
    {"lakebrain.compaction_attempts", "count"},
    {"lakebrain.compaction_successes", "count"},
    {"lakebrain.compaction_conflicts", "count"},
    {"lakebrain.files_merged", "count"},
    {"lakebrain.block_utilization", "fraction"},
    {"lakebrain.utilization_samples", "count"},
    {"process.setup_cpu_s", "s"},
    {"process.setup_wall_s", "s"},
    {"process.setup_cpu_per_wall", "ratio"},
    {"process.loop_cpu_s", "s"},
    {"process.loop_wall_s", "s"},
    {"process.loop_cpu_per_wall", "ratio"},
    {"layer.bench.self_ms", "ms"},
    {"layer.core.self_ms", "ms"},
    {"layer.streaming.self_ms", "ms"},
    {"layer.convert.self_ms", "ms"},
    {"layer.table.self_ms", "ms"},
    {"layer.query.self_ms", "ms"},
    {"layer.lakebrain.self_ms", "ms"},
    {"bench.rounds", "count"},
    {"bench.user_bytes", "bytes"},
    {"trace.spans", "count"},
    {"trace.overhead_round_ms", "ms"},
    {"trace.overhead_cpu_ms_per_round", "ms"},
    {"trace.overhead_query_p50_ms", "ms"},
    {"trace.overhead_ingest_rows_per_s", "rows/s"},
};

Outcome RunWorkload(const std::string& workload, const RunConfig& config) {
  if (workload == "stream_etl") return RunStreamEtl(config);
  if (workload == "lakehouse_analytics") return RunLakehouseAnalytics(config);
  return RunTableChurn(config);
}

void PrintJson(const Outcome& out, bool trace) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  bool first = true;
  auto emit = [&](const MetricDef& def, double value) {
    if (!std::isfinite(value)) value = 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", def.name, value, def.unit);
    first = false;
  };
  if (trace) {
    for (const MetricDef& def : kPerLayer) {
      auto it = out.layer.find(def.name);
      emit(def, it == out.layer.end() ? 0 : it->second);
    }
  } else {
    for (const MetricDef& def : kEndToEnd) {
      auto it = out.e2e.find(def.name);
      emit(def, it == out.e2e.end() ? 0 : it->second);
    }
  }
  std::printf("}}\n");
}

int Usage() {
  std::fprintf(stderr,
               "usage: slbench --workload stream_etl|lakehouse_analytics|"
               "table_churn --seed N --seconds S --trace 0|1 "
               "[--size full|smoke] [--spans PATH]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload, spans_path;
  RunConfig config;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--size") {
      config.size = value == "smoke" ? Size::kSmoke : Size::kFull;
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || !have_seed || config.seconds <= 0 ||
      (workload != "stream_etl" && workload != "lakehouse_analytics" &&
       workload != "table_churn")) {
    return Usage();
  }

  Outcome out;
  if (!config.trace) {
    out = RunWorkload(workload, config);
  } else {
    // Untraced half, then traced half; same seed and length.
    RunConfig half = config;
    half.seconds = config.seconds / 2;
    half.setup_reps = 1;
    half.trace = false;
    Outcome base = RunWorkload(workload, half);
    half.trace = true;
    out = RunWorkload(workload, half);
    for (const char* name : {"round_ms", "cpu_ms_per_round", "query_p50_ms",
                             "ingest_rows_per_s"}) {
      out.layer[std::string("trace.overhead_") + name] =
          out.e2e[name] - base.e2e[name];
    }
    out.attempted += base.attempted;
    out.failed += base.failed;
    if (!base.correct) out.Fail(base.error);
    if (!spans_path.empty() && !WriteSpans(out.spans, spans_path)) {
      std::fprintf(stderr, "cannot write spans to %s\n", spans_path.c_str());
    }
  }

  std::printf("workload %s seed %llu: %s\n", workload.c_str(),
              static_cast<unsigned long long>(config.seed),
              out.correct ? "all output checks passed"
                          : ("CHECK FAILED: " + out.error).c_str());
  for (const auto& [name, value] : out.e2e) {
    std::printf("  e2e   %-40s %.6g\n", name.c_str(), value);
  }
  for (const auto& [name, value] : out.layer) {
    std::printf("  layer %-40s %.6g\n", name.c_str(), value);
  }
  std::fflush(stdout);
  PrintJson(out, config.trace);
  return 0;
}

}  // namespace
}  // namespace slbench

int main(int argc, char** argv) { return slbench::Main(argc, argv); }
