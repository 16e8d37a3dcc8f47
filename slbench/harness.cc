#include "harness.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace slbench {

int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  if (rank > 0) --rank;
  return v[std::min(rank, v.size() - 1)];
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

uint64_t Fnv1a(const std::string& s, uint64_t h) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

int Recorder::Open(const char* name, const char* layer) {
  if (!trace_) return -1;
  int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, layer, WallNs(), 0, parent, request_, 0});
  return static_cast<int>(spans_.size() - 1);
}

void Recorder::Close(int span, const char* name, int64_t w0, int64_t w1,
                     int64_t cpu_ns) {
  if (span >= 0) {
    spans_[span].end_ns = WallNs();
    spans_[span].cpu_ns = cpu_ns;
  }
  CallStats& stats = calls_[name];
  stats.wall_ns.push_back(static_cast<double>(w1 - w0));
  stats.cpu_ns += cpu_ns;
  if (in_round_) {
    round_wall_acc_ += w1 - w0;
    round_cpu_acc_ += cpu_ns;
  }
}

void Recorder::BeginRound() {
  ++request_;
  in_round_ = true;
  round_wall_acc_ = round_cpu_acc_ = 0;
  BeginGroup("round");
}

void Recorder::EndRound() {
  EndGroup();
  in_round_ = false;
  round_wall_.push_back(static_cast<double>(round_wall_acc_));
  round_cpu_.push_back(static_cast<double>(round_cpu_acc_));
}

void Recorder::BeginGroup(const char* name) {
  if (!trace_) return;
  int span = Open(name, "bench");
  spans_[span].cpu_ns = CpuNs();  // start value until EndGroup
  open_.push_back(span);
}

void Recorder::EndGroup() {
  if (!trace_ || open_.empty()) return;
  Span& span = spans_[open_.back()];
  span.end_ns = WallNs();
  span.cpu_ns = CpuNs() - span.cpu_ns;
  open_.pop_back();
}

double Recorder::P50(const std::string& name, double unit_ns) const {
  auto it = calls_.find(name);
  if (it == calls_.end()) return 0;
  return Quantile(it->second.wall_ns, 0.5) / unit_ns;
}

double Recorder::MeanCpu(const std::string& name, double unit_ns) const {
  auto it = calls_.find(name);
  if (it == calls_.end() || it->second.wall_ns.empty()) return 0;
  return static_cast<double>(it->second.cpu_ns) /
         static_cast<double>(it->second.wall_ns.size()) / unit_ns;
}

double Recorder::SumWall(const std::string& name, double unit_ns) const {
  auto it = calls_.find(name);
  if (it == calls_.end()) return 0;
  double sum = 0;
  for (double ns : it->second.wall_ns) sum += ns;
  return sum / unit_ns;
}

std::map<std::string, double> Recorder::LayerSelfMs() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) child_ns[span.parent] += span.end_ns - span.start_ns;
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    self[span.layer] +=
        static_cast<double>(span.end_ns - span.start_ns - child_ns[i]) / 1e6;
  }
  return self;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"layer\": \"%s\", "
                 "\"start_ns\": %lld, \"end_ns\": %lld, \"parent\": %d, "
                 "\"request\": %llu, \"cpu_ns\": %lld}\n",
                 i, s.name, s.layer, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.cpu_ns));
  }
  return std::fclose(f) == 0;
}

std::map<std::string, uint64_t> CounterLedger::Now() {
  return streamlake::MetricsRegistry::Global().Snapshot().counters;
}

void CounterLedger::Start() {
  start_ = Now();
  excluded_.clear();
}

void CounterLedger::Stop() { stop_ = Now(); }

void CounterLedger::BeginExclude() { exclude_start_ = Now(); }

void CounterLedger::EndExclude() {
  for (const auto& [name, value] : Now()) {
    auto it = exclude_start_.find(name);
    uint64_t before = it == exclude_start_.end() ? 0 : it->second;
    excluded_[name] += static_cast<double>(value - before);
  }
}

double CounterLedger::Delta(const std::string& name) const {
  auto lookup = [&](const std::map<std::string, uint64_t>& m) {
    auto it = m.find(name);
    return it == m.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto ex = excluded_.find(name);
  double excluded = ex == excluded_.end() ? 0.0 : ex->second;
  return lookup(stop_) - lookup(start_) - excluded;
}

void FillCommonMetrics(const Recorder& rec, const CounterLedger& ledger,
                       double setup_cpu_s, double setup_wall_s,
                       double loop_cpu_s, double loop_wall_s, Outcome* out) {
  out->e2e["round_ms"] = Median(rec.round_wall_ns()) / 1e6;
  double cpu_sum = 0;
  for (double ns : rec.round_cpu_ns()) cpu_sum += ns;
  out->e2e["cpu_ms_per_round"] =
      rec.round_cpu_ns().empty()
          ? 0
          : cpu_sum / static_cast<double>(rec.round_cpu_ns().size()) / 1e6;
  out->layer["bench.rounds"] = static_cast<double>(rec.round_wall_ns().size());

  out->layer["process.setup_cpu_s"] = setup_cpu_s;
  out->layer["process.setup_wall_s"] = setup_wall_s;
  out->layer["process.setup_cpu_per_wall"] =
      setup_wall_s > 0 ? setup_cpu_s / setup_wall_s : 0;
  out->layer["process.loop_cpu_s"] = loop_cpu_s;
  out->layer["process.loop_wall_s"] = loop_wall_s;
  out->layer["process.loop_cpu_per_wall"] =
      loop_wall_s > 0 ? loop_cpu_s / loop_wall_s : 0;

  for (const auto& [layer, ms] : rec.LayerSelfMs()) {
    out->layer["layer." + layer + ".self_ms"] = ms;
  }
  out->layer["trace.spans"] = static_cast<double>(rec.spans().size());

  out->layer["stream.slices_persisted"] =
      ledger.Delta("stream.object.slices_persisted");
  out->layer["storage.plog_append_bytes"] =
      ledger.Delta("storage.plog.append_bytes");
  out->layer["storage.plog_append_ops"] = ledger.Delta("storage.plog.append_ops");
  out->layer["storage.plog_read_bytes"] = ledger.Delta("storage.plog.read_bytes");
  out->layer["storage.stripe_contention"] =
      ledger.Delta("storage.plog.stripe_contention") +
      ledger.Delta("kv.stripe_contention");
  out->layer["kv.write_bytes"] = ledger.Delta("kv.write.bytes");
  out->layer["kv.get_ops"] = ledger.Delta("kv.get.ops");
  out->layer["table.metadata_reads"] = ledger.Delta("table.metadata.reads");
  out->layer["table.metadata_small_ios"] =
      ledger.Delta("table.metadata.small_ios");
  out->layer["table.metadata_bytes_read"] =
      ledger.Delta("table.metadata.bytes_read");
  double hits = ledger.Delta("table.block_cache.hits");
  double lookups = hits + ledger.Delta("table.block_cache.misses");
  out->layer["table.block_cache_lookups"] = lookups;
  out->layer["table.block_cache_hit_ratio"] = lookups > 0 ? hits / lookups : 0;
  out->layer["table.block_cache_evictions"] =
      ledger.Delta("table.block_cache.evictions");
  double matched = ledger.Delta("query.rows_matched");
  out->layer["query.rows_matched"] = matched;
  out->layer["query.rows_scanned_per_row_matched"] =
      matched > 0 ? ledger.Delta("query.rows_scanned") / matched : 0;
  out->layer["lakebrain.compaction_attempts"] =
      ledger.Delta("lakebrain.compaction.attempts");
  out->layer["lakebrain.compaction_successes"] =
      ledger.Delta("lakebrain.compaction.successes");
  out->layer["lakebrain.compaction_conflicts"] =
      ledger.Delta("lakebrain.compaction.conflicts");
  out->layer["lakebrain.files_merged"] =
      ledger.Delta("lakebrain.compaction.files_merged");
}

}  // namespace slbench
