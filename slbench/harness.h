// Shared harness of the StreamLake end-to-end benchmark: clocks, the call
// recorder (wall + process-CPU per public-API call), the in-memory span
// tracer, registry deltas and the result of one workload run.
#ifndef SLBENCH_HARNESS_H_
#define SLBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"

namespace slbench {

/// Input size of a run: `kFull` is what the reference figures and bounds
/// use; `kSmoke` is a seconds-long run with every output check on.
enum class Size { kFull, kSmoke };

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int setup_reps = 3;
  Size size = Size::kFull;
};

int64_t WallNs();  // steady clock
int64_t CpuNs();   // CLOCK_PROCESS_CPUTIME_ID: every thread of the process
double PeakRssMb();

/// Nearest-rank quantile of `v` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> v, double q);

/// One traced call: name, layer, wall interval, parent span (-1 = root),
/// request id and the process-CPU time spent inside it.
struct Span {
  const char* name;
  const char* layer;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;
  uint64_t request;
  int64_t cpu_ns;
};

/// Per-name call statistics gathered by the Recorder.
struct CallStats {
  std::vector<double> wall_ns;
  int64_t cpu_ns = 0;
};

/// \brief Wraps every call the benchmark makes into a layer's public
/// functions. Always times the call (wall and process CPU: the scan and
/// stream-I/O pools run inside it); when tracing, also keeps a span.
/// Calls made inside a round add to that round's program time.
class Recorder {
 public:
  explicit Recorder(bool trace) : trace_(trace) {}

  template <typename F>
  auto Call(const char* name, const char* layer, F&& f) -> decltype(f()) {
    int span = Open(name, layer);
    int64_t c0 = CpuNs();
    int64_t w0 = WallNs();
    auto result = f();
    int64_t w1 = WallNs();
    int64_t c1 = CpuNs();
    Close(span, name, w0, w1, c1 - c0);
    return result;
  }

  /// A round of the workload's closed loop: a parent span for the calls
  /// made until EndRound, which adds the round's program wall/CPU time.
  void BeginRound();
  void EndRound();
  /// A set-up repetition: a parent span only.
  void BeginGroup(const char* name);
  void EndGroup();

  const std::map<std::string, CallStats>& calls() const { return calls_; }
  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<double>& round_wall_ns() const { return round_wall_; }
  const std::vector<double>& round_cpu_ns() const { return round_cpu_; }

  /// p50 of a call's wall time in `unit_ns` units; mean CPU likewise.
  double P50(const std::string& name, double unit_ns) const;
  double MeanCpu(const std::string& name, double unit_ns) const;
  double SumWall(const std::string& name, double unit_ns) const;

  /// Per-layer self time (span time minus child spans), milliseconds.
  std::map<std::string, double> LayerSelfMs() const;

 private:
  int Open(const char* name, const char* layer);
  void Close(int span, const char* name, int64_t w0, int64_t w1,
             int64_t cpu_ns);

  bool trace_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open parent spans
  std::map<std::string, CallStats> calls_;
  bool in_round_ = false;
  uint64_t request_ = 0;
  int64_t round_wall_acc_ = 0, round_cpu_acc_ = 0;
  std::vector<double> round_wall_, round_cpu_;
};

/// Registry counter deltas over a window, minus the deltas of excluded
/// stretches (the benchmark's own output checks).
class CounterLedger {
 public:
  void Start();
  void Stop();
  void BeginExclude();
  void EndExclude();
  /// Delta of one counter over the window, exclusions removed.
  double Delta(const std::string& name) const;

 private:
  static std::map<std::string, uint64_t> Now();
  std::map<std::string, uint64_t> start_, stop_, exclude_start_;
  std::map<std::string, double> excluded_;
};

/// The outcome of one workload run.
struct Outcome {
  bool correct = true;
  std::string error;  // first failed check
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  std::vector<Span> spans;  // traced runs only

  void Fail(const std::string& what) {
    if (correct) error = what;
    correct = false;
  }
};

/// Fill the metrics every workload derives the same way: round program
/// time/CPU, process CPU per phase, self time per layer, registry deltas.
void FillCommonMetrics(const Recorder& rec, const CounterLedger& ledger,
                       double setup_cpu_s, double setup_wall_s,
                       double loop_cpu_s, double loop_wall_s, Outcome* out);

/// Write spans as JSON lines (one object per span, ids are indices).
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

/// Median of the set-up repetitions.
double Median(std::vector<double> v);

/// Stable 64-bit hash (FNV-1a) for order-independent digests.
uint64_t Fnv1a(const std::string& s, uint64_t h = 1469598103934665603ULL);

}  // namespace slbench

#endif  // SLBENCH_HARNESS_H_
