#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

// Shared plumbing of the benchmark program: arguments, order statistics,
// hashing, host calibration, and the span recorder that writes the traced
// run's Chrome trace.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// Input sizes. kFull is what BENCHMARK.json's workloads mean; kTiny is
// for the benchmark's own smoke test.
enum class Scale { kFull, kTiny };

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  Scale scale = Scale::kFull;
  // Corrupt the data seen by the first correctness check, to prove the
  // gate counts it as a failed operation.
  bool inject_verify_failure = false;
};

// Parses --workload/--seed/--seconds/--trace (required) and the optional
// --scale and --inject-verify-failure. Returns false and fills `error` on a
// usage error.
bool ParseArgs(int argc, char** argv, Args* args, std::string* error);

// Generated inputs, releases and traces go here, relative to the working
// directory (the checkout root).
inline constexpr char kWorkDir[] = ".bench_work";

// 0 when `values` is empty.
double Median(std::vector<double> values);

// The tail figure reported as latency_p99_ms: the nearest-rank p99 when at
// least ten samples lie beyond it, else the highest percentile that still
// has ten beyond it, but never less than the median. A few-sample run thus
// reports its median instead of a single slowest sample.
double TailLatency(const std::vector<double>& values);

// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

// FNV-1a 64 over a byte string, and over a whole file (0 when unreadable).
uint64_t Fnv1a64(const std::string& bytes);
uint64_t Fnv1a64File(const std::string& path);

// Seconds on the steady clock since an arbitrary fixed origin.
double NowSeconds();

// Host calibration: the same CPU spin on 1, 2 and 4 threads at once.
// capacity[i] is the aggregate throughput at threads[i] relative to one
// thread — the parallel capacity a thread-scaling number has to be read
// against on a shared host.
struct HostCalibration {
  unsigned nproc = 0;
  std::vector<int> threads;
  std::vector<double> capacity;
};
HostCalibration CalibrateHost();

// In-memory span recorder for the traced run. Spans are kept until the run
// ends and then written as Chrome trace-event JSON (chrome://tracing or
// ui.perfetto.dev). Each span carries its own id and the id of the span
// that caused it, so nesting survives hops onto pool threads.
class Tracer {
 public:
  static Tracer& Get();

  bool enabled() const { return enabled_; }
  void Enable() { enabled_ = true; }

  // Records a finished span (a no-op when tracing is off). `tid` names the
  // timeline row (a client or pool thread); start/end are NowSeconds()
  // values.
  void Record(const std::string& name, double start, double end,
              uint64_t parent, int tid,
              const std::map<std::string, double>& args = {});

  // Reserves an id for a span whose children finish before it does.
  uint64_t NextId();
  void RecordWithId(uint64_t id, const std::string& name, double start,
                    double end, uint64_t parent, int tid,
                    const std::map<std::string, double>& args = {});

  // Writes every recorded span; false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

  size_t dropped() const;

 private:
  struct Span {
    uint64_t id;
    uint64_t parent;
    std::string name;
    double start;
    double end;
    int tid;
    std::map<std::string, double> args;
  };

  // Spans past this many are counted, not kept, so a long traced serve run
  // stays small in memory.
  static constexpr size_t kMaxSpans = 200000;

  bool enabled_ = false;
  mutable std::mutex mutex_;
  uint64_t next_id_ = 1;
  size_t dropped_ = 0;
  std::vector<Span> spans_;
};

// RAII span on the calling thread: records [construction, destruction)
// when tracing is on. The id is reserved up front so children can name it
// as their parent.
class ScopedSpan {
 public:
  ScopedSpan(std::string name, uint64_t parent, int tid = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }
  void Arg(const std::string& key, double value) { args_[key] = value; }

 private:
  std::string name_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  int tid_ = 0;
  double start_ = 0.0;
  std::map<std::string, double> args_;
};

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
