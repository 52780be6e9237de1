#include "util.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

namespace perfbench {

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--inject-verify-failure") {
      args->inject_verify_failure = true;
      continue;
    }
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     args->seconds > 0.0;
    } else if (flag == "--trace") {
      args->trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--scale") {
      if (value != "full" && value != "tiny") {
        *error = "--scale must be full or tiny";
        return false;
      }
      args->scale = value == "tiny" ? Scale::kTiny : Scale::kFull;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    *error =
        "usage: tcm_perfbench --workload NAME --seed N --seconds S "
        "--trace 0|1 [--scale full|tiny] [--inject-verify-failure]";
    return false;
  }
  return true;
}

namespace {

// Nearest-rank percentile, p in (0, 100]; 0 when empty.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

}  // namespace

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return 0.5 * (values[mid - 1] + values[mid]);
}

double TailLatency(const std::vector<double>& values) {
  const double n = static_cast<double>(values.size());
  const double p = std::clamp(100.0 * (n - 10.0) / n, 50.0, 99.0);
  return p == 50.0 ? Median(values) : Percentile(values, p);
}

double PeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t FnvUpdate(uint64_t hash, const char* data, size_t size) {
  for (size_t i = 0; i < size; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= kFnvPrime;
  }
  return hash;
}

// A fixed amount of integer work that the compiler cannot fold away.
uint64_t Spin(uint64_t iterations, uint64_t seed) {
  uint64_t x = seed | 1;
  for (uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

}  // namespace

uint64_t Fnv1a64(const std::string& bytes) {
  return FnvUpdate(kFnvOffset, bytes.data(), bytes.size());
}

uint64_t Fnv1a64File(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return 0;
  uint64_t hash = kFnvOffset;
  std::vector<char> buffer(1 << 20);
  while (in) {
    in.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    hash = FnvUpdate(hash, buffer.data(), static_cast<size_t>(in.gcount()));
  }
  return hash;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

HostCalibration CalibrateHost() {
  constexpr uint64_t kIterations = 40'000'000;
  constexpr int kRepeats = 3;
  HostCalibration calibration;
  calibration.nproc = std::thread::hardware_concurrency();
  std::atomic<uint64_t> sink{0};
  double one_thread = 0.0;
  for (int threads : {1, 2, 4}) {
    std::vector<double> walls;
    for (int repeat = 0; repeat < kRepeats; ++repeat) {
      const double start = NowSeconds();
      std::vector<std::thread> workers;
      for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&sink, t]() {
          sink.fetch_xor(Spin(kIterations, static_cast<uint64_t>(t) + 7),
                         std::memory_order_relaxed);
        });
      }
      for (std::thread& worker : workers) worker.join();
      walls.push_back(NowSeconds() - start);
    }
    const double wall = Median(walls);
    if (threads == 1) one_thread = wall;
    calibration.threads.push_back(threads);
    calibration.capacity.push_back(threads * one_thread / wall);
  }
  if (sink.load() == 42) std::fprintf(stderr, "#\n");  // keeps the spin live
  return calibration;
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

uint64_t Tracer::NextId() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void Tracer::Record(const std::string& name, double start, double end,
                    uint64_t parent, int tid,
                    const std::map<std::string, double>& args) {
  RecordWithId(NextId(), name, start, end, parent, tid, args);
}

void Tracer::RecordWithId(uint64_t id, const std::string& name, double start,
                          double end, uint64_t parent, int tid,
                          const std::map<std::string, double>& args) {
  if (!enabled_ || id == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return;
  }
  spans_.push_back({id, parent, name, start, end, tid, args});
}

size_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  double origin = spans_.empty() ? 0.0 : spans_.front().start;
  for (const Span& span : spans_) origin = std::min(origin, span.start);
  std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    // Span names are the benchmark's own identifiers: no JSON escaping
    // is needed.
    std::fprintf(out,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu",
                 span.name.c_str(), span.tid, (span.start - origin) * 1e6,
                 (span.end - span.start) * 1e6,
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent));
    for (const auto& [key, value] : span.args) {
      std::fprintf(out, ",\"%s\":%.9g", key.c_str(), value);
    }
    std::fprintf(out, "}}%s\n", i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

ScopedSpan::ScopedSpan(std::string name, uint64_t parent, int tid)
    : name_(std::move(name)), parent_(parent), tid_(tid) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return;
  id_ = tracer.NextId();
  start_ = NowSeconds();
}

ScopedSpan::~ScopedSpan() {
  if (id_ == 0) return;
  Tracer::Get().RecordWithId(id_, name_, start_, NowSeconds(), parent_, tid_,
                             args_);
}

}  // namespace perfbench
