// Tests for the observability layer (src/obs/): metrics registry
// counters/gauges/histograms with exact quantile extraction pinned
// against a sorted-vector oracle, concurrent publication (this suite
// runs under the tsan preset), and the trace recorder's Chrome
// trace-event JSON export with span nesting.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tcm {
namespace {

// ------------------------------------------------------------- counters

TEST(MetricsTest, CountersStartAtZeroAndAccumulate) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.CounterValue("jobs"), 0u);
  registry.IncrementCounter("jobs");
  registry.IncrementCounter("jobs", 4);
  EXPECT_EQ(registry.CounterValue("jobs"), 5u);
  EXPECT_EQ(registry.CounterValue("other"), 0u);
}

TEST(MetricsTest, GaugesAreLastWriteWins) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.GaugeValue("depth"), 0.0);
  registry.SetGauge("depth", 7.0);
  registry.SetGauge("depth", 3.5);
  EXPECT_EQ(registry.GaugeValue("depth"), 3.5);
}

TEST(MetricsTest, ConcurrentCounterIncrementsAreLost_Never) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry]() {
      for (int i = 0; i < kPerThread; ++i) {
        registry.IncrementCounter("contended");
        registry.SetGauge("last", static_cast<double>(i));
        registry.Observe("latency", 0.001 * (i % 16 + 1));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(registry.CounterValue("contended"),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(registry.HistogramStats("latency").count,
            static_cast<uint64_t>(kThreads) * kPerThread);
}

// ------------------------------------------------------------ histograms

// Nearest-rank quantile over the raw samples: the oracle the fixed
// bucket extraction must match when boundaries sit at every distinct
// sample value.
double OracleQuantile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  if (rank < 1) rank = 1;
  return samples[rank - 1];
}

TEST(MetricsTest, QuantilesExactAgainstSortedVectorOracle) {
  // Deterministic pseudo-random samples with ties and skew.
  std::mt19937_64 rng(20260807);
  std::vector<double> samples;
  samples.reserve(500);
  for (int i = 0; i < 500; ++i) {
    double value = static_cast<double>(rng() % 97) * 0.25;
    if (i % 7 == 0) value *= 8.0;  // heavy tail
    samples.push_back(value);
  }

  // Boundaries at every distinct sample value make the fixed-bucket
  // nearest-rank extraction exact (see metrics.h).
  std::set<double> distinct(samples.begin(), samples.end());
  std::vector<double> boundaries(distinct.begin(), distinct.end());

  MetricsRegistry registry;
  registry.RegisterHistogram("exact", boundaries);
  double sum = 0.0;
  for (double sample : samples) {
    registry.Observe("exact", sample);
    sum += sample;
  }

  HistogramSnapshot snapshot = registry.HistogramStats("exact");
  EXPECT_EQ(snapshot.count, samples.size());
  EXPECT_NEAR(snapshot.sum, sum, 1e-9);
  EXPECT_EQ(snapshot.min, *std::min_element(samples.begin(), samples.end()));
  EXPECT_EQ(snapshot.max, *std::max_element(samples.begin(), samples.end()));
  EXPECT_EQ(snapshot.p50, OracleQuantile(samples, 0.50));
  EXPECT_EQ(snapshot.p90, OracleQuantile(samples, 0.90));
  EXPECT_EQ(snapshot.p99, OracleQuantile(samples, 0.99));
}

TEST(MetricsTest, QuantilesExactForSmallCounts) {
  for (size_t n : {1u, 2u, 3u, 5u}) {
    std::vector<double> samples;
    for (size_t i = 0; i < n; ++i) {
      samples.push_back(static_cast<double>(i + 1) * 1.5);
    }
    MetricsRegistry registry;
    registry.RegisterHistogram("small", samples);  // sorted already
    for (double sample : samples) registry.Observe("small", sample);
    HistogramSnapshot snapshot = registry.HistogramStats("small");
    EXPECT_EQ(snapshot.p50, OracleQuantile(samples, 0.50)) << "n=" << n;
    EXPECT_EQ(snapshot.p90, OracleQuantile(samples, 0.90)) << "n=" << n;
    EXPECT_EQ(snapshot.p99, OracleQuantile(samples, 0.99)) << "n=" << n;
  }
}

TEST(MetricsTest, ObserveAutoCreatesWithDefaultBuckets) {
  MetricsRegistry registry;
  registry.Observe("auto", 0.004);
  registry.Observe("auto", 1000.0);  // past the last default boundary
  HistogramSnapshot snapshot = registry.HistogramStats("auto");
  EXPECT_EQ(snapshot.count, 2u);
  EXPECT_EQ(snapshot.min, 0.004);
  EXPECT_EQ(snapshot.max, 1000.0);
  // Quantiles are clamped to the observed range even for the overflow
  // bucket.
  EXPECT_GE(snapshot.p50, snapshot.min);
  EXPECT_LE(snapshot.p99, snapshot.max);
}

TEST(MetricsTest, EmptyHistogramSnapshotsToZeros) {
  MetricsRegistry registry;
  registry.RegisterHistogram("empty", {1.0, 2.0});
  HistogramSnapshot snapshot = registry.HistogramStats("empty");
  EXPECT_EQ(snapshot.count, 0u);
  EXPECT_EQ(snapshot.p50, 0.0);
  EXPECT_EQ(snapshot.p99, 0.0);
}

TEST(MetricsTest, SnapshotJsonCarriesAllThreeFamilies) {
  MetricsRegistry registry;
  registry.IncrementCounter("c", 2);
  registry.SetGauge("g", 1.25);
  registry.Observe("h", 0.5);
  JsonValue snapshot = registry.SnapshotJson();
  ASSERT_TRUE(snapshot.is_object());
  const JsonValue* counters = snapshot.Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->Find("c"), nullptr);
  const JsonValue* gauges = snapshot.Find("gauges");
  ASSERT_NE(gauges, nullptr);
  ASSERT_NE(gauges->Find("g"), nullptr);
  const JsonValue* histograms = snapshot.Find("histograms");
  ASSERT_NE(histograms, nullptr);
  const JsonValue* h = histograms->Find("h");
  ASSERT_NE(h, nullptr);
  for (const char* key :
       {"count", "sum", "min", "max", "p50", "p90", "p99"}) {
    EXPECT_NE(h->Find(key), nullptr) << key;
  }
  registry.Reset();
  EXPECT_EQ(registry.CounterValue("c"), 0u);
}

// --------------------------------------------------------------- tracing

// The suite shares the process-global recorder with nothing else (the
// library only records while a test enables tracing), but every test
// still leaves it disabled and clear.
class TraceTest : public ::testing::Test {
 protected:
  void TearDown() override {
    TraceRecorder::Global().Disable();
    TraceRecorder::Global().Clear();
  }
};

TEST_F(TraceTest, SpansAreInertWhileDisabled) {
  TraceRecorder::Global().Disable();
  TraceRecorder::Global().Clear();
  {
    TraceSpan span("ignored");
  }
  EXPECT_EQ(TraceRecorder::Global().event_count(), 0u);
}

TEST_F(TraceTest, RecordsNestedSpansWithDepth) {
  TraceRecorder::Global().Clear();
  TraceRecorder::Global().Enable();
  {
    TraceSpan outer("outer");
    {
      TraceSpan inner("inner");
    }
  }
  TraceRecorder::Global().Disable();
  std::vector<TraceEvent> events = TraceRecorder::Global().Events();
  ASSERT_EQ(events.size(), 2u);
  // Spans are recorded on close: inner first.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[0].depth, 1);
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_EQ(events[1].depth, 0);
  EXPECT_EQ(events[0].tid, events[1].tid);
  // The inner interval nests inside the outer one.
  EXPECT_GE(events[0].ts_us, events[1].ts_us);
  EXPECT_LE(events[0].ts_us + events[0].dur_us,
            events[1].ts_us + events[1].dur_us);
}

TEST_F(TraceTest, ChromeTraceJsonIsValidAndComplete) {
  TraceRecorder::Global().Clear();
  TraceRecorder::Global().Enable();
  {
    TraceSpan a("stage_a");
    TraceSpan b("stage_b");
  }
  TraceRecorder::Global().Disable();

  // Round-trip through the serialized form: the exported document must
  // parse with the project's own strict parser.
  std::string text = TraceRecorder::Global().ChromeTraceJson().Write(2);
  auto parsed = ParseJson(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* trace_events = parsed->Find("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  ASSERT_TRUE(trace_events->is_array());
  ASSERT_EQ(trace_events->items().size(), 2u);
  for (const JsonValue& event : trace_events->items()) {
    const JsonValue* ph = event.Find("ph");
    ASSERT_NE(ph, nullptr);
    EXPECT_EQ(ph->string_value(), "X");  // complete events
    for (const char* key : {"name", "cat", "ts", "dur", "pid", "tid"}) {
      EXPECT_NE(event.Find(key), nullptr) << key;
    }
    const JsonValue* args = event.Find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_NE(args->Find("depth"), nullptr);
  }
}

TEST_F(TraceTest, ConcurrentSpansKeepPerThreadDepth) {
  TraceRecorder::Global().Clear();
  TraceRecorder::Global().Enable();
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([]() {
      for (int i = 0; i < kSpansPerThread; ++i) {
        TraceSpan outer("outer");
        TraceSpan inner("inner");
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  TraceRecorder::Global().Disable();
  std::vector<TraceEvent> events = TraceRecorder::Global().Events();
  ASSERT_EQ(events.size(),
            static_cast<size_t>(kThreads) * kSpansPerThread * 2);
  for (const TraceEvent& event : events) {
    if (event.name == "outer") {
      EXPECT_EQ(event.depth, 0);
    } else {
      EXPECT_EQ(event.depth, 1);
    }
  }
}

TEST_F(TraceTest, TraceSinkWritesFileAndDisables) {
  const std::string path =
      ::testing::TempDir() + "/tcm_obs_trace_sink.json";
  {
    TraceSink sink(path);
    EXPECT_TRUE(TraceRecorder::Global().enabled());
    TraceSpan span("sink_span");
    // Span closes before Finish via scope order below.
  }
  EXPECT_FALSE(TraceRecorder::Global().enabled());
  auto parsed = ReadJsonFile(path);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* trace_events = parsed->Find("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  ASSERT_EQ(trace_events->items().size(), 1u);
  EXPECT_EQ(trace_events->items()[0].Find("name")->string_value(),
            "sink_span");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tcm
