// Integration-test wall for the tcm_serve subsystem: every suite boots a
// REAL JobServer on an ephemeral localhost port and talks to it over a
// real TCP socket through ServeClient — the same daemon core and wire
// path tools/tcm_serve.cc ships. Load-bearing properties pinned here:
// concurrent submissions are isolated and byte-identical to direct
// RunJob releases (including the golden pins), every error-taxonomy
// code is observable over the wire, the bounded queue pushes back when
// full, cancel wins only while a job is still queued, and shutdown is a
// graceful drain that still delivers final events.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <latch>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/registry.h"
#include "microagg/partition.h"
#include "tcm/api.h"

namespace tcm {
namespace {

using std::chrono::steady_clock;

std::string GoldenDir() { return TCM_GOLDEN_DIR; }

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "serve_" + name;
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool WaitUntil(const std::function<bool()>& predicate,
               int timeout_ms = 20000) {
  const auto deadline =
      steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (steady_clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return predicate();
}

// ----- event accessors (empty/0 when absent, asserted by callers) -----

std::string EventName(const JsonValue& event) {
  const JsonValue* name = event.Find("event");
  return (name != nullptr && name->is_string()) ? name->string_value() : "";
}

std::string EventState(const JsonValue& event) {
  const JsonValue* state = event.Find("state");
  return (state != nullptr && state->is_string()) ? state->string_value()
                                                  : "";
}

std::string EventCode(const JsonValue& event) {
  const JsonValue* code = event.Find("code");
  return (code != nullptr && code->is_string()) ? code->string_value() : "";
}

uint64_t EventJob(const JsonValue& event) {
  const JsonValue* job = event.Find("job");
  return (job != nullptr && job->is_number()) ? job->GetUint().value_or(0)
                                              : 0;
}

ServeClient ConnectOrDie(const JobServer& server) {
  auto client = ServeClient::Connect("127.0.0.1", server.port());
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return std::move(client).value();
}

// One status poll over the wire.
JsonValue QueryStatus(ServeClient* client, uint64_t job) {
  ServeRequest request;
  request.verb = ServeVerb::kStatus;
  request.job = job;
  EXPECT_TRUE(client->Send(request).ok());
  auto event = client->ReadEvent();
  EXPECT_TRUE(event.ok()) << event.status().ToString();
  return std::move(event).value();
}

// Submits without waiting and returns the accepted/error event.
JsonValue SubmitNoWait(ServeClient* client, const JobSpec& spec) {
  JsonValue request = JsonValue::MakeObject();
  request.Set("verb", "submit");
  request.Set("spec", spec.ToJson());
  request.Set("wait", false);
  EXPECT_TRUE(client->Send(request).ok());
  auto event = client->ReadEvent();
  EXPECT_TRUE(event.ok()) << event.status().ToString();
  return std::move(event).value();
}

// ----- test-only registry algorithms --------------------------------------

// Sleeps long enough for the test to observe queued/running states, then
// produces a valid k-anonymous partition of consecutive rows.
void RegisterSlowAlgorithm() {
  static const bool registered = [] {
    Status status = AlgorithmRegistry::BuiltIns().Register(
        "test_slow", "test-only: sleeps, then groups consecutive rows",
        [](const Dataset& data,
           const AlgorithmParams& params) -> Result<Partition> {
          std::this_thread::sleep_for(std::chrono::milliseconds(500));
          Partition partition;
          const size_t n = data.NumRecords();
          const size_t k = params.k == 0 ? 1 : params.k;
          for (size_t row = 0; row < n; row += k) {
            Cluster cluster;
            for (size_t i = row; i < std::min(n, row + k); ++i) {
              cluster.push_back(i);
            }
            if (cluster.size() < k && !partition.clusters.empty()) {
              Cluster& last = partition.clusters.back();
              last.insert(last.end(), cluster.begin(), cluster.end());
            } else {
              partition.clusters.push_back(std::move(cluster));
            }
          }
          return partition;
        });
    return status.ok();
  }();
  ASSERT_TRUE(registered);
}

// Pairs rows regardless of k, so verification of any k > 2 job fails
// with kPrivacyViolation (mirrors api_test's taxonomy fixture).
void RegisterUndersizedAlgorithm() {
  static const bool registered = [] {
    Status status = AlgorithmRegistry::BuiltIns().Register(
        "test_undersized_serve", "test-only: pairs regardless of k",
        [](const Dataset& data, const AlgorithmParams&) -> Result<Partition> {
          Partition partition;
          for (size_t row = 0; row < data.NumRecords(); row += 2) {
            Cluster cluster;
            cluster.push_back(row);
            if (row + 1 < data.NumRecords()) cluster.push_back(row + 1);
            partition.clusters.push_back(std::move(cluster));
          }
          return partition;
        });
    return status.ok();
  }();
  ASSERT_TRUE(registered);
}

JobSpec SlowSpec(size_t rows = 64) {
  RegisterSlowAlgorithm();
  JobSpec spec;
  spec.input.kind = InputKind::kSynthetic;
  spec.input.generator = "uniform";
  spec.input.rows = rows;
  spec.input.seed = 11;
  spec.algorithm.name = "test_slow";
  spec.algorithm.k = 4;
  spec.algorithm.t = 10.0;  // never triggers the repair pass
  spec.execution.shard_size = 0;
  spec.verify = false;
  return spec;
}

JobSpec UniformSpec(uint64_t seed, size_t rows) {
  JobSpec spec;
  spec.input.kind = InputKind::kSynthetic;
  spec.input.generator = "uniform";
  spec.input.rows = rows;
  spec.input.quasi_identifiers = 2;
  spec.input.seed = seed;
  spec.algorithm.name = "tclose_first";
  spec.algorithm.k = 5;
  spec.algorithm.t = 0.3;
  spec.algorithm.seed = seed;
  spec.execution.shard_size = 64;
  return spec;
}

// Zeroes every "*_seconds" and replaces release_path, the same
// normalization tools/job_golden.cmake applies to the pinned report.
JsonValue NormalizeReport(const JsonValue& value) {
  if (value.is_object()) {
    JsonValue out = JsonValue::MakeObject();
    for (const JsonValue::Member& member : value.members()) {
      const std::string& key = member.first;
      if (key.size() > 8 &&
          key.compare(key.size() - 8, 8, "_seconds") == 0) {
        out.Set(key, 0);
      } else if (key == "release_path") {
        out.Set(key, "<release>");
      } else {
        out.Set(key, NormalizeReport(member.second));
      }
    }
    return out;
  }
  if (value.is_array()) {
    JsonValue out = JsonValue::MakeArray();
    for (size_t i = 0; i < value.size(); ++i) {
      out.Append(NormalizeReport(value.at(i)));
    }
    return out;
  }
  return value;
}

// ----- the wall -----------------------------------------------------------

// Standalone JobQueue (no server): Drain must outlast the pool task of a
// job cancelled while queued — that task still captures the queue, so
// destroying the queue right after Drain would otherwise be a
// use-after-free once a worker pops it (ASan/TSan pin this).
TEST(JobQueueTest, DrainOutlastsCancelledQueuedTasks) {
  RegisterSlowAlgorithm();
  ThreadPool pool(1);
  {
    JobQueue queue(&pool, 8);
    auto job_a = queue.Submit(SlowSpec());
    ASSERT_TRUE(job_a.ok()) << job_a.status().ToString();
    auto job_b = queue.Submit(SlowSpec());
    ASSERT_TRUE(job_b.ok()) << job_b.status().ToString();

    // The single worker is inside job A; B is still queued.
    auto cancelled = queue.Cancel(*job_b);
    ASSERT_TRUE(cancelled.ok());
    EXPECT_EQ(cancelled->state, JobState::kCancelled);

    queue.Drain();
    EXPECT_EQ(queue.Status(*job_a)->state, JobState::kSucceeded);
    EXPECT_EQ(queue.Status(*job_b)->state, JobState::kCancelled);
    EXPECT_EQ(queue.pending(), 0u);
  }  // queue destroyed while the pool is still alive
  std::latch ran(1);  // the pool is healthy and past B's task
  pool.Submit([&ran]() { ran.count_down(); });
  ran.wait();
  pool.Shutdown();
}

TEST(ServeBasicsTest, StartStopWithoutTraffic) {
  JobServer server(ServeOptions{});
  ASSERT_TRUE(server.Start().ok());
  EXPECT_GT(server.port(), 0);
  server.RequestShutdown();
  server.Wait();
}

TEST(ServeBasicsTest, PingReportsProtocolVersion) {
  ServeOptions options;
  options.threads = 1;
  JobServer server(options);
  ASSERT_TRUE(server.Start().ok());
  ServeClient client = ConnectOrDie(server);
  EXPECT_EQ(client.protocol(), kServeProtocolVersion);

  ServeRequest ping;
  ping.verb = ServeVerb::kPing;
  ping.id = 42;
  ASSERT_TRUE(client.Send(ping).ok());
  auto pong = client.ReadEvent();
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(EventName(*pong), "pong");
  EXPECT_EQ(pong->Find("protocol")->GetUint().value(),
            static_cast<uint64_t>(kServeProtocolVersion));
  EXPECT_EQ(pong->Find("id")->GetUint().value(), 42u);
}

TEST(ServeBasicsTest, MalformedLinesDoNotPoisonTheConnection) {
  ServeOptions options;
  options.threads = 1;
  JobServer server(options);
  ASSERT_TRUE(server.Start().ok());
  ServeClient client = ConnectOrDie(server);

  ASSERT_TRUE(client.SendText("{this is not json").ok());
  auto error = client.ReadEvent();
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(EventName(*error), "error");
  EXPECT_EQ(EventCode(*error), "InvalidArgument");

  ASSERT_TRUE(client.SendText("{\"verb\": \"teleport\"}").ok());
  error = client.ReadEvent();
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(EventName(*error), "error");

  ServeRequest ping;
  ping.verb = ServeVerb::kPing;
  ASSERT_TRUE(client.Send(ping).ok());
  auto pong = client.ReadEvent();
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(EventName(*pong), "pong");
}

TEST(ServeBasicsTest, StatusOfUnknownJobIsNotFound) {
  ServeOptions options;
  options.threads = 1;
  JobServer server(options);
  ASSERT_TRUE(server.Start().ok());
  ServeClient client = ConnectOrDie(server);
  JsonValue event = QueryStatus(&client, 999);
  EXPECT_EQ(EventName(event), "error");
  EXPECT_EQ(EventCode(event), "NotFound");
}

// Bounded terminal retention on the standalone queue: past the cap the
// oldest-completed record is evicted, queries for it fail with
// kFailedPrecondition (distinct from the kNotFound of a never-issued
// id), and the lifetime tallies keep counting evicted jobs.
TEST(JobQueueTest, TerminalRetentionEvictsOldestCompleted) {
  ThreadPool pool(1);
  JobQueue queue(&pool, 8, /*max_terminal_jobs=*/2);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 3; ++i) {
    auto id = queue.Submit(UniformSpec(/*seed=*/40 + i, /*rows=*/60));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  // One worker: jobs finish in submission order, so job 1 is the oldest
  // completion and the one eviction removes.
  queue.Drain();

  auto evicted = queue.Status(ids[0]);
  ASSERT_FALSE(evicted.ok());
  EXPECT_EQ(evicted.status().code(), StatusCode::kFailedPrecondition)
      << evicted.status().ToString();
  EXPECT_EQ(queue.Status(ids[1])->state, JobState::kSucceeded);
  EXPECT_EQ(queue.Status(ids[2])->state, JobState::kSucceeded);

  auto unknown = queue.Status(999);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);

  // The tallies still cover every job ever seen, not just retained ones.
  EXPECT_EQ(queue.total_jobs(), 3u);
  EXPECT_EQ(queue.StateCounts().succeeded, 3u);
}

// The same contract over the wire against a live daemon: with a
// retention cap of 1, the second completion evicts the first job's
// record. Its status is a FailedPrecondition error event while a
// never-issued id stays NotFound, so clients can tell "evicted" apart
// from "wrong id".
TEST(ServeSubmitTest, EvictedJobStatusIsDistinctFromUnknown) {
  ServeOptions options;
  options.threads = 1;
  options.max_terminal_jobs = 1;
  JobServer server(options);
  ASSERT_TRUE(server.Start().ok());
  ServeClient client = ConnectOrDie(server);

  auto first = client.SubmitAndWait(
      UniformSpec(/*seed=*/7, /*rows=*/120).ToJson());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(EventState(*first), "succeeded");
  const uint64_t first_id = EventJob(*first);
  ASSERT_GT(first_id, 0u);

  auto second = client.SubmitAndWait(
      UniformSpec(/*seed=*/8, /*rows=*/120).ToJson());
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_EQ(EventState(*second), "succeeded");
  const uint64_t second_id = EventJob(*second);

  JsonValue evicted = QueryStatus(&client, first_id);
  EXPECT_EQ(EventName(evicted), "error");
  EXPECT_EQ(EventCode(evicted), "FailedPrecondition");

  JsonValue kept = QueryStatus(&client, second_id);
  EXPECT_EQ(EventName(kept), "state");
  EXPECT_EQ(EventState(kept), "succeeded");

  JsonValue unknown = QueryStatus(&client, 999);
  EXPECT_EQ(EventName(unknown), "error");
  EXPECT_EQ(EventCode(unknown), "NotFound");
}

TEST(ServeSubmitTest, WaitedSubmitStreamsToSuccess) {
  ServeOptions options;
  options.threads = 2;
  JobServer server(options);
  ASSERT_TRUE(server.Start().ok());
  ServeClient client = ConnectOrDie(server);

  JobSpec spec = UniformSpec(/*seed=*/3, /*rows=*/400);
  auto terminal = client.SubmitAndWait(spec.ToJson());
  ASSERT_TRUE(terminal.ok()) << terminal.status().ToString();
  ASSERT_EQ(EventName(*terminal), "state");
  EXPECT_EQ(EventState(*terminal), "succeeded");
  const JsonValue* report = terminal->Find("report");
  ASSERT_NE(report, nullptr);
  EXPECT_EQ(report->Find("rows")->GetUint().value(), 400u);
  EXPECT_TRUE(report->Find("verification")
                  ->Find("t_close")
                  ->GetBool()
                  .value());
}

// A served job runs and fans out on the daemon's pool, so the daemon's
// --threads sets its width: the spec's execution.threads spawns nothing,
// and the report says the width the job actually ran on.
TEST(ServeSubmitTest, DaemonNotClientSetsServedJobWidth) {
  ServeOptions options;
  options.threads = 2;
  JobServer server(options);
  ASSERT_TRUE(server.Start().ok());
  ServeClient client = ConnectOrDie(server);

  JobSpec spec = UniformSpec(/*seed=*/5, /*rows=*/200);
  spec.execution.threads = 16;
  auto terminal = client.SubmitAndWait(spec.ToJson());
  ASSERT_TRUE(terminal.ok()) << terminal.status().ToString();
  ASSERT_EQ(EventState(*terminal), "succeeded") << terminal->Write(2);
  const JsonValue* report = terminal->Find("report");
  ASSERT_NE(report, nullptr);
  EXPECT_EQ(report->Find("execution")->Find("threads")->GetUint().value(),
            2u);
}

// Odd-numbered clients of the concurrency test send this: a streamed,
// overlapped, hierarchical job of three or more windows, whose window
// steps, shards and merge subtrees all fan out on the daemon's pool from
// inside one of its workers.
JobSpec StreamedSpec(uint64_t seed, size_t rows) {
  JobSpec spec = UniformSpec(seed, rows);
  spec.execution.mode = ExecutionMode::kStreaming;
  spec.execution.overlap_io = true;
  spec.execution.merge_strategy = MergeStrategy::kHierarchical;
  // overlap_io holds two windows plus the k-row read-ahead: 100-row
  // windows.
  spec.execution.max_resident_rows = 2 * 100 + spec.algorithm.k;
  return spec;
}

// The served release must be byte-identical to what the same JobSpec
// produces through RunJob directly — for six concurrent clients at once,
// each on its own connection with its own spec, on a one-worker daemon
// (every fan-out of every job queues behind the others) and on a
// four-worker one.
TEST(ServeSubmitTest, ConcurrentSubmissionsAreIsolatedAndByteIdentical) {
  constexpr int kClients = 6;
  auto make_spec = [](int i) {
    const uint64_t seed = 100 + i;
    const size_t rows = 300 + 40 * i;
    return i % 2 == 1 ? StreamedSpec(seed, rows) : UniformSpec(seed, rows);
  };
  std::vector<std::string> direct(kClients);
  for (int i = 0; i < kClients; ++i) {
    JobSpec spec = make_spec(i);
    spec.output.release_path =
        TempPath("direct_" + std::to_string(i) + ".csv");
    auto report = RunJob(spec);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    if (i % 2 == 1) {
      EXPECT_GE(report->num_windows, 3u) << "client " << i;
    }
    direct[i] = ReadFileOrDie(spec.output.release_path);
    EXPECT_FALSE(direct[i].empty());
  }

  for (size_t threads : {1, 4}) {
    SCOPED_TRACE("daemon threads = " + std::to_string(threads));
    ServeOptions options;
    options.threads = threads;
    options.max_pending = 16;
    JobServer server(options);
    ASSERT_TRUE(server.Start().ok());

    std::vector<std::string> served(kClients);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
      clients.emplace_back([&, i]() {
        JobSpec spec = make_spec(i);
        spec.output.release_path =
            TempPath("concurrent_" + std::to_string(i) + ".csv");
        auto client = ServeClient::Connect("127.0.0.1", server.port());
        ASSERT_TRUE(client.ok()) << client.status().ToString();
        auto terminal = client->SubmitAndWait(spec.ToJson());
        ASSERT_TRUE(terminal.ok()) << terminal.status().ToString();
        ASSERT_EQ(EventState(*terminal), "succeeded")
            << terminal->Write(2);
        served[i] = ReadFileOrDie(spec.output.release_path);
      });
    }
    for (std::thread& thread : clients) thread.join();
    for (int i = 0; i < kClients; ++i) {
      EXPECT_EQ(served[i], direct[i]) << "client " << i;
    }
  }
}

// The golden job pin, served: release bytes and the timing-normalized
// report must equal the committed pins exactly.
TEST(ServeSubmitTest, GoldenJobServedByteIdentical) {
  ServeOptions options;
  options.threads = 2;
  JobServer server(options);
  ASSERT_TRUE(server.Start().ok());
  ServeClient client = ConnectOrDie(server);

  auto spec = JobSpec::FromJsonFile(GoldenDir() + "/job_tclose_first.json");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  spec->input.path = GoldenDir() + "/input_mcd_120.csv";
  spec->output.release_path = TempPath("golden_release.csv");

  auto terminal = client.SubmitAndWait(spec->ToJson());
  ASSERT_TRUE(terminal.ok()) << terminal.status().ToString();
  ASSERT_EQ(EventState(*terminal), "succeeded") << terminal->Write(2);

  EXPECT_EQ(ReadFileOrDie(spec->output.release_path),
            ReadFileOrDie(GoldenDir() + "/release_tclose_first_k5_t30.csv"));

  const JsonValue* report = terminal->Find("report");
  ASSERT_NE(report, nullptr);
  auto pinned =
      ReadJsonFile(GoldenDir() + "/report_tclose_first.json");
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  EXPECT_EQ(NormalizeReport(*report), NormalizeReport(*pinned))
      << "served report drifted from the pin:\n"
      << NormalizeReport(*report).Write(2);
}

// All four taxonomy codes, observed over the wire: spec-level failures
// arrive as error events at submit time, execution failures as failed
// state events — both carrying the StatusCodeName string.
TEST(ServeErrorTaxonomyTest, AllFourCodesTravelOverTheWire) {
  RegisterUndersizedAlgorithm();
  ServeOptions options;
  options.threads = 1;
  JobServer server(options);
  ASSERT_TRUE(server.Start().ok());
  ServeClient client = ConnectOrDie(server);

  // kInvalidSpec: k = 0 is rejected while parsing the submit request.
  ASSERT_TRUE(client
                  .SendText("{\"verb\":\"submit\",\"spec\":{\"version\":1,"
                            "\"input\":{\"kind\":\"synthetic\"},"
                            "\"algorithm\":{\"k\":0}}}")
                  .ok());
  auto event = client.ReadEvent();
  ASSERT_TRUE(event.ok());
  EXPECT_EQ(EventName(*event), "error");
  EXPECT_EQ(EventCode(*event), "InvalidSpec");

  // kUnknownAlgorithm: a name the registry has never heard of.
  ASSERT_TRUE(client
                  .SendText("{\"verb\":\"submit\",\"spec\":{\"version\":1,"
                            "\"input\":{\"kind\":\"synthetic\"},"
                            "\"algorithm\":{\"name\":\"bogus\"}}}")
                  .ok());
  event = client.ReadEvent();
  ASSERT_TRUE(event.ok());
  EXPECT_EQ(EventName(*event), "error");
  EXPECT_EQ(EventCode(*event), "UnknownAlgorithm");

  // kIoError: a spec that validates but whose input cannot be read.
  JobSpec io_spec;
  io_spec.input.kind = InputKind::kCsvPath;
  io_spec.input.path = "/nonexistent/tcm_input.csv";
  io_spec.roles.quasi_identifiers = {"a"};
  io_spec.roles.confidential = "b";
  auto terminal = client.SubmitAndWait(io_spec.ToJson());
  ASSERT_TRUE(terminal.ok()) << terminal.status().ToString();
  ASSERT_EQ(EventName(*terminal), "state");
  EXPECT_EQ(EventState(*terminal), "failed");
  EXPECT_EQ(EventCode(*terminal), "IoError");

  // kPrivacyViolation: an algorithm whose release flunks verification.
  JobSpec violation;
  violation.input.kind = InputKind::kSynthetic;
  violation.input.rows = 64;
  violation.input.seed = 5;
  violation.algorithm.name = "test_undersized_serve";
  violation.algorithm.k = 5;
  violation.algorithm.t = 10.0;
  violation.execution.shard_size = 0;
  violation.verify = true;
  terminal = client.SubmitAndWait(violation.ToJson());
  ASSERT_TRUE(terminal.ok()) << terminal.status().ToString();
  EXPECT_EQ(EventState(*terminal), "failed");
  EXPECT_EQ(EventCode(*terminal), "PrivacyViolation");
}

// max_pending bounds queued + running: the daemon pushes back instead of
// buffering without limit, and frees the slot once the job finishes.
TEST(ServeBackpressureTest, FullQueueRejectsThenRecovers) {
  ServeOptions options;
  options.threads = 1;
  options.max_pending = 1;
  JobServer server(options);
  ASSERT_TRUE(server.Start().ok());
  ServeClient client = ConnectOrDie(server);

  JsonValue accepted = SubmitNoWait(&client, SlowSpec());
  ASSERT_EQ(EventName(accepted), "accepted") << accepted.Write(2);
  const uint64_t job1 = EventJob(accepted);

  JsonValue rejected = SubmitNoWait(&client, SlowSpec());
  EXPECT_EQ(EventName(rejected), "error") << rejected.Write(2);
  EXPECT_EQ(EventCode(rejected), "FailedPrecondition");

  ASSERT_TRUE(WaitUntil([&]() {
    return EventState(QueryStatus(&client, job1)) == "succeeded";
  }));

  JsonValue again = SubmitNoWait(&client, SlowSpec());
  EXPECT_EQ(EventName(again), "accepted") << again.Write(2);
  ASSERT_TRUE(WaitUntil([&]() {
    return EventState(QueryStatus(&client, EventJob(again))) == "succeeded";
  }));
}

TEST(ServeCancelTest, CancelWinsOnQueuedJobsOnly) {
  ServeOptions options;
  options.threads = 1;
  options.max_pending = 4;
  JobServer server(options);
  ASSERT_TRUE(server.Start().ok());
  ServeClient client = ConnectOrDie(server);

  // job1 occupies the single worker; job2 sits in the queue behind it.
  const uint64_t job1 = EventJob(SubmitNoWait(&client, SlowSpec()));
  const uint64_t job2 = EventJob(SubmitNoWait(&client, SlowSpec()));
  ASSERT_NE(job1, 0u);
  ASSERT_NE(job2, 0u);

  ServeRequest cancel;
  cancel.verb = ServeVerb::kCancel;
  cancel.job = job2;
  ASSERT_TRUE(client.Send(cancel).ok());
  auto cancelled = client.ReadEvent();
  ASSERT_TRUE(cancelled.ok());
  EXPECT_EQ(EventState(*cancelled), "cancelled") << cancelled->Write(2);
  EXPECT_EQ(EventState(QueryStatus(&client, job2)), "cancelled");

  // Cancelling an unknown id is NotFound; cancelling a finished job is a
  // no-op that reports the (unchanged) terminal state.
  cancel.job = 999;
  ASSERT_TRUE(client.Send(cancel).ok());
  auto missing = client.ReadEvent();
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(EventCode(*missing), "NotFound");

  ASSERT_TRUE(WaitUntil([&]() {
    return EventState(QueryStatus(&client, job1)) == "succeeded";
  }));
  cancel.job = job1;
  ASSERT_TRUE(client.Send(cancel).ok());
  auto too_late = client.ReadEvent();
  ASSERT_TRUE(too_late.ok());
  EXPECT_EQ(EventState(*too_late), "succeeded") << too_late->Write(2);
}

// ----- the stats verb (protocol v2 observability) -------------------------

JsonValue QueryStats(ServeClient* client) {
  auto event = client->Stats();
  EXPECT_TRUE(event.ok()) << event.status().ToString();
  return std::move(event).value();
}

uint64_t JobsCount(const JsonValue& stats, const char* state) {
  const JsonValue* jobs = stats.Find("jobs");
  EXPECT_NE(jobs, nullptr);
  if (jobs == nullptr) return 0;
  const JsonValue* value = jobs->Find(state);
  EXPECT_NE(value, nullptr) << state;
  return value != nullptr ? value->GetUint().value_or(0) : 0;
}

// A fresh daemon answers stats with the documented shape: pinned
// protocol + stats_schema versions, all five job states at zero, zero
// queue depth, and the three metric families.
TEST(ServeStatsTest, StatsEventShapeAndVersionPins) {
  ServeOptions options;
  options.threads = 1;
  JobServer server(options);
  ASSERT_TRUE(server.Start().ok());
  ServeClient client = ConnectOrDie(server);

  JsonValue stats = QueryStats(&client);
  EXPECT_EQ(EventName(stats), "stats") << stats.Write(2);
  EXPECT_EQ(stats.Find("protocol")->GetUint().value(),
            static_cast<uint64_t>(kServeProtocolVersion));
  EXPECT_EQ(stats.Find("stats_schema")->GetUint().value(),
            static_cast<uint64_t>(kStatsSchemaVersion));
  for (const char* state :
       {"queued", "running", "succeeded", "failed", "cancelled"}) {
    EXPECT_EQ(JobsCount(stats, state), 0u) << state;
  }
  EXPECT_EQ(stats.Find("queue_depth")->GetUint().value(), 0u);
  const JsonValue* metrics = stats.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  for (const char* family : {"counters", "gauges", "histograms"}) {
    EXPECT_NE(metrics->Find(family), nullptr) << family;
  }
}

// After one succeeded and one failed job, the per-daemon state counts
// are exact, and the process-wide job-latency histogram has grown and
// reports ordered, populated quantiles. (The metrics registry is global
// across all suites in this binary, so metric assertions are deltas.)
TEST(ServeStatsTest, StatsCountsJobsAndLatencyQuantiles) {
  const uint64_t latency_before =
      MetricsRegistry::Global()
          .HistogramStats("serve.job_latency_seconds")
          .count;

  ServeOptions options;
  options.threads = 1;
  JobServer server(options);
  ASSERT_TRUE(server.Start().ok());
  ServeClient client = ConnectOrDie(server);

  auto terminal = client.SubmitAndWait(UniformSpec(/*seed=*/7,
                                                   /*rows=*/200)
                                           .ToJson());
  ASSERT_TRUE(terminal.ok()) << terminal.status().ToString();
  ASSERT_EQ(EventState(*terminal), "succeeded") << terminal->Write(2);

  JobSpec io_spec;
  io_spec.input.kind = InputKind::kCsvPath;
  io_spec.input.path = "/nonexistent/tcm_stats_input.csv";
  io_spec.roles.quasi_identifiers = {"a"};
  io_spec.roles.confidential = "b";
  terminal = client.SubmitAndWait(io_spec.ToJson());
  ASSERT_TRUE(terminal.ok()) << terminal.status().ToString();
  ASSERT_EQ(EventState(*terminal), "failed");

  JsonValue stats = QueryStats(&client);
  EXPECT_EQ(JobsCount(stats, "succeeded"), 1u) << stats.Write(2);
  EXPECT_EQ(JobsCount(stats, "failed"), 1u);
  EXPECT_EQ(JobsCount(stats, "queued"), 0u);
  EXPECT_EQ(JobsCount(stats, "running"), 0u);
  EXPECT_EQ(stats.Find("queue_depth")->GetUint().value(), 0u);

  const JsonValue* histogram = stats.Find("metrics")
                                   ->Find("histograms")
                                   ->Find("serve.job_latency_seconds");
  ASSERT_NE(histogram, nullptr) << stats.Write(2);
  EXPECT_GE(histogram->Find("count")->GetUint().value(),
            latency_before + 2);
  const double p50 = histogram->Find("p50")->number_value();
  const double p99 = histogram->Find("p99")->number_value();
  EXPECT_GE(p50, 0.0);
  EXPECT_GE(p99, p50);
}

// queue_depth counts jobs that are queued but not yet running: with a
// single worker pinned by a slow job, a second submission shows up in
// the depth, and a drained daemon reports zero again.
TEST(ServeStatsTest, QueueDepthTracksQueuedJobs) {
  ServeOptions options;
  options.threads = 1;
  options.max_pending = 4;
  JobServer server(options);
  ASSERT_TRUE(server.Start().ok());
  ServeClient client = ConnectOrDie(server);

  const uint64_t job1 = EventJob(SubmitNoWait(&client, SlowSpec()));
  const uint64_t job2 = EventJob(SubmitNoWait(&client, SlowSpec()));
  ASSERT_NE(job1, 0u);
  ASSERT_NE(job2, 0u);

  JsonValue stats = QueryStats(&client);
  EXPECT_EQ(JobsCount(stats, "queued") + JobsCount(stats, "running"), 2u)
      << stats.Write(2);
  EXPECT_EQ(stats.Find("queue_depth")->GetUint().value(),
            JobsCount(stats, "queued"));

  ASSERT_TRUE(WaitUntil([&]() {
    return EventState(QueryStatus(&client, job2)) == "succeeded";
  }));
  stats = QueryStats(&client);
  EXPECT_EQ(JobsCount(stats, "succeeded"), 2u) << stats.Write(2);
  EXPECT_EQ(JobsCount(stats, "queued"), 0u);
  EXPECT_EQ(stats.Find("queue_depth")->GetUint().value(), 0u);
}

// Graceful drain: a shutdown requested mid-job still runs the job to
// completion and delivers its final event; new submissions and new
// connections are refused.
TEST(ServeShutdownTest, DrainFinishesJobsAndDeliversFinalEvents) {
  ServeOptions options;
  options.threads = 1;
  JobServer server(options);
  ASSERT_TRUE(server.Start().ok());

  JobSpec spec = SlowSpec();
  spec.output.release_path = TempPath("drain_release.csv");
  std::remove(spec.output.release_path.c_str());

  JsonValue terminal;
  std::thread waiter([&]() {
    auto client = ServeClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok());
    auto event = client->SubmitAndWait(spec.ToJson());
    ASSERT_TRUE(event.ok()) << event.status().ToString();
    terminal = std::move(event).value();
  });

  ASSERT_TRUE(WaitUntil([&]() { return server.pending_jobs() > 0; }));
  ServeClient bystander = ConnectOrDie(server);
  server.RequestShutdown();

  // The pre-existing connection is refused new work immediately...
  JsonValue refused = SubmitNoWait(&bystander, SlowSpec());
  EXPECT_EQ(EventName(refused), "error") << refused.Write(2);
  EXPECT_EQ(EventCode(refused), "FailedPrecondition");

  server.Wait();
  waiter.join();

  // ...the in-flight job finished, wrote its release and delivered its
  // terminal event before the socket went away.
  EXPECT_EQ(EventState(terminal), "succeeded") << terminal.Write(2);
  EXPECT_FALSE(ReadFileOrDie(spec.output.release_path).empty());

  // ...and the listener is gone.
  auto late = ServeClient::Connect("127.0.0.1", server.port());
  EXPECT_FALSE(late.ok());
}

TEST(ServeShutdownTest, RemoteShutdownVerbDrainsTheDaemon) {
  ServeOptions options;
  options.threads = 1;
  JobServer server(options);
  ASSERT_TRUE(server.Start().ok());
  ServeClient client = ConnectOrDie(server);

  ServeRequest shutdown;
  shutdown.verb = ServeVerb::kShutdown;
  ASSERT_TRUE(client.Send(shutdown).ok());
  auto draining = client.ReadEvent();
  ASSERT_TRUE(draining.ok());
  EXPECT_EQ(EventName(*draining), "draining");

  server.Wait();
  auto late = ServeClient::Connect("127.0.0.1", server.port());
  EXPECT_FALSE(late.ok());
}

TEST(ServeShutdownTest, RemoteShutdownVerbCanBeDisabled) {
  ServeOptions options;
  options.threads = 1;
  options.allow_remote_shutdown = false;
  JobServer server(options);
  ASSERT_TRUE(server.Start().ok());
  ServeClient client = ConnectOrDie(server);

  ServeRequest shutdown;
  shutdown.verb = ServeVerb::kShutdown;
  ASSERT_TRUE(client.Send(shutdown).ok());
  auto refused = client.ReadEvent();
  ASSERT_TRUE(refused.ok());
  EXPECT_EQ(EventName(*refused), "error");
  EXPECT_EQ(EventCode(*refused), "Unimplemented");

  // Still alive and serving.
  ServeRequest ping;
  ping.verb = ServeVerb::kPing;
  ASSERT_TRUE(client.Send(ping).ok());
  auto pong = client.ReadEvent();
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(EventName(*pong), "pong");
}

// Regression: RequestShutdown (any thread) used to call ::shutdown on
// the bare listen fd while Wait concurrently ::close()d and invalidated
// it — a race that could hit a recycled descriptor. Both sides now
// serialize on shutdown_mutex_; hammering shutdown requests from many
// threads while the owner runs the Wait teardown must stay clean under
// the TSan preset and never wedge.
TEST(ServeShutdownTest, ConcurrentShutdownRequestsAndWaitAreSafe) {
  for (int round = 0; round < 8; ++round) {
    ServeOptions options;
    options.threads = 1;
    JobServer server(options);
    ASSERT_TRUE(server.Start().ok());
    std::vector<std::thread> requesters;
    requesters.reserve(8);
    for (int i = 0; i < 8; ++i) {
      requesters.emplace_back([&server]() { server.RequestShutdown(); });
    }
    server.Wait();  // drains; must not race the requesters' ::shutdown
    for (std::thread& thread : requesters) thread.join();
  }
}

// ----- connection hardening (shared with the HTTP front) ------------------

// The idle timeout reaps an NDJSON connection whose peer goes silent:
// the handler's blocked ReadLine fails with the timeout IoError, the
// connection closes, and the client sees end of stream — without any
// shutdown being requested.
TEST(ServeHardeningTest, IdleNdjsonConnectionIsReaped) {
  ServeOptions options;
  options.threads = 1;
  options.idle_timeout_ms = 200;
  JobServer server(options);
  ASSERT_TRUE(server.Start().ok());
  ServeClient client = ConnectOrDie(server);

  // Say nothing after the hello: the server must hang up on us.
  const auto start = steady_clock::now();
  auto event = client.ReadEvent();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           steady_clock::now() - start)
                           .count();
  EXPECT_FALSE(event.ok()) << event->Write(2);
  EXPECT_LT(elapsed, 5 * 200) << "reap took " << elapsed << " ms";

  // The daemon itself is untouched: a new, active client is served.
  ServeClient fresh = ConnectOrDie(server);
  ServeRequest ping;
  ping.verb = ServeVerb::kPing;
  ASSERT_TRUE(fresh.Send(ping).ok());
  EXPECT_TRUE(fresh.ReadEvent().ok());
}

// An active connection is NOT reaped while it keeps talking, even when
// every pause between its requests approaches the timeout.
TEST(ServeHardeningTest, ActiveConnectionSurvivesTheIdleTimeout) {
  ServeOptions options;
  options.threads = 1;
  options.idle_timeout_ms = 300;
  JobServer server(options);
  ASSERT_TRUE(server.Start().ok());
  ServeClient client = ConnectOrDie(server);
  for (int i = 0; i < 4; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    ServeRequest ping;
    ping.verb = ServeVerb::kPing;
    ASSERT_TRUE(client.Send(ping).ok());
    auto pong = client.ReadEvent();
    ASSERT_TRUE(pong.ok()) << pong.status().ToString() << " at round " << i;
    EXPECT_EQ(EventName(*pong), "pong");
  }
}

// The connection cap: past it, a connecting NDJSON client is told why
// in an error event (surfaced by ServeClient::Connect as the server's
// own kFailedPrecondition message, not a protocol failure), and the
// slot frees once an admitted connection goes away.
TEST(ServeHardeningTest, ConnectionCapRejectsCleanlyAndRecovers) {
  ServeOptions options;
  options.threads = 1;
  options.max_connections = 1;
  JobServer server(options);
  ASSERT_TRUE(server.Start().ok());

  {
    ServeClient first = ConnectOrDie(server);
    // A round trip guarantees `first` is registered in the connection
    // table before the second connect reaches the accept loop.
    ServeRequest ping;
    ping.verb = ServeVerb::kPing;
    ASSERT_TRUE(first.Send(ping).ok());
    ASSERT_TRUE(first.ReadEvent().ok());

    auto second = ServeClient::Connect("127.0.0.1", server.port());
    ASSERT_FALSE(second.ok());
    EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition)
        << second.status().ToString();
    EXPECT_NE(second.status().message().find("connection limit"),
              std::string::npos)
        << second.status().ToString();
  }  // first disconnects; its slot frees on the next accept's reap

  ASSERT_TRUE(WaitUntil([&]() {
    return ServeClient::Connect("127.0.0.1", server.port()).ok();
  }));
}

// Regression companion to the Connection.done publication-ordering
// audit: many short-lived connections force the accept loop's reap
// sweep (done acquire-load + join) to run against handlers finishing
// concurrently; the final drain must still account for every handler.
TEST(ServeShutdownTest, ShortLivedConnectionsAreReapedSafely) {
  ServeOptions options;
  options.threads = 1;
  JobServer server(options);
  ASSERT_TRUE(server.Start().ok());
  for (int i = 0; i < 32; ++i) {
    ServeClient client = ConnectOrDie(server);
    ServeRequest ping;
    ping.verb = ServeVerb::kPing;
    ASSERT_TRUE(client.Send(ping).ok());
    auto pong = client.ReadEvent();
    ASSERT_TRUE(pong.ok());
    EXPECT_EQ(EventName(*pong), "pong");
    // client destructor closes the socket; the handler thread finishes
    // on its own schedule and is reaped by a later accept or the drain.
  }
  server.RequestShutdown();
  server.Wait();
}

}  // namespace
}  // namespace tcm
