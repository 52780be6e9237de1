// The two serve workloads: an in-process JobServer with 4 pool threads and
// 4 closed-loop clients, each on one kept-open connection, sending waited
// submits of the bench/serve_load job shape — over NDJSON (ServeClient) or
// over raw keep-alive HTTP/1.1 (POST /jobs?wait=1).
//
// Every request names one of a fixed pool of input data sets, and every
// request carries its own algorithm seed, so no two submissions are the
// same spec. The release of each data set is computed in-process up front;
// every terminal event must be "succeeded" and echo that release's row
// count, cluster count and normalized SSE exactly. release_sse is the mean
// over the pool: a pool this large keeps it steady across seeds.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "tcm/api.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kClients = 4;
constexpr size_t kPoolThreads = 4;
constexpr size_t kRowsPerJob = 48;
// Attempts per request through backpressure and reconnects before the
// request counts as failed.
constexpr int kMaxAttempts = 64;

struct ServeShape {
  size_t data_sets;     // distinct input data sets requests cycle through
  size_t min_requests;  // per run: p99 needs at least 10 samples past it
  int boots;            // server boots timed in set-up
  double warmup_s;      // untimed load before the timed window
};

ServeShape ServeShapeFor(Scale scale) {
  if (scale == Scale::kTiny) return {8, 24, 3, 0.1};
  return {1024, 1000, 50, 1.0};
}

// The bench/serve_load job: 48 uniform rows, two quasi-identifiers,
// tclose_first at k=5, t=0.3, shard_size 64.
tcm::JobSpec ServeSpec(uint64_t data_seed, uint64_t algorithm_seed) {
  tcm::JobSpec spec;
  spec.input.kind = tcm::InputKind::kSynthetic;
  spec.input.generator = "uniform";
  spec.input.rows = kRowsPerJob;
  spec.input.quasi_identifiers = 2;
  spec.input.seed = data_seed;
  spec.algorithm.name = "tclose_first";
  spec.algorithm.k = 5;
  spec.algorithm.t = 0.3;
  spec.algorithm.seed = algorithm_seed;
  spec.execution.shard_size = 64;
  return spec;
}

// What the server must answer for one data set.
struct Expected {
  uint64_t data_seed = 0;
  size_t rows = 0;
  size_t clusters = 0;
  double sse = 0.0;
};

// "" when `event` is a succeeded terminal state whose report matches.
std::string CheckTerminal(const tcm::JsonValue& event,
                          const Expected& expected) {
  const tcm::JsonValue* name = event.Find("event");
  const tcm::JsonValue* state = event.Find("state");
  if (name == nullptr || !name->is_string() ||
      name->string_value() != "state" || state == nullptr ||
      !state->is_string() || state->string_value() != "succeeded") {
    return "terminal event is not a succeeded state: " + event.Write(-1);
  }
  const tcm::JsonValue* report = event.Find("report");
  const tcm::JsonValue* rows = report ? report->Find("rows") : nullptr;
  const tcm::JsonValue* clusters = report ? report->Find("clusters") : nullptr;
  const tcm::JsonValue* value =
      report ? report->Find("normalized_sse") : nullptr;
  if (rows == nullptr || clusters == nullptr || value == nullptr ||
      !value->is_number()) {
    return "terminal event has a malformed report";
  }
  if (rows->GetUint().value_or(0) != expected.rows) {
    return "report echoes " + rows->Write(-1) + " rows, submitted " +
           std::to_string(expected.rows);
  }
  if (clusters->GetUint().value_or(0) != expected.clusters ||
      value->number_value() != expected.sse) {
    return "served release differs from the in-process RunJob release";
  }
  return "";
}

bool IsBackpressure(const tcm::JsonValue& event) {
  const tcm::JsonValue* name = event.Find("event");
  const tcm::JsonValue* code = event.Find("code");
  return name != nullptr && name->is_string() &&
         name->string_value() == "error" && code != nullptr &&
         code->is_string() && code->string_value() == "FailedPrecondition";
}

// ---- a minimal keep-alive HTTP/1.1 client ---------------------------------

class HttpConnection {
 public:
  HttpConnection() = default;
  ~HttpConnection() { Close(); }
  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  bool Connect(uint16_t port) {
    Close();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    timeval timeout{};
    timeout.tv_sec = 30;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&address),
                  sizeof(address)) != 0) {
      Close();
      return false;
    }
    return true;
  }

  bool connected() const { return fd_ >= 0; }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    buffer_.clear();
  }

  bool Send(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  // Reads one response; false on EOF, timeout or a response without a
  // Content-Length.
  bool ReadResponse(int* status, std::string* body) {
    size_t head_end = 0;
    while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      if (!Fill()) return false;
    }
    const std::string head = buffer_.substr(0, head_end);
    if (head.size() < 12 || head.compare(0, 5, "HTTP/") != 0) return false;
    *status = std::atoi(head.c_str() + 9);
    std::string lower = head;
    for (char& c : lower) c = static_cast<char>(std::tolower(c));
    const size_t marker = lower.find("\r\ncontent-length:");
    if (marker == std::string::npos) return false;
    const size_t length = std::strtoul(head.c_str() + marker + 17, nullptr, 10);
    while (buffer_.size() < head_end + 4 + length) {
      if (!Fill()) return false;
    }
    *body = buffer_.substr(head_end + 4, length);
    buffer_.erase(0, head_end + 4 + length);
    return true;
  }

 private:
  bool Fill() {
    char chunk[8192];
    ssize_t n = 0;
    do {
      n = ::recv(fd_, chunk, sizeof(chunk), 0);
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
    return true;
  }

  int fd_ = -1;
  std::string buffer_;
};

// ---- the closed-loop clients -----------------------------------------------

struct LoadConfig {
  Protocol protocol = Protocol::kNdjson;
  uint16_t port = 0;
  // Requests started before measure_from warm the server up: they are
  // checked but not timed. Clients stop at the deadline once min_requests
  // timed requests have completed.
  double measure_from = 0.0;
  double deadline = 0.0;
  size_t min_requests = 0;
  const std::vector<Expected>* expected = nullptr;
  bool inject_verify_failure = false;
};

// A timed request that succeeded: when it was sent and when its terminal
// event arrived.
struct Sample {
  double start = 0.0;
  double end = 0.0;
};

// One client's tallies; merged after the clients join.
struct ClientTally {
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Sample> samples;
  // NDJSON only: when the accepted, running and terminal events arrived.
  std::vector<double> accepted_ms;
  std::vector<double> queue_wait_ms;
  std::vector<double> run_ms;
  size_t backpressure_retries = 0;
  size_t reconnects = 0;

  void Fail(const std::string& message) {
    ++failed;
    if (errors.size() < 4) errors.push_back(message);
  }
};

// The outcome of one exchange attempt.
enum class Attempt { kDone, kRetry, kReconnect };

class Client {
 public:
  Client(const LoadConfig& config, size_t index, std::atomic<size_t>* done,
         ClientTally* tally)
      : config_(config), index_(index), done_(done), tally_(tally) {}

  void Run() {
    for (size_t j = 0;; ++j) {
      if (NowSeconds() >= config_.deadline &&
          done_->load() >= config_.min_requests) {
        return;
      }
      const size_t data_set =
          (index_ + kClients * j) % config_.expected->size();
      const Expected& expected = (*config_.expected)[data_set];
      const uint64_t algorithm_seed = 1 + kClients * j + index_;
      const bool corrupt = config_.inject_verify_failure && index_ == 0 &&
                           j == 0;
      const bool timed = NowSeconds() >= config_.measure_from;
      Request(ServeSpec(expected.data_seed, algorithm_seed), data_set,
              corrupt, timed);
      if (timed) done_->fetch_add(1);
    }
  }

 private:
  void Request(const tcm::JobSpec& spec, size_t data_set, bool corrupt,
               bool timed) {
    ++tally_->attempted;
    Expected expected = (*config_.expected)[data_set];
    if (corrupt) ++expected.rows;
    ScopedSpan span("serve.request", 0, static_cast<int>(index_) + 1);
    const double start = NowSeconds();
    std::string error = "request never completed";
    for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
      const Attempt outcome =
          config_.protocol == Protocol::kNdjson
              ? NdjsonExchange(spec, expected, start, span.id(), timed,
                               &error)
              : HttpExchange(spec, expected, &error);
      if (outcome == Attempt::kDone) {
        if (!error.empty()) {
          tally_->Fail(error);
          return;
        }
        if (timed) tally_->samples.push_back({start, NowSeconds()});
        return;
      }
      if (outcome == Attempt::kReconnect) {
        ++tally_->reconnects;
        ndjson_.reset();
        http_.Close();
      } else {
        ++tally_->backpressure_retries;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1 + attempt));
    }
    tally_->Fail(error);
  }

  Attempt NdjsonExchange(const tcm::JobSpec& spec, const Expected& expected,
                         double start, uint64_t parent, bool timed,
                         std::string* error) {
    if (!ndjson_.has_value()) {
      auto connected = tcm::ServeClient::Connect("127.0.0.1", config_.port);
      if (!connected.ok()) {
        *error = "connect: " + connected.status().ToString();
        return Attempt::kReconnect;
      }
      ndjson_.emplace(std::move(*connected));
    }
    tcm::ServeRequest request;
    request.verb = tcm::ServeVerb::kSubmit;
    request.spec = spec;
    request.wait = true;
    if (!ndjson_->Send(request).ok()) {
      *error = "send failed";
      return Attempt::kReconnect;
    }
    const int tid = static_cast<int>(index_) + 1;
    double accepted = 0.0;
    double running = 0.0;
    for (;;) {
      auto event = ndjson_->ReadEvent();
      const double now = NowSeconds();
      if (!event.ok()) {
        *error = "read: " + event.status().ToString();
        return Attempt::kReconnect;
      }
      if (IsBackpressure(*event)) return Attempt::kRetry;
      const tcm::JsonValue* name = event->Find("event");
      const tcm::JsonValue* state = event->Find("state");
      if (name != nullptr && name->is_string() &&
          name->string_value() == "accepted") {
        accepted = now;
        Tracer::Get().Record("serve.until_accepted", start, now, parent, tid);
        continue;
      }
      if (name != nullptr && name->is_string() &&
          name->string_value() == "state" && state != nullptr &&
          state->is_string() && state->string_value() == "running") {
        running = now;
        continue;
      }
      *error = CheckTerminal(*event, expected);
      if (accepted > 0.0) {
        // A job that finished before the server observed it running has no
        // running event: its whole wait counts as queued.
        const double run_start = running > 0.0 ? running : now;
        if (timed) {
          tally_->accepted_ms.push_back((accepted - start) * 1e3);
          tally_->queue_wait_ms.push_back((run_start - accepted) * 1e3);
          tally_->run_ms.push_back((now - run_start) * 1e3);
        }
        Tracer::Get().Record("serve.queued", accepted, run_start, parent,
                             tid);
        if (running > 0.0) {
          Tracer::Get().Record("serve.running", running, now, parent, tid);
        }
      } else if (error->empty()) {
        *error = "terminal event arrived without an accepted event";
      }
      return Attempt::kDone;
    }
  }

  Attempt HttpExchange(const tcm::JobSpec& spec, const Expected& expected,
                       std::string* error) {
    if (!http_.connected() && !http_.Connect(config_.port)) {
      *error = "connect failed";
      return Attempt::kReconnect;
    }
    const std::string body = spec.ToJson().Write(-1);
    const std::string request =
        "POST /jobs?wait=1 HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        "Content-Type: application/json\r\nContent-Length: " +
        std::to_string(body.size()) + "\r\n\r\n" + body;
    int status = 0;
    std::string response;
    if (!http_.Send(request) || !http_.ReadResponse(&status, &response)) {
      *error = "HTTP exchange failed";
      return Attempt::kReconnect;
    }
    if (status == 409) return Attempt::kRetry;  // backpressure
    if (status == 503) return Attempt::kReconnect;
    auto event = tcm::ParseJson(response);
    if (status != 200 || !event.ok()) {
      *error = "HTTP " + std::to_string(status) + ": " + response;
      return Attempt::kDone;
    }
    *error = CheckTerminal(*event, expected);
    return Attempt::kDone;
  }

  const LoadConfig& config_;
  const size_t index_;
  std::atomic<size_t>* done_;
  ClientTally* tally_;
  std::optional<tcm::ServeClient> ndjson_;
  HttpConnection http_;
};

// ---- set-up and in-process references --------------------------------------

tcm::ServeOptions ServerOptions() {
  tcm::ServeOptions options;
  options.threads = kPoolThreads;
  options.max_pending = 64;
  options.enable_http = true;
  return options;
}

// Boots a server and waits until it answers a ping: the set-up a user of
// an embedded server pays before the first job.
tcm::Status BootServer(std::unique_ptr<tcm::JobServer>* server) {
  *server = std::make_unique<tcm::JobServer>(ServerOptions());
  TCM_RETURN_IF_ERROR((*server)->Start());
  TCM_ASSIGN_OR_RETURN(tcm::ServeClient client,
                       tcm::ServeClient::Connect("127.0.0.1",
                                                 (*server)->port()));
  tcm::ServeRequest ping;
  ping.verb = tcm::ServeVerb::kPing;
  TCM_RETURN_IF_ERROR(client.Send(ping));
  TCM_ASSIGN_OR_RETURN(tcm::JsonValue pong, client.ReadEvent());
  const tcm::JsonValue* name = pong.Find("event");
  if (name == nullptr || !name->is_string() ||
      name->string_value() != "pong") {
    return tcm::Status::Internal("server answered a ping with " +
                                 pong.Write(-1));
  }
  return tcm::Status::Ok();
}

// The server-side p50 job latency, from the stats verb's
// serve.job_latency_seconds histogram; 0 when unavailable.
double ServerJobP50Ms(uint16_t port) {
  auto client = tcm::ServeClient::Connect("127.0.0.1", port);
  if (!client.ok()) return 0.0;
  auto stats = client->Stats();
  if (!stats.ok()) return 0.0;
  const tcm::JsonValue* metrics = stats->Find("metrics");
  const tcm::JsonValue* histograms =
      metrics ? metrics->Find("histograms") : nullptr;
  const tcm::JsonValue* latency =
      histograms ? histograms->Find("serve.job_latency_seconds") : nullptr;
  const tcm::JsonValue* p50 = latency ? latency->Find("p50") : nullptr;
  return p50 != nullptr && p50->is_number() ? p50->number_value() * 1e3
                                            : 0.0;
}

// Median microseconds of `fn` over `repeats` calls; fn returns false on
// failure, which ends the measurement with 0.
template <typename Fn>
double MedianMicros(int repeats, Fn fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(repeats));
  for (int i = 0; i < repeats; ++i) {
    const double start = NowSeconds();
    if (!fn()) return 0.0;
    samples.push_back((NowSeconds() - start) * 1e6);
  }
  return Median(samples);
}

// In-process reference timings of the serve job shape: what one job costs
// without sockets, and what each piece of the serve path costs on its own.
void AddInProcessReferences(const tcm::JobSpec& spec, Outcome* out) {
  constexpr int kRepeats = 400;
  auto& m = out->metrics;
  {
    ScopedSpan span("api.RunJob", 0);
    m["api.run_job_us"] =
        MedianMicros(kRepeats, [&spec]() { return tcm::RunJob(spec).ok(); });
  }
  const std::string text = spec.ToJson().Write(-1);
  m["api.spec_parse_us"] = MedianMicros(kRepeats, [&text]() {
    return tcm::JobSpec::FromJsonText(text).ok();
  });
  auto report = tcm::RunJob(spec);
  if (report.ok()) {
    m["api.report_serialize_us"] = MedianMicros(kRepeats, [&report]() {
      return !report->ToJson().Write(-1).empty();
    });
  }
  m["engine.pool_spawn_us"] = MedianMicros(kRepeats, []() {
    tcm::ThreadPool pool(1);
    return pool.num_threads() == 1;
  });
  tcm::ThreadPool pool(kPoolThreads);
  tcm::JobQueue queue(&pool, 64);
  m["serve.queue_roundtrip_us"] = MedianMicros(kRepeats, [&]() {
    auto id = queue.Submit(spec);
    if (!id.ok()) return false;
    tcm::JobState seen = tcm::JobState::kQueued;
    for (;;) {
      auto snapshot = queue.WaitForChange(*id, seen);
      if (!snapshot.ok()) return false;
      if (tcm::IsTerminalJobState(snapshot->state)) {
        return snapshot->state == tcm::JobState::kSucceeded;
      }
      seen = snapshot->state;
    }
  });
}

// The timed requests' end-to-end figures. The requests, in send order, are
// cut into up to five equal chunks of at least 1000 each (so each chunk's
// p99 has ten samples beyond it), and each figure is the median over the
// chunks: a host stall then moves one chunk, not the run's figure.
struct LoadFigures {
  double p50_s = 0.0;
  double tail_s = 0.0;
  double per_s = 0.0;
};

LoadFigures FiguresOf(std::vector<Sample> samples) {
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.start < b.start; });
  const size_t chunks = std::clamp<size_t>(samples.size() / 1000, 1, 5);
  std::vector<double> p50s, tails, rates;
  for (size_t c = 0; c < chunks; ++c) {
    const size_t begin = samples.size() * c / chunks;
    const size_t end = samples.size() * (c + 1) / chunks;
    std::vector<double> latency;
    double first = 0.0;
    double last = 0.0;
    for (size_t i = begin; i < end; ++i) {
      latency.push_back(samples[i].end - samples[i].start);
      first = i == begin ? samples[i].start : std::min(first, samples[i].start);
      last = std::max(last, samples[i].end);
    }
    if (latency.empty()) continue;
    p50s.push_back(Median(latency));
    tails.push_back(TailLatency(latency));
    rates.push_back(static_cast<double>(latency.size()) / (last - first));
  }
  return {Median(p50s), Median(tails), Median(rates)};
}

}  // namespace

Outcome RunServe(const Args& args, Protocol protocol) {
  Outcome out;
  const ServeShape shape = ServeShapeFor(args.scale);

  // Set-up: boot the server until it answers, several times for a steady
  // median; the last boot serves the load.
  std::unique_ptr<tcm::JobServer> server;
  std::vector<double> boots;
  for (int i = 0; i < shape.boots; ++i) {
    if (server != nullptr) {
      server->RequestShutdown();
      server->Wait();
    }
    const double start = NowSeconds();
    tcm::Status booted = BootServer(&server);
    boots.push_back(NowSeconds() - start);
    if (!booted.ok()) {
      out.Fail("server boot: " + booted.ToString());
      return out;
    }
  }

  // The releases every served job must reproduce. Data seeds stay below
  // 2^53 so they survive the JSON round trip exactly.
  std::vector<Expected> expected(shape.data_sets);
  const uint64_t base = (args.seed % (uint64_t{1} << 40)) * 4096;
  for (size_t i = 0; i < expected.size(); ++i) {
    expected[i].data_seed = base + i;
    auto report = tcm::RunJob(ServeSpec(expected[i].data_seed, 1));
    if (!report.ok()) {
      out.Fail("in-process reference job: " + report.status().ToString());
      return out;
    }
    expected[i].rows = report->rows;
    expected[i].clusters = report->clusters;
    expected[i].sse = report->normalized_sse;
  }

  if (args.trace) Tracer::Get().Enable();
  LoadConfig config;
  config.protocol = protocol;
  config.port =
      protocol == Protocol::kNdjson ? server->port() : server->http_port();
  config.min_requests = shape.min_requests;
  config.expected = &expected;
  config.inject_verify_failure = args.inject_verify_failure;
  std::atomic<size_t> done{0};
  std::vector<ClientTally> tallies(kClients);
  config.measure_from = NowSeconds() + shape.warmup_s;
  config.deadline = config.measure_from + args.seconds;
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&config, c, &done, &tallies]() {
        Client(config, c, &done, &tallies[c]).Run();
      });
    }
    for (std::thread& thread : threads) thread.join();
  }

  ClientTally all;
  for (ClientTally& tally : tallies) {
    out.attempted += tally.attempted;
    out.failed += tally.failed;
    for (const std::string& error : tally.errors) {
      if (out.errors.size() < 8) out.errors.push_back(error);
    }
    auto append = [](auto* to, const auto& from) {
      to->insert(to->end(), from.begin(), from.end());
    };
    append(&all.samples, tally.samples);
    append(&all.accepted_ms, tally.accepted_ms);
    append(&all.queue_wait_ms, tally.queue_wait_ms);
    append(&all.run_ms, tally.run_ms);
    all.backpressure_retries += tally.backpressure_retries;
    all.reconnects += tally.reconnects;
  }

  const LoadFigures figures = FiguresOf(all.samples);
  auto& m = out.metrics;
  if (!args.trace) {
    double sse_sum = 0.0;
    for (const Expected& each : expected) sse_sum += each.sse;
    m["setup_s"] = Median(boots);
    m["job_s"] = figures.p50_s;
    m["release_sse"] = sse_sum / static_cast<double>(expected.size());
    m["jobs_per_s"] = figures.per_s;
    m["latency_p50_ms"] = figures.p50_s * 1e3;
    m["latency_p99_ms"] = figures.tail_s * 1e3;
    m["peak_rss_mb"] = PeakRssMb();
  } else {
    m["serve.accepted_ms"] = Median(all.accepted_ms);
    m["serve.queue_wait_ms"] = Median(all.queue_wait_ms);
    m["serve.run_ms"] = Median(all.run_ms);
    m["serve.backpressure_retries"] =
        static_cast<double>(all.backpressure_retries);
    m["serve.reconnects"] = static_cast<double>(all.reconnects);
    m["serve.server_job_p50_ms"] = ServerJobP50Ms(server->port());
    m["bench.traced_job_s"] = figures.p50_s;
  }
  server->RequestShutdown();
  server->Wait();
  if (args.trace) AddInProcessReferences(ServeSpec(base, 1), &out);
  return out;
}

}  // namespace perfbench
