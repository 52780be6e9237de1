// Integration wall for the HTTP/1.1 front of tcm_serve (serve/http.h):
// every suite boots a REAL JobServer with the HTTP listener enabled and
// speaks raw HTTP over a real TCP socket — no client library, so the
// bytes on the wire are exactly what is asserted. Load-bearing
// properties pinned here: the five routes map 1:1 onto the NDJSON
// verbs and answer with the same event objects, the taxonomy-to-status
// mapping of HttpStatusForCode, bearer auth (with the /healthz
// exemption), keep-alive/pipelining, and the hardening bounds — head
// and body limits, the slowloris request deadline, the idle reap and
// the shared connection cap.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/http.h"
#include "tcm/api.h"

namespace tcm {
namespace {

using std::chrono::steady_clock;

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

// ----- a raw HTTP/1.1 client: a socket and nothing else -------------------

class RawClient {
 public:
  RawClient() = default;
  explicit RawClient(uint16_t port) { Connect(port); }
  ~RawClient() { Close(); }
  RawClient(const RawClient&) = delete;
  RawClient& operator=(const RawClient&) = delete;

  void Connect(uint16_t port) {
    Close();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd_, 0);
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(port);
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr), 1);
    ASSERT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&address),
                        sizeof(address)),
              0)
        << std::strerror(errno);
  }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  bool connected() const { return fd_ >= 0; }

  void Send(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                         MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      ASSERT_GT(n, 0) << std::strerror(errno);
      sent += static_cast<size_t>(n);
    }
  }

  // Reads one full response (head + Content-Length body) off the
  // buffered stream. Empty string at end of stream.
  std::string ReadResponse() {
    size_t head_end;
    while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      if (!Fill()) return "";
    }
    const std::string head = buffer_.substr(0, head_end + 4);
    size_t body_size = 0;
    size_t marker = head.find("Content-Length: ");
    if (marker != std::string::npos) {
      body_size = static_cast<size_t>(
          std::strtoul(head.c_str() + marker + 16, nullptr, 10));
    }
    while (buffer_.size() < head_end + 4 + body_size) {
      if (!Fill()) return "";
    }
    std::string response = buffer_.substr(0, head_end + 4 + body_size);
    buffer_.erase(0, head_end + 4 + body_size);
    return response;
  }

  // True when the server closed the stream (no further bytes).
  bool AtEof() {
    if (!buffer_.empty()) return false;
    return !Fill();
  }

 private:
  bool Fill() {
    char chunk[4096];
    ssize_t n;
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

int StatusOf(const std::string& response) {
  // "HTTP/1.1 NNN ..." — the three digits after the first space.
  if (response.size() < 12) return 0;
  return std::atoi(response.c_str() + 9);
}

JsonValue BodyOf(const std::string& response) {
  size_t head_end = response.find("\r\n\r\n");
  EXPECT_NE(head_end, std::string::npos) << response;
  auto parsed = ParseJson(response.substr(head_end + 4));
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << response;
  return parsed.ok() ? std::move(parsed).value() : JsonValue();
}

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

std::string Request(const std::string& method, const std::string& target,
                    const std::string& body = "",
                    const std::string& extra_headers = "") {
  std::string out = method + " " + target + " HTTP/1.1\r\n";
  out += "Host: 127.0.0.1\r\n";
  if (!body.empty() || method == "POST") {
    out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  out += extra_headers;
  out += "\r\n";
  out += body;
  return out;
}

// Boots a server with the HTTP front on and returns it started.
ServeOptions HttpOptions() {
  ServeOptions options;
  options.threads = 2;
  options.enable_http = true;
  return options;
}

// ----- the wall -----------------------------------------------------------

// The documented taxonomy-to-status mapping, pinned code by code. The
// README table is linted against HttpStatusForCode; this test is the
// third leg that keeps function, docs and expectations agreeing.
TEST(HttpMappingTest, StatusForEveryTaxonomyCode) {
  EXPECT_EQ(HttpStatusForCode(StatusCode::kOk), 200);
  EXPECT_EQ(HttpStatusForCode(StatusCode::kInvalidArgument), 400);
  EXPECT_EQ(HttpStatusForCode(StatusCode::kNotFound), 404);
  EXPECT_EQ(HttpStatusForCode(StatusCode::kFailedPrecondition), 409);
  EXPECT_EQ(HttpStatusForCode(StatusCode::kOutOfRange), 400);
  EXPECT_EQ(HttpStatusForCode(StatusCode::kInternal), 500);
  EXPECT_EQ(HttpStatusForCode(StatusCode::kIoError), 500);
  EXPECT_EQ(HttpStatusForCode(StatusCode::kUnimplemented), 501);
  EXPECT_EQ(HttpStatusForCode(StatusCode::kInvalidSpec), 422);
  EXPECT_EQ(HttpStatusForCode(StatusCode::kUnknownAlgorithm), 422);
  EXPECT_EQ(HttpStatusForCode(StatusCode::kPrivacyViolation), 500);
}

TEST(HttpRoutesTest, HealthzAnswersPong) {
  JobServer server(HttpOptions());
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.http_port(), 0);
  EXPECT_NE(server.http_port(), server.port());

  RawClient client(server.http_port());
  client.Send(Request("GET", "/healthz"));
  std::string response = client.ReadResponse();
  EXPECT_EQ(StatusOf(response), 200) << response;
  JsonValue body = BodyOf(response);
  EXPECT_EQ(EventName(body), "pong");
  EXPECT_EQ(body.Find("protocol")->GetUint().value(),
            static_cast<uint64_t>(kServeProtocolVersion));
}

TEST(HttpRoutesTest, MetricszAnswersStatsEvent) {
  JobServer server(HttpOptions());
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.http_port());
  client.Send(Request("GET", "/metricsz"));
  std::string response = client.ReadResponse();
  EXPECT_EQ(StatusOf(response), 200) << response;
  JsonValue body = BodyOf(response);
  EXPECT_EQ(EventName(body), "stats");
  EXPECT_EQ(body.Find("stats_schema")->GetUint().value(),
            static_cast<uint64_t>(kStatsSchemaVersion));
  ASSERT_NE(body.Find("jobs"), nullptr);
  ASSERT_NE(body.Find("metrics"), nullptr);
  for (const char* family : {"counters", "gauges", "histograms"}) {
    EXPECT_NE(body.Find("metrics")->Find(family), nullptr) << family;
  }
}

// Submit / poll / cancel through the routes, sharing one job namespace
// with the NDJSON front: a job submitted over HTTP is visible to an
// NDJSON status query and vice versa.
TEST(HttpRoutesTest, SubmitPollCancelAndCrossProtocolVisibility) {
  JobServer server(HttpOptions());
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.http_port());

  client.Send(
      Request("POST", "/jobs", UniformSpec(/*seed=*/21, /*rows=*/200)
                                   .ToJson()
                                   .Write(-1)));
  std::string response = client.ReadResponse();
  EXPECT_EQ(StatusOf(response), 202) << response;
  JsonValue accepted = BodyOf(response);
  EXPECT_EQ(EventName(accepted), "accepted");
  const uint64_t job = EventJob(accepted);
  ASSERT_GT(job, 0u);

  ASSERT_TRUE(WaitUntil([&]() {
    client.Send(Request("GET", "/jobs/" + std::to_string(job)));
    return EventState(BodyOf(client.ReadResponse())) == "succeeded";
  }));

  // The same job over the NDJSON front: one namespace, same record.
  auto ndjson = ServeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(ndjson.ok()) << ndjson.status().ToString();
  ServeRequest status_request;
  status_request.verb = ServeVerb::kStatus;
  status_request.job = job;
  ASSERT_TRUE(ndjson->Send(status_request).ok());
  auto event = ndjson->ReadEvent();
  ASSERT_TRUE(event.ok());
  EXPECT_EQ(EventState(*event), "succeeded") << event->Write(2);

  // DELETE on a finished job is the cancel no-op: 200 with the
  // unchanged terminal state, exactly like the verb.
  client.Send(Request("DELETE", "/jobs/" + std::to_string(job)));
  response = client.ReadResponse();
  EXPECT_EQ(StatusOf(response), 200) << response;
  EXPECT_EQ(EventState(BodyOf(response)), "succeeded");
}

TEST(HttpRoutesTest, WaitedSubmitReturnsTerminalStateWithReport) {
  JobServer server(HttpOptions());
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.http_port());
  client.Send(
      Request("POST", "/jobs?wait=1", UniformSpec(/*seed=*/22, /*rows=*/300)
                                          .ToJson()
                                          .Write(-1)));
  std::string response = client.ReadResponse();
  EXPECT_EQ(StatusOf(response), 200) << response;
  JsonValue body = BodyOf(response);
  EXPECT_EQ(EventName(body), "state");
  EXPECT_EQ(EventState(body), "succeeded");
  const JsonValue* report = body.Find("report");
  ASSERT_NE(report, nullptr);
  EXPECT_EQ(report->Find("rows")->GetUint().value(), 300u);
}

// Error taxonomy over HTTP: the same codes as the NDJSON front, carried
// in the error event's "code" with the mapped response status.
TEST(HttpRoutesTest, ErrorsCarryTaxonomyCodeAndMappedStatus) {
  JobServer server(HttpOptions());
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.http_port());

  // kInvalidSpec (422): k = 0.
  client.Send(Request("POST", "/jobs",
                      R"({"version":1,"input":{"kind":"synthetic"},)"
                      R"("algorithm":{"k":0}})"));
  std::string response = client.ReadResponse();
  EXPECT_EQ(StatusOf(response), 422) << response;
  EXPECT_EQ(EventCode(BodyOf(response)), "InvalidSpec");

  // kUnknownAlgorithm (422).
  client.Send(Request("POST", "/jobs",
                      R"({"version":1,"input":{"kind":"synthetic"},)"
                      R"("algorithm":{"name":"bogus"}})"));
  response = client.ReadResponse();
  EXPECT_EQ(StatusOf(response), 422) << response;
  EXPECT_EQ(EventCode(BodyOf(response)), "UnknownAlgorithm");

  // Malformed JSON body: kInvalidArgument (400).
  client.Send(Request("POST", "/jobs", "{this is not json"));
  response = client.ReadResponse();
  EXPECT_EQ(StatusOf(response), 400) << response;
  EXPECT_EQ(EventCode(BodyOf(response)), "InvalidArgument");

  // Unknown job id: kNotFound (404).
  client.Send(Request("GET", "/jobs/999"));
  response = client.ReadResponse();
  EXPECT_EQ(StatusOf(response), 404) << response;
  EXPECT_EQ(EventCode(BodyOf(response)), "NotFound");

  // Malformed job id (400) and unknown route (404).
  client.Send(Request("GET", "/jobs/banana"));
  EXPECT_EQ(StatusOf(client.ReadResponse()), 400);
  client.Send(Request("GET", "/nope"));
  response = client.ReadResponse();
  EXPECT_EQ(StatusOf(response), 404) << response;
  EXPECT_EQ(EventCode(BodyOf(response)), "NotFound");
}

// The body of a response: exactly the bytes after the head.
std::string BodyTextOf(const std::string& response) {
  size_t head_end = response.find("\r\n\r\n");
  EXPECT_NE(head_end, std::string::npos) << response;
  return head_end == std::string::npos ? "" : response.substr(head_end + 4);
}

// A raw NDJSON connection with the server's hello already read.
LineChannel ConnectNdjson(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&address),
                      sizeof(address)),
            0)
      << std::strerror(errno);
  LineChannel channel(fd);
  EXPECT_TRUE(channel.ReadLine().ok());  // hello
  return channel;
}

// One NDJSON request line and the raw event line it answers with,
// newline included (an HTTP body ends with one too).
std::string NdjsonEvent(LineChannel* channel, const std::string& request) {
  EXPECT_TRUE(channel->WriteLine(request).ok());
  auto line = channel->ReadLine();
  EXPECT_TRUE(line.ok()) << line.status().ToString();
  return line.ok() ? *line + "\n" : "";
}

// Both fronts run one dispatcher, so a route's body is byte for byte the
// event its verb answers over NDJSON (requests sent without an id).
TEST(HttpRoutesTest, BodiesAreTheNdjsonEvents) {
  JobServer server(HttpOptions());
  ASSERT_TRUE(server.Start().ok());
  RawClient http(server.http_port());
  LineChannel ndjson = ConnectNdjson(server.port());

  // An idle daemon: /healthz is ping's pong.
  http.Send(Request("GET", "/healthz"));
  EXPECT_EQ(BodyTextOf(http.ReadResponse()),
            NdjsonEvent(&ndjson, R"({"verb":"ping"})"));

  // One finished job: status and cancel (the no-op on a terminal job).
  auto submitter = ServeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(submitter.ok()) << submitter.status().ToString();
  auto done = submitter->SubmitAndWait(
      UniformSpec(/*seed=*/23, /*rows=*/200).ToJson());
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  ASSERT_EQ(EventState(*done), "succeeded") << done->Write(2);
  const std::string job = std::to_string(EventJob(*done));

  http.Send(Request("GET", "/jobs/" + job));
  std::string response = http.ReadResponse();
  EXPECT_EQ(StatusOf(response), 200) << response;
  EXPECT_EQ(BodyTextOf(response),
            NdjsonEvent(&ndjson, R"({"verb":"status","job":)" + job + "}"));

  http.Send(Request("DELETE", "/jobs/" + job));
  response = http.ReadResponse();
  EXPECT_EQ(StatusOf(response), 200) << response;
  EXPECT_EQ(BodyTextOf(response),
            NdjsonEvent(&ndjson, R"({"verb":"cancel","job":)" + job + "}"));

  // An unknown id: the same NotFound error event.
  http.Send(Request("GET", "/jobs/999"));
  response = http.ReadResponse();
  EXPECT_EQ(StatusOf(response), 404) << response;
  EXPECT_EQ(BodyTextOf(response),
            NdjsonEvent(&ndjson, R"({"verb":"status","job":999})"));
}

TEST(HttpRoutesTest, MethodNotAllowedNamesTheAllowedSet) {
  JobServer server(HttpOptions());
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.http_port());

  client.Send(Request("DELETE", "/healthz"));
  std::string response = client.ReadResponse();
  EXPECT_EQ(StatusOf(response), 405) << response;
  EXPECT_NE(response.find("Allow: GET\r\n"), std::string::npos) << response;

  client.Send(Request("GET", "/jobs", "", ""));
  response = client.ReadResponse();
  EXPECT_EQ(StatusOf(response), 405) << response;
  EXPECT_NE(response.find("Allow: POST\r\n"), std::string::npos)
      << response;

  client.Send(Request("POST", "/jobs/3", "{}"));
  response = client.ReadResponse();
  EXPECT_EQ(StatusOf(response), 405) << response;
  EXPECT_NE(response.find("Allow: GET, DELETE\r\n"), std::string::npos)
      << response;
}

// One connection, many requests: keep-alive is the default on 1.1, a
// pipelined pair is answered in order, and "Connection: close" ends the
// stream after the response.
TEST(HttpConnectionTest, KeepAlivePipeliningAndClose) {
  JobServer server(HttpOptions());
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.http_port());

  // Two requests written back to back before any response is read.
  client.Send(Request("GET", "/healthz") + Request("GET", "/metricsz"));
  std::string first = client.ReadResponse();
  std::string second = client.ReadResponse();
  EXPECT_EQ(StatusOf(first), 200);
  EXPECT_EQ(EventName(BodyOf(first)), "pong");
  EXPECT_EQ(StatusOf(second), 200);
  EXPECT_EQ(EventName(BodyOf(second)), "stats");

  client.Send(Request("GET", "/healthz", "", "Connection: close\r\n"));
  std::string last = client.ReadResponse();
  EXPECT_EQ(StatusOf(last), 200);
  EXPECT_NE(last.find("Connection: close\r\n"), std::string::npos) << last;
  EXPECT_TRUE(client.AtEof());
}

TEST(HttpConnectionTest, Http10ClosesAfterTheResponse) {
  JobServer server(HttpOptions());
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.http_port());
  client.Send("GET /healthz HTTP/1.0\r\n\r\n");
  std::string response = client.ReadResponse();
  EXPECT_EQ(StatusOf(response), 200) << response;
  EXPECT_NE(response.find("Connection: close\r\n"), std::string::npos);
  EXPECT_TRUE(client.AtEof());
}

TEST(HttpConnectionTest, Expect100ContinueGetsTheInterimResponse) {
  JobServer server(HttpOptions());
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.http_port());

  const std::string body =
      UniformSpec(/*seed=*/23, /*rows=*/120).ToJson().Write(-1);
  client.Send("POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: " +
              std::to_string(body.size()) +
              "\r\nExpect: 100-continue\r\n\r\n");
  std::string interim = client.ReadResponse();
  EXPECT_EQ(StatusOf(interim), 100) << interim;
  client.Send(body);
  std::string response = client.ReadResponse();
  EXPECT_EQ(StatusOf(response), 202) << response;
  EXPECT_EQ(EventName(BodyOf(response)), "accepted");
}

// ----- auth ---------------------------------------------------------------

TEST(HttpAuthTest, BearerTokenGuardsEveryRouteButHealthz) {
  ServeOptions options = HttpOptions();
  options.http_auth_token = "sesame";
  JobServer server(options);
  ASSERT_TRUE(server.Start().ok());

  {  // No token: 401 with WWW-Authenticate, connection closed.
    RawClient client(server.http_port());
    client.Send(Request("GET", "/metricsz"));
    std::string response = client.ReadResponse();
    EXPECT_EQ(StatusOf(response), 401) << response;
    EXPECT_NE(response.find("WWW-Authenticate: Bearer\r\n"),
              std::string::npos);
    EXPECT_EQ(EventCode(BodyOf(response)), "FailedPrecondition");
    EXPECT_TRUE(client.AtEof());
  }
  {  // Wrong token: still 401.
    RawClient client(server.http_port());
    client.Send(Request("GET", "/metricsz", "",
                        "Authorization: Bearer wrong\r\n"));
    EXPECT_EQ(StatusOf(client.ReadResponse()), 401);
  }
  {  // Right token: 200.
    RawClient client(server.http_port());
    client.Send(Request("GET", "/metricsz", "",
                        "Authorization: Bearer sesame\r\n"));
    std::string response = client.ReadResponse();
    EXPECT_EQ(StatusOf(response), 200) << response;
    EXPECT_EQ(EventName(BodyOf(response)), "stats");
  }
  {  // /healthz stays open for liveness probes.
    RawClient client(server.http_port());
    client.Send(Request("GET", "/healthz"));
    EXPECT_EQ(StatusOf(client.ReadResponse()), 200);
  }
}

// ----- hardening ----------------------------------------------------------

TEST(HttpHardeningTest, OversizedHeadIs431) {
  ServeOptions options = HttpOptions();
  options.http_limits.max_head_bytes = 1024;
  JobServer server(options);
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.http_port());
  client.Send(Request("GET", "/healthz", "",
                      "X-Padding: " + std::string(4096, 'a') + "\r\n"));
  std::string response = client.ReadResponse();
  EXPECT_EQ(StatusOf(response), 431) << response;
  EXPECT_TRUE(client.AtEof());
}

TEST(HttpHardeningTest, OversizedBodyIs413BeforeReadingIt) {
  ServeOptions options = HttpOptions();
  options.http_limits.max_body_bytes = 1024;
  JobServer server(options);
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.http_port());
  // Only the head is sent: the refusal must come from the declared
  // length alone, without waiting for (or buffering) the body.
  client.Send("POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 999999\r\n"
              "\r\n");
  std::string response = client.ReadResponse();
  EXPECT_EQ(StatusOf(response), 413) << response;
  EXPECT_TRUE(client.AtEof());
}

TEST(HttpHardeningTest, PostWithoutContentLengthIs411) {
  JobServer server(HttpOptions());
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.http_port());
  client.Send("POST /jobs HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_EQ(StatusOf(client.ReadResponse()), 411);
}

TEST(HttpHardeningTest, ChunkedTransferEncodingIs501) {
  JobServer server(HttpOptions());
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.http_port());
  client.Send("POST /jobs HTTP/1.1\r\nHost: x\r\n"
              "Transfer-Encoding: chunked\r\n\r\n");
  std::string response = client.ReadResponse();
  EXPECT_EQ(StatusOf(response), 501) << response;
  EXPECT_EQ(EventCode(BodyOf(response)), "Unimplemented");
}

TEST(HttpHardeningTest, UnsupportedVersionIs505) {
  JobServer server(HttpOptions());
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.http_port());
  client.Send("GET /healthz HTTP/2.0\r\n\r\n");
  EXPECT_EQ(StatusOf(client.ReadResponse()), 505);
}

// Conflicting Content-Length repeats are the classic request-smuggling
// split (a fronting proxy may frame by the other occurrence), so any
// repeat — even an agreeing one — is refused outright.
TEST(HttpHardeningTest, DuplicateContentLengthIs400) {
  JobServer server(HttpOptions());
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.http_port());
  client.Send("POST /jobs HTTP/1.1\r\nHost: x\r\n"
              "Content-Length: 2\r\nContent-Length: 44\r\n\r\n{}");
  std::string response = client.ReadResponse();
  EXPECT_EQ(StatusOf(response), 400) << response;
  EXPECT_TRUE(client.AtEof());
}

// A bare-LF head must end at its own blank line even when pipelined
// CRLF data already sits in the buffer behind it — the later CRLF
// boundary must not swallow the second request into the first head.
TEST(HttpHardeningTest, BareLfHeadDoesNotSwallowPipelinedCrlfRequest) {
  JobServer server(HttpOptions());
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.http_port());
  client.Send("GET /healthz HTTP/1.1\nHost: x\n\n"
              "GET /metricsz HTTP/1.1\r\nHost: x\r\n\r\n");
  std::string first = client.ReadResponse();
  EXPECT_EQ(StatusOf(first), 200) << first;
  EXPECT_EQ(EventName(BodyOf(first)), "pong");
  std::string second = client.ReadResponse();
  EXPECT_EQ(StatusOf(second), 200) << second;
  EXPECT_EQ(EventName(BodyOf(second)), "stats");
}

// The slowloris probe: a peer that starts a request and then trickles
// nothing must be answered 408 and evicted within a small multiple of
// the request deadline — it cannot pin a handler thread.
TEST(HttpHardeningTest, SlowlorisIsEvictedByTheRequestDeadline) {
  ServeOptions options = HttpOptions();
  options.http_limits.request_deadline_ms = 300;
  JobServer server(options);
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.http_port());

  const auto start = steady_clock::now();
  client.Send("GET /healthz HTTP/1.1\r\nHost: x\r\nX-Slow: ");  // ...stall
  std::string response = client.ReadResponse();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           steady_clock::now() - start)
                           .count();
  EXPECT_EQ(StatusOf(response), 408) << response;
  EXPECT_TRUE(client.AtEof());
  EXPECT_LT(elapsed, 5 * 300) << "eviction took " << elapsed << " ms";
}

// A mid-body stall is the same attack with a complete head.
TEST(HttpHardeningTest, MidBodyStallIsEvictedByTheRequestDeadline) {
  ServeOptions options = HttpOptions();
  options.http_limits.request_deadline_ms = 300;
  JobServer server(options);
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.http_port());
  client.Send("POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 500\r\n"
              "\r\n{\"half\": ");  // ...stall
  std::string response = client.ReadResponse();
  EXPECT_EQ(StatusOf(response), 408) << response;
  EXPECT_TRUE(client.AtEof());
}

// An idle keep-alive connection (no request in flight) is reaped
// silently by the idle timeout — no 408, just end of stream.
TEST(HttpHardeningTest, IdleConnectionIsReapedByTheIdleTimeout) {
  ServeOptions options = HttpOptions();
  options.idle_timeout_ms = 200;
  JobServer server(options);
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.http_port());
  EXPECT_TRUE(client.AtEof());  // server closes without a response
}

// The connection cap is shared across both fronts: with the table full,
// a new HTTP peer gets 503 + the error event and is closed, and the
// slot frees once an admitted connection goes away.
TEST(HttpHardeningTest, ConnectionCapAnswers503AndRecovers) {
  ServeOptions options = HttpOptions();
  options.max_connections = 1;
  JobServer server(options);
  ASSERT_TRUE(server.Start().ok());

  RawClient first(server.http_port());
  // A round trip guarantees the first connection is registered before
  // the second one reaches the accept loop.
  first.Send(Request("GET", "/healthz"));
  ASSERT_EQ(StatusOf(first.ReadResponse()), 200);

  RawClient second(server.http_port());
  std::string rejected = second.ReadResponse();
  EXPECT_EQ(StatusOf(rejected), 503) << rejected;
  EXPECT_EQ(EventCode(BodyOf(rejected)), "FailedPrecondition");
  EXPECT_TRUE(second.AtEof());

  first.Close();
  // The reap runs on the next accept: retry until the slot frees.
  ASSERT_TRUE(WaitUntil([&]() {
    RawClient retry(server.http_port());
    retry.Send(Request("GET", "/healthz"));
    std::string response = retry.ReadResponse();
    return StatusOf(response) == 200;
  }));
}

}  // namespace
}  // namespace tcm
