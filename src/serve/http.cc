#include "serve/http.h"

#include <cctype>
#include <charconv>
#include <chrono>
#include <cstring>
#include <optional>
#include <system_error>

#include "api/job.h"
#include "obs/metrics.h"

namespace tcm {
namespace {

using SteadyClock = std::chrono::steady_clock;

std::string ToLower(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string_view Trim(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
    text.remove_prefix(1);
  }
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t')) {
    text.remove_suffix(1);
  }
  return text;
}

// RFC 9110 token characters, the charset of methods and header names.
bool IsTokenChar(char c) {
  if (std::isalnum(static_cast<unsigned char>(c)) != 0) return true;
  return std::strchr("!#$%&'*+-.^_`|~", c) != nullptr;
}

bool IsToken(std::string_view text) {
  if (text.empty()) return false;
  for (char c : text) {
    if (!IsTokenChar(c)) return false;
  }
  return true;
}

// True when the "wait" query parameter asks for a blocking submit
// ("wait", "wait=1" or "wait=true"; anything else is off).
bool QueryWantsWait(std::string_view query) {
  while (!query.empty()) {
    size_t amp = query.find('&');
    std::string_view param = query.substr(0, amp);
    if (param == "wait" || param == "wait=1" || param == "wait=true") {
      return true;
    }
    if (amp == std::string_view::npos) break;
    query.remove_prefix(amp + 1);
  }
  return false;
}

// Constant-time string equality for secrets: examines every byte of the
// candidate (cycling over the expected value, so the loop length depends
// only on attacker-supplied input) and folds the verdict into one
// accumulator — no data-dependent early exit for response timing to
// leak the matched prefix or the secret's length.
bool ConstantTimeEquals(std::string_view candidate,
                        std::string_view expected) {
  unsigned char diff = candidate.size() == expected.size() ? 0 : 1;
  for (size_t i = 0; i < candidate.size(); ++i) {
    const char against =
        expected.empty() ? '\0' : expected[i % expected.size()];
    diff |= static_cast<unsigned char>(
        static_cast<unsigned char>(candidate[i]) ^
        static_cast<unsigned char>(against));
  }
  return diff == 0;
}

// Strict non-negative decimal parse for Content-Length and /jobs/N ids.
std::optional<uint64_t> ParseDecimal(std::string_view text) {
  if (text.empty() || text.size() > 19) return std::nullopt;
  uint64_t value = 0;
  auto result = std::from_chars(text.data(), text.data() + text.size(),
                                value, 10);
  if (result.ec != std::errc() || result.ptr != text.data() + text.size()) {
    return std::nullopt;
  }
  return value;
}

}  // namespace

const std::string* HttpRequest::FindHeader(std::string_view name) const {
  for (const auto& header : headers) {
    if (header.first == name) return &header.second;
  }
  return nullptr;
}

int HttpStatusForCode(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return 200;
    case StatusCode::kInvalidArgument:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kFailedPrecondition:
      return 409;
    case StatusCode::kOutOfRange:
      return 400;
    case StatusCode::kInternal:
      return 500;
    case StatusCode::kIoError:
      return 500;
    case StatusCode::kUnimplemented:
      return 501;
    case StatusCode::kInvalidSpec:
      return 422;
    case StatusCode::kUnknownAlgorithm:
      return 422;
    case StatusCode::kPrivacyViolation:
      return 500;
  }
  return 500;
}

const char* HttpReasonPhrase(int status) {
  switch (status) {
    case 100:
      return "Continue";
    case 200:
      return "OK";
    case 202:
      return "Accepted";
    case 400:
      return "Bad Request";
    case 401:
      return "Unauthorized";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 408:
      return "Request Timeout";
    case 409:
      return "Conflict";
    case 411:
      return "Length Required";
    case 413:
      return "Content Too Large";
    case 422:
      return "Unprocessable Content";
    case 431:
      return "Request Header Fields Too Large";
    case 500:
      return "Internal Server Error";
    case 501:
      return "Not Implemented";
    case 503:
      return "Service Unavailable";
    case 505:
      return "HTTP Version Not Supported";
    default:
      return "Unknown";
  }
}

std::string WriteHttpResponse(int status, const JsonValue& body,
                              bool keep_alive,
                              const std::vector<std::string>& extra_headers) {
  std::string payload = body.Write(-1);
  payload.push_back('\n');

  std::string out(kHttpVersion);
  out += ' ';
  out += std::to_string(status);
  out += ' ';
  out += HttpReasonPhrase(status);
  out += "\r\nContent-Type: application/json\r\nContent-Length: ";
  out += std::to_string(payload.size());
  out += "\r\n";
  for (const std::string& header : extra_headers) {
    out += header;
    out += "\r\n";
  }
  out += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  out += "\r\n";
  out += payload;
  return out;
}

// ------------------------------------------------------ HttpConnectionReader

bool HttpConnectionReader::FillMore(bool* timed_out) {
  char chunk[4096];
  auto n = channel_->ReadRaw(chunk, sizeof(chunk), timed_out);
  if (!n.ok()) return false;
  if (*n == 0) return false;  // end of stream
  buffer_.append(chunk, *n);
  return true;
}

HttpConnectionReader::ReadResult HttpConnectionReader::Read() {
  ReadResult result;
  const bool deadline_set = limits_.request_deadline_ms > 0;
  // The deadline clock starts at the first byte of this request, not at
  // Read() entry: an idle keep-alive connection is the previous
  // request's business (the idle timeout reaps it), while a
  // started-but-trickling request is this one's. Between requests the
  // channel waits under the idle timeout; once a request is in flight
  // every read is re-armed with the remaining deadline budget, so a
  // peer that goes silent mid-request wakes the handler in time to
  // answer 408 instead of pinning it forever.
  std::optional<SteadyClock::time_point> deadline;
  channel_->SetReadTimeout(idle_timeout_ms_);

  auto fail = [&result](int status, Status error) -> ReadResult& {
    result.outcome = Outcome::kError;
    result.error_status = status;
    result.error = std::move(error);
    return result;
  };
  auto past_deadline = [&]() {
    return deadline.has_value() && SteadyClock::now() > *deadline;
  };
  auto arm_read_timeout = [&]() {
    if (!deadline.has_value()) return;
    auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
                         *deadline - SteadyClock::now())
                         .count();
    channel_->SetReadTimeout(
        static_cast<int>(remaining < 1 ? 1 : remaining));
  };

  // Phase 1: accumulate until the blank line ending the head.
  size_t head_end = std::string::npos;
  size_t separator = 0;
  while (true) {
    if (!buffer_.empty() && deadline_set && !deadline.has_value()) {
      deadline = SteadyClock::now() +
                 std::chrono::milliseconds(limits_.request_deadline_ms);
    }
    arm_read_timeout();
    // Both separators are searched and the EARLIER boundary wins: a
    // bare-LF head followed in the same buffer by pipelined CRLF data
    // must end at its own blank line, not at the later CRLF one (which
    // would swallow the next request into this head).
    const size_t crlf = buffer_.find("\r\n\r\n");
    const size_t bare = buffer_.find("\n\n");  // tolerate bare-LF clients
    if (crlf != std::string::npos &&
        (bare == std::string::npos || crlf < bare)) {
      head_end = crlf;
      separator = 4;
    } else {
      head_end = bare;
      separator = 2;
    }
    if (head_end != std::string::npos) break;
    if (buffer_.size() > limits_.max_head_bytes) {
      return fail(431, Status::InvalidArgument(
                           "request head exceeds " +
                           std::to_string(limits_.max_head_bytes) +
                           " bytes"));
    }
    if (past_deadline()) {
      return fail(408, Status::IoError("request did not complete within " +
                                       std::to_string(
                                           limits_.request_deadline_ms) +
                                       " ms"));
    }
    bool timed_out = false;
    if (!FillMore(&timed_out)) {
      if (buffer_.empty()) return result;  // clean close / idle reap
      if (timed_out || past_deadline()) {
        return fail(408,
                    Status::IoError("request stalled mid-head"));
      }
      return result;  // peer vanished mid-request: nothing to answer
    }
  }
  if (past_deadline()) {
    return fail(408, Status::IoError("request did not complete within " +
                                     std::to_string(
                                         limits_.request_deadline_ms) +
                                     " ms"));
  }
  if (head_end > limits_.max_head_bytes) {
    return fail(431, Status::InvalidArgument(
                         "request head exceeds " +
                         std::to_string(limits_.max_head_bytes) + " bytes"));
  }

  // Phase 2: parse request line + headers.
  std::string_view head(buffer_.data(), head_end);
  size_t line_end = head.find('\n');
  std::string_view request_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);
  if (!request_line.empty() && request_line.back() == '\r') {
    request_line.remove_suffix(1);
  }

  size_t sp1 = request_line.find(' ');
  size_t sp2 = sp1 == std::string_view::npos
                   ? std::string_view::npos
                   : request_line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos ||
      request_line.find(' ', sp2 + 1) != std::string_view::npos) {
    return fail(400,
                Status::InvalidArgument("malformed HTTP request line"));
  }
  std::string_view method = request_line.substr(0, sp1);
  std::string_view target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  std::string_view version = request_line.substr(sp2 + 1);
  if (!IsToken(method)) {
    return fail(400, Status::InvalidArgument("malformed HTTP method"));
  }
  if (version == "HTTP/1.1") {
    result.request.minor_version = 1;
  } else if (version == "HTTP/1.0") {
    result.request.minor_version = 0;
  } else {
    return fail(505, Status::InvalidArgument(
                         "only HTTP/1.0 and HTTP/1.1 are supported"));
  }
  if (target.empty() || target.front() != '/') {
    return fail(400, Status::InvalidArgument(
                         "request target must be an absolute path"));
  }
  result.request.method = std::string(method);
  size_t question = target.find('?');
  result.request.path = std::string(target.substr(0, question));
  result.request.query =
      question == std::string_view::npos
          ? std::string()
          : std::string(target.substr(question + 1));

  std::string_view rest =
      line_end == std::string_view::npos ? std::string_view()
                                         : head.substr(line_end + 1);
  while (!rest.empty()) {
    size_t next = rest.find('\n');
    std::string_view line =
        next == std::string_view::npos ? rest : rest.substr(0, next);
    rest = next == std::string_view::npos ? std::string_view()
                                          : rest.substr(next + 1);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;
    if (line.front() == ' ' || line.front() == '\t') {
      return fail(400, Status::InvalidArgument(
                           "obsolete header line folding is not accepted"));
    }
    size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      return fail(400, Status::InvalidArgument("malformed header line"));
    }
    std::string_view name = line.substr(0, colon);
    if (!IsToken(name)) {
      return fail(400, Status::InvalidArgument("malformed header name"));
    }
    result.request.headers.emplace_back(
        ToLower(name), std::string(Trim(line.substr(colon + 1))));
  }

  // Connection semantics and body framing headers.
  result.request.keep_alive = result.request.minor_version >= 1;
  if (const std::string* connection =
          result.request.FindHeader("connection")) {
    std::string value = ToLower(*connection);
    if (value.find("close") != std::string::npos) {
      result.request.keep_alive = false;
    } else if (value.find("keep-alive") != std::string::npos) {
      result.request.keep_alive = true;
    }
  }
  if (result.request.FindHeader("transfer-encoding") != nullptr) {
    return fail(501, Status::Unimplemented(
                         "chunked transfer encoding is not supported; "
                         "send Content-Length"));
  }
  // Exactly one Content-Length may frame the body. Repeats — even
  // agreeing ones — are rejected outright: a proxy in front of the
  // daemon may frame by a different occurrence, which is the classic
  // request-smuggling split (RFC 9110 §8.6).
  const std::string* length_header = nullptr;
  for (const auto& header : result.request.headers) {
    if (header.first != "content-length") continue;
    if (length_header != nullptr) {
      return fail(400, Status::InvalidArgument(
                           "duplicate Content-Length headers"));
    }
    length_header = &header.second;
  }
  uint64_t content_length = 0;
  if (length_header != nullptr) {
    auto parsed = ParseDecimal(*length_header);
    if (!parsed.has_value()) {
      return fail(400,
                  Status::InvalidArgument("malformed Content-Length"));
    }
    content_length = *parsed;
  } else if (result.request.method == "POST") {
    return fail(411, Status::InvalidArgument(
                         "POST requires a Content-Length header"));
  }
  if (content_length > limits_.max_body_bytes) {
    return fail(413, Status::InvalidArgument(
                         "request body exceeds " +
                         std::to_string(limits_.max_body_bytes) + " bytes"));
  }

  buffer_.erase(0, head_end + separator);

  // Phase 3: the declared body. Honour "Expect: 100-continue" so strict
  // clients start sending.
  if (const std::string* expect = result.request.FindHeader("expect")) {
    if (ToLower(*expect).find("100-continue") != std::string::npos &&
        buffer_.size() < content_length) {
      std::string interim(kHttpVersion);
      interim += " 100 ";
      interim += HttpReasonPhrase(100);
      interim += "\r\n\r\n";
      if (!channel_->WriteAll(interim).ok()) return result;
    }
  }
  while (buffer_.size() < content_length) {
    if (past_deadline()) {
      return fail(408, Status::IoError("request did not complete within " +
                                       std::to_string(
                                           limits_.request_deadline_ms) +
                                       " ms"));
    }
    if (deadline_set && !deadline.has_value()) {
      // A bodyless interval can reach here with no deadline armed yet
      // (the whole head sat in the buffer); arm it for the body.
      deadline = SteadyClock::now() +
                 std::chrono::milliseconds(limits_.request_deadline_ms);
    }
    arm_read_timeout();
    bool timed_out = false;
    if (!FillMore(&timed_out)) {
      if (timed_out) {
        return fail(408, Status::IoError("request stalled mid-body"));
      }
      return result;  // peer vanished mid-request
    }
  }
  result.request.body = buffer_.substr(0, content_length);
  buffer_.erase(0, content_length);
  result.outcome = Outcome::kRequest;
  return result;
}

// ------------------------------------------------------- request dispatch

namespace {

// Writes one response; the return value is "keep serving this
// connection" (write succeeded and keep-alive stays on).
bool Respond(LineChannel* channel, const HttpRequest& request, int status,
             const JsonValue& body,
             const std::vector<std::string>& extra_headers = {}) {
  return channel
             ->WriteAll(WriteHttpResponse(status, body, request.keep_alive,
                                          extra_headers))
             .ok() &&
         request.keep_alive;
}

bool RespondError(LineChannel* channel, const HttpRequest& request,
                  const Status& status) {
  return Respond(channel, request, HttpStatusForCode(status.code()),
                 MakeErrorEvent(std::nullopt, status));
}

bool RespondMethodNotAllowed(LineChannel* channel,
                             const HttpRequest& request,
                             const std::string& allow) {
  Status status = Status::InvalidArgument(
      "method " + request.method + " is not allowed on " + request.path +
      " (allowed: " + allow + ")");
  return Respond(channel, request, 405, MakeErrorEvent(std::nullopt, status),
                 {"Allow: " + allow});
}

// Routes one parsed request. Returns "keep serving this connection".
bool HandleHttpRequest(LineChannel* channel, JobQueue* queue,
                       const std::string& auth_token,
                       const HttpRequest& request) {
  MetricsRegistry::Global().IncrementCounter("serve.http_requests");

  // Auth first; only the liveness probe is exempt so load balancers can
  // health-check a token-protected daemon.
  if (!auth_token.empty() && request.path != "/healthz") {
    const std::string* auth = request.FindHeader("authorization");
    const std::string expected = "Bearer " + auth_token;
    if (auth == nullptr || !ConstantTimeEquals(*auth, expected)) {
      Status status = Status::FailedPrecondition(
          "missing or invalid bearer token");
      Respond(channel, request, 401, MakeErrorEvent(std::nullopt, status),
              {"WWW-Authenticate: Bearer"});
      return false;  // never keep serving an unauthenticated peer
    }
  }

  // The route table: each route names one verb of the NDJSON protocol.
  ServeRequest serve_request;
  if (request.path == "/healthz" || request.path == "/metricsz") {
    if (request.method != "GET") {
      return RespondMethodNotAllowed(channel, request, "GET");
    }
    serve_request.verb =
        request.path == "/healthz" ? ServeVerb::kPing : ServeVerb::kStats;
  } else if (request.path == "/jobs") {
    if (request.method != "POST") {
      return RespondMethodNotAllowed(channel, request, "POST");
    }
    auto parsed = ParseJson(request.body);
    if (!parsed.ok()) return RespondError(channel, request, parsed.status());
    auto spec = JobSpec::FromJson(*parsed);
    if (!spec.ok()) return RespondError(channel, request, spec.status());
    serve_request.verb = ServeVerb::kSubmit;
    serve_request.spec = std::move(*spec);
    serve_request.wait = QueryWantsWait(request.query);
  } else if (request.path.rfind("/jobs/", 0) == 0) {
    std::string_view id_text = std::string_view(request.path).substr(6);
    serve_request.job = ParseDecimal(id_text);
    if (!serve_request.job.has_value()) {
      return RespondError(channel, request,
                          Status::InvalidArgument(
                              "job id must be a decimal integer, got \"" +
                              std::string(id_text) + "\""));
    }
    if (request.method != "GET" && request.method != "DELETE") {
      return RespondMethodNotAllowed(channel, request, "GET, DELETE");
    }
    serve_request.verb =
        request.method == "GET" ? ServeVerb::kStatus : ServeVerb::kCancel;
  } else {
    return RespondError(channel, request,
                        Status::NotFound("no such route: " + request.method +
                                         " " + request.path));
  }

  // HTTP carries one response per request, so a verb's event stream
  // collapses to its final element: a waited submit answers with the
  // terminal state (200), an unwaited one with the accepted event (202).
  int status =
      serve_request.verb == ServeVerb::kSubmit && !serve_request.wait ? 202
                                                                        : 200;
  JsonValue last;
  DispatchServeRequest(queue, std::move(serve_request),
                       [&](JsonValue event, StatusCode code) {
                         last = std::move(event);
                         if (code != StatusCode::kOk) {
                           status = HttpStatusForCode(code);
                         }
                         return true;
                       });
  return Respond(channel, request, status, last);
}

}  // namespace

void ServeHttpConnection(LineChannel* channel, JobQueue* queue,
                         const std::string& auth_token,
                         const HttpLimits& limits, int idle_timeout_ms) {
  HttpConnectionReader reader(channel, limits, idle_timeout_ms);
  while (true) {
    HttpConnectionReader::ReadResult read = reader.Read();
    if (read.outcome == HttpConnectionReader::Outcome::kClosed) return;
    if (read.outcome == HttpConnectionReader::Outcome::kError) {
      MetricsRegistry::Global().IncrementCounter("serve.http_bad_requests");
      // A request-level violation poisons the framing (the offending
      // bytes may still sit in the stream), so answer and close.
      channel->WriteAll(WriteHttpResponse(
          read.error_status, MakeErrorEvent(std::nullopt, read.error),
          /*keep_alive=*/false));
      return;
    }
    if (!HandleHttpRequest(channel, queue, auth_token, read.request)) return;
  }
}

}  // namespace tcm
