#ifndef TCM_SERVE_HTTP_H_
#define TCM_SERVE_HTTP_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "serve/job_queue.h"
#include "serve/protocol.h"

namespace tcm {

// ---------------------------------------------------------------------------
// HTTP/1.1 front of the tcm_serve daemon: the NDJSON verbs of
// serve/protocol.h mapped 1:1 onto routes, with no external
// dependencies. Served from its own listener (the NDJSON protocol is
// hello-first, so one port cannot carry both), sharing the JobQueue,
// connection table, connection cap and idle timeout with the NDJSON
// path. See README.md ("HTTP serving").
//
//   POST   /jobs       submit; body is the JobSpec JSON document.
//                      202 + accepted event, or with "?wait=1" blocks
//                      and returns 200 + the terminal state event.
//   GET    /jobs/N     status. 200 + state event.
//   DELETE /jobs/N     cancel. 200 + state event (shows whether the
//                      cancel won the race, exactly like the verb).
//   GET    /healthz    ping. 200 + pong event. Never requires auth, so
//                      load balancers can probe liveness.
//   GET    /metricsz   stats. 200 + stats event (jobs by state, queue
//                      depth, MetricsRegistry snapshot).
//
// Each route is framing only: it maps onto a ServeRequest and runs
// DispatchServeRequest (serve/protocol.h), the verbs' one
// implementation behind both fronts, answering with the last event the
// verb emits. So response bodies are the NDJSON protocol's event
// objects (accepted / state / pong / stats / error) by construction,
// and an HTTP client branches on exactly the same documents as a socket
// client. Request-level failures carry the error event with the
// taxonomy code in "code" and the HTTP status from HttpStatusForCode().
// There is no shutdown route: shutdown stays an NDJSON/signal-only
// operation.
//
// Auth: when the daemon is started with a bearer token, every route but
// GET /healthz requires "Authorization: Bearer <token>"; a missing or
// wrong token gets 401 and the connection is closed.
//
// Hardening: request head and body sizes are bounded (431 / 413), one
// request must arrive within the request deadline however slowly its
// bytes trickle (408, the slowloris defense), chunked transfer encoding
// is refused (501), and a POST without Content-Length is refused (411).
// Only HTTP/1.0 and HTTP/1.1 are spoken (505 otherwise); keep-alive
// follows the usual defaults (1.1 on, 1.0 off) and the Connection
// header.
// ---------------------------------------------------------------------------

// The one protocol version this front speaks and emits on every
// response status line.
inline constexpr char kHttpVersion[] = "HTTP/1.1";

// Per-request resource bounds (slowloris / memory defense).
struct HttpLimits {
  // Request line + headers together; 431 past the bound.
  size_t max_head_bytes = 64u << 10;
  // Declared Content-Length ceiling; 413 past the bound.
  size_t max_body_bytes = 16u << 20;
  // One whole request (first byte to last body byte) must arrive within
  // this wall-clock budget however slowly bytes trickle in; 408 past
  // it. While a request is in flight the reader re-arms the channel's
  // receive timeout with the remaining budget, so a peer that goes
  // fully silent mid-request cannot pin the handler either. 0 disables
  // the deadline.
  int request_deadline_ms = 0;
};

// One parsed request. Header names are lower-cased; values are
// whitespace-trimmed.
struct HttpRequest {
  std::string method;  // "GET", "POST", ...
  std::string path;    // "/jobs/3" (target before '?')
  std::string query;   // "wait=1" (after '?', may be empty)
  int minor_version = 1;
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  bool keep_alive = true;

  // First header with this (lower-case) name, or nullptr.
  const std::string* FindHeader(std::string_view name) const;
};

// Maps the error taxonomy onto HTTP response statuses. The README
// mapping table is pinned code-by-code against this function by
// tcm_lint, so the docs cannot drift from the implementation.
int HttpStatusForCode(StatusCode code);

// Canonical reason phrase for every status this front emits.
const char* HttpReasonPhrase(int status);

// Serializes one response: status line, Content-Type/Content-Length/
// Connection headers, any `extra_headers` (full "Name: value" strings),
// then the compact JSON body plus a trailing newline.
std::string WriteHttpResponse(int status, const JsonValue& body,
                              bool keep_alive,
                              const std::vector<std::string>& extra_headers =
                                  {});

// Incremental request reader for one connection. Owns the leftover
// bytes between pipelined requests; the channel's reads must go through
// one reader for the connection's lifetime.
class HttpConnectionReader {
 public:
  enum class Outcome {
    kRequest,  // `request` is valid
    kClosed,   // clean end of stream (or idle timeout between requests)
    kError,    // send `error_status` with `error` and close
  };

  struct ReadResult {
    Outcome outcome = Outcome::kClosed;
    HttpRequest request;
    int error_status = 0;
    Status error;  // taxonomy-coded cause, the error event's payload
  };

  // `idle_timeout_ms` is the receive timeout between requests (the idle
  // keep-alive reap), restored on the channel before each request; 0 =
  // none.
  HttpConnectionReader(LineChannel* channel, HttpLimits limits,
                       int idle_timeout_ms)
      : channel_(channel),
        limits_(limits),
        idle_timeout_ms_(idle_timeout_ms) {}

  // Blocks until one whole request arrived (head + declared body) or
  // the connection died / misbehaved.
  ReadResult Read();

 private:
  // Appends more bytes to buffer_. Returns false at end of stream or
  // error; `timed_out` distinguishes an expired read deadline.
  bool FillMore(bool* timed_out);

  LineChannel* channel_;
  HttpLimits limits_;
  int idle_timeout_ms_;
  std::string buffer_;
};

// Serves HTTP requests on `channel` until the peer closes, a limit
// trips, or keep-alive ends. `queue` is the same JobQueue the NDJSON
// protocol submits into, so both fronts observe one job namespace; an
// empty `auth_token` leaves the front unauthenticated.
void ServeHttpConnection(LineChannel* channel, JobQueue* queue,
                         const std::string& auth_token,
                         const HttpLimits& limits, int idle_timeout_ms);

}  // namespace tcm

#endif  // TCM_SERVE_HTTP_H_
