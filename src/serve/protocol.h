#ifndef TCM_SERVE_PROTOCOL_H_
#define TCM_SERVE_PROTOCOL_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "api/job.h"
#include "common/json.h"
#include "common/result.h"
#include "serve/job_queue.h"

namespace tcm {

// ---------------------------------------------------------------------------
// Wire protocol of the tcm_serve daemon: newline-delimited JSON over a
// TCP socket (one request or event per line, no external dependencies).
// A client connects, reads the server's "hello" event, then writes
// request objects and reads event objects. The JobSpec payload is the
// public Job API document unchanged — the daemon is the JSON contract of
// api/job.h put on a socket. See README.md ("Serving jobs").
//
// Requests ({"verb": ..., ...}, strict like every JSON surface here —
// unknown keys are errors):
//   submit   {"verb":"submit","spec":{...JobSpec...}[,"id":N][,"wait":B]}
//   status   {"verb":"status","job":N[,"id":N]}
//   cancel   {"verb":"cancel","job":N[,"id":N]}
//   shutdown {"verb":"shutdown"[,"id":N]}   graceful drain, then exit
//   ping     {"verb":"ping"[,"id":N]}
//   stats    {"verb":"stats"[,"id":N]}      live observability snapshot
//
// Events (every one carries "event"; "id" echoes the request's id when
// it had one):
//   hello    {"event":"hello","protocol":2,"max_pending":N}
//   error    {"event":"error","code":"InvalidSpec","message":...}
//   accepted {"event":"accepted","job":N,"state":"queued","pending":P}
//   state    {"event":"state","job":N,"state":...}; terminal states add
//            "report" (succeeded) or "code"/"message" (failed)
//   pong     {"event":"pong","protocol":2,"pending":P,"jobs":J}
//   stats    {"event":"stats","protocol":2,"stats_schema":1,
//             "jobs":{"queued":N,...per state...},"queue_depth":D,
//             "metrics":{"counters":{},"gauges":{},"histograms":{}}}
//            (the daemon's MetricsRegistry snapshot; histograms carry
//            count/sum/min/max and exact nearest-rank p50/p90/p99)
//   draining {"event":"draining"}
//
// A waited submit streams accepted, then one state event per observed
// transition, ending with a terminal state. Error taxonomy codes travel
// as StatusCodeName strings in "code", so a client branches on the same
// names as an in-process caller.
// ---------------------------------------------------------------------------

// Version of the framing described above. Bumped on incompatible
// changes; the JobSpec payload is versioned separately by its own
// "version" key. Version 2 added the "stats" verb and event.
inline constexpr int kServeProtocolVersion = 2;

// Version of the stats event's payload shape (the "jobs" / "queue_depth"
// / "metrics" keys above). Bumped independently of the framing version
// when the snapshot layout changes; clients branch on "stats_schema".
inline constexpr int kStatsSchemaVersion = 1;

// Hard ceiling on one protocol line (either direction). Far above any
// real JobSpec or RunReport, it exists so a peer streaming bytes with
// no newline exhausts this bound (kIoError, connection dropped) instead
// of the process's memory.
inline constexpr size_t kMaxLineBytes = 16u << 20;  // 16 MiB

enum class ServeVerb { kSubmit, kStatus, kCancel, kShutdown, kPing, kStats };

const char* ServeVerbName(ServeVerb verb);

struct ServeRequest {
  ServeVerb verb = ServeVerb::kPing;
  std::optional<uint64_t> id;   // client correlation id, echoed in events
  std::optional<uint64_t> job;  // status / cancel target
  std::optional<JobSpec> spec;  // submit payload
  bool wait = true;             // submit: stream events to terminal state

  // Strict parse of one request line. Malformed JSON is
  // kInvalidArgument; a structurally valid request with a bad JobSpec
  // fails with the spec's own taxonomy code (kInvalidSpec /
  // kUnknownAlgorithm), which the server echoes over the wire.
  static Result<ServeRequest> FromJsonText(std::string_view line);

  JsonValue ToJson() const;
  std::string ToJsonText() const;  // compact single line
};

// Event builders the fronts need outside a verb: the NDJSON greeting
// and the error event of a request that never reached a verb (a bad
// line, a refused connection, an HTTP-level failure).
JsonValue MakeHelloEvent(size_t max_pending);
JsonValue MakeErrorEvent(const std::optional<uint64_t>& id,
                         const Status& status);

// Receives one event of a verb, with the taxonomy code it carries (kOk
// for every event but "error"). Returns false to stop a waited stream
// (its reader is gone).
using ServeEventSink = std::function<bool(JsonValue event, StatusCode code)>;

// The verbs' one implementation, behind both serving fronts: runs
// `request` against `queue` and hands every event it produces to `emit`
// in order — the accepted event and (when waited) each observed state
// through the terminal one for submit, one state event for status and
// cancel, pong for ping, the stats snapshot for stats, and draining for
// shutdown (the drain itself is the serving front's, which starts it
// once this returns true). A refused verb emits its error event. Returns
// the last emit's result.
bool DispatchServeRequest(JobQueue* queue, ServeRequest request,
                          const ServeEventSink& emit);

// ---------------------------------------------------------------------------
// LineChannel: blocking newline-delimited IO over a connected socket fd,
// the transport both ends of the protocol share. Owns the fd.
// ---------------------------------------------------------------------------
class LineChannel {
 public:
  // Takes ownership of `fd` (-1 constructs an invalid channel).
  explicit LineChannel(int fd = -1);
  ~LineChannel();

  LineChannel(LineChannel&& other) noexcept;
  LineChannel& operator=(LineChannel&& other) noexcept;
  LineChannel(const LineChannel&) = delete;
  LineChannel& operator=(const LineChannel&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  // Writes `line` plus a trailing newline, looping until every byte is
  // sent. kIoError when the peer is gone. `line` must not itself contain
  // a newline (that would frame two messages).
  Status WriteLine(const std::string& line);

  // Sends every byte of `bytes` unframed (the HTTP transport; responses
  // are not newline-delimited). kIoError when the peer is gone.
  Status WriteAll(std::string_view bytes);

  // Reads up to the next newline (stripped from the result). kIoError on
  // socket errors and at end of stream.
  Result<std::string> ReadLine();

  // Reads up to `size` raw bytes, draining any bytes ReadLine buffered
  // past its last returned line first. Returns 0 only at end of stream;
  // kIoError on socket errors (including an expired read deadline).
  // When `timed_out` is non-null it is set to whether the failure was
  // an expired read deadline — a typed signal, so callers never have to
  // infer the condition from the Status message text.
  Result<size_t> ReadRaw(char* buffer, size_t size,
                         bool* timed_out = nullptr);

  // Applies a receive deadline to every subsequent read on this channel:
  // a peer that stays silent for longer than `ms` makes the blocked
  // ReadLine/ReadRaw fail with kIoError naming the timeout, so handler
  // threads cannot be pinned forever by silent clients (slowloris).
  // 0 clears the deadline.
  void SetReadTimeout(int ms);

  // Shuts down the read side only: a ReadLine blocked in another thread
  // wakes with end-of-stream, while writes still flush. This is how the
  // server nudges idle connections during graceful drain without eating
  // their final events.
  void ShutdownRead();

  // Shuts down both directions: queued bytes still flush, then the peer
  // sees end-of-stream. The fd itself stays owned until Close() or
  // destruction, so a concurrent ShutdownRead from another thread can
  // never land on a recycled descriptor. Handlers call this when they
  // are done serving a connection — the peer must observe EOF
  // immediately, not when the connection object is eventually reaped.
  void ShutdownBoth();

  void Close();

 private:
  int fd_ = -1;
  std::string buffer_;  // bytes received past the last returned line
};

}  // namespace tcm

#endif  // TCM_SERVE_PROTOCOL_H_
