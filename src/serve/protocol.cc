#include "serve/protocol.h"

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "obs/metrics.h"

namespace tcm {
namespace {

Result<ServeVerb> VerbFromName(const std::string& name) {
  if (name == "submit") return ServeVerb::kSubmit;
  if (name == "status") return ServeVerb::kStatus;
  if (name == "cancel") return ServeVerb::kCancel;
  if (name == "shutdown") return ServeVerb::kShutdown;
  if (name == "ping") return ServeVerb::kPing;
  if (name == "stats") return ServeVerb::kStats;
  return Status::InvalidArgument(
      "unknown verb \"" + name +
      "\" (expected submit, status, cancel, shutdown, ping or stats)");
}

JsonValue MakeEvent(const char* event, const std::optional<uint64_t>& id) {
  JsonValue object = JsonValue::MakeObject();
  object.Set("event", event);
  if (id.has_value()) object.Set("id", static_cast<double>(*id));
  return object;
}

}  // namespace

const char* ServeVerbName(ServeVerb verb) {
  switch (verb) {
    case ServeVerb::kSubmit:
      return "submit";
    case ServeVerb::kStatus:
      return "status";
    case ServeVerb::kCancel:
      return "cancel";
    case ServeVerb::kShutdown:
      return "shutdown";
    case ServeVerb::kPing:
      return "ping";
    case ServeVerb::kStats:
      return "stats";
  }
  return "unknown";
}

Result<ServeRequest> ServeRequest::FromJsonText(std::string_view line) {
  TCM_ASSIGN_OR_RETURN(JsonValue json, ParseJson(line));
  if (!json.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }

  ServeRequest request;
  const JsonValue* verb = json.Find("verb");
  if (verb == nullptr) {
    return Status::InvalidArgument("request is missing \"verb\"");
  }
  TCM_ASSIGN_OR_RETURN(std::string verb_name, verb->GetString());
  TCM_ASSIGN_OR_RETURN(request.verb, VerbFromName(verb_name));

  for (const JsonValue::Member& member : json.members()) {
    const std::string& key = member.first;
    const JsonValue& value = member.second;
    if (key == "verb") continue;
    if (key == "id") {
      TCM_ASSIGN_OR_RETURN(uint64_t id, value.GetUint());
      request.id = id;
      continue;
    }
    if (key == "job") {
      if (request.verb != ServeVerb::kStatus &&
          request.verb != ServeVerb::kCancel) {
        return Status::InvalidArgument("\"job\" only applies to status "
                                       "and cancel requests");
      }
      TCM_ASSIGN_OR_RETURN(uint64_t job, value.GetUint());
      request.job = job;
      continue;
    }
    if (key == "spec") {
      if (request.verb != ServeVerb::kSubmit) {
        return Status::InvalidArgument(
            "\"spec\" only applies to submit requests");
      }
      TCM_ASSIGN_OR_RETURN(request.spec, JobSpec::FromJson(value));
      continue;
    }
    if (key == "wait") {
      if (request.verb != ServeVerb::kSubmit) {
        return Status::InvalidArgument(
            "\"wait\" only applies to submit requests");
      }
      TCM_ASSIGN_OR_RETURN(request.wait, value.GetBool());
      continue;
    }
    return Status::InvalidArgument("unknown request key \"" + key + "\"");
  }

  if (request.verb == ServeVerb::kSubmit && !request.spec.has_value()) {
    return Status::InvalidArgument("submit request is missing \"spec\"");
  }
  if ((request.verb == ServeVerb::kStatus ||
       request.verb == ServeVerb::kCancel) &&
      !request.job.has_value()) {
    return Status::InvalidArgument(
        std::string(ServeVerbName(request.verb)) +
        " request is missing \"job\"");
  }
  return request;
}

JsonValue ServeRequest::ToJson() const {
  JsonValue object = JsonValue::MakeObject();
  object.Set("verb", ServeVerbName(verb));
  if (id.has_value()) object.Set("id", static_cast<double>(*id));
  if (job.has_value()) object.Set("job", static_cast<double>(*job));
  if (spec.has_value()) object.Set("spec", spec->ToJson());
  if (verb == ServeVerb::kSubmit && !wait) object.Set("wait", false);
  return object;
}

std::string ServeRequest::ToJsonText() const { return ToJson().Write(-1); }

JsonValue MakeHelloEvent(size_t max_pending) {
  JsonValue event = MakeEvent("hello", std::nullopt);
  event.Set("protocol", kServeProtocolVersion);
  event.Set("max_pending", max_pending);
  return event;
}

JsonValue MakeErrorEvent(const std::optional<uint64_t>& id,
                         const Status& status) {
  JsonValue event = MakeEvent("error", id);
  event.Set("code", StatusCodeName(status.code()));
  event.Set("message", status.message());
  return event;
}

namespace {

JsonValue MakeAcceptedEvent(const std::optional<uint64_t>& id, uint64_t job,
                            size_t pending) {
  JsonValue event = MakeEvent("accepted", id);
  event.Set("job", static_cast<double>(job));
  event.Set("state", JobStateName(JobState::kQueued));
  event.Set("pending", pending);
  return event;
}

JsonValue MakeStateEvent(const std::optional<uint64_t>& id,
                         const JobSnapshot& snapshot) {
  JsonValue event = MakeEvent("state", id);
  event.Set("job", static_cast<double>(snapshot.id));
  event.Set("state", JobStateName(snapshot.state));
  if (snapshot.state == JobState::kFailed) {
    event.Set("code", snapshot.error_code);
    event.Set("message", snapshot.error);
  }
  if (snapshot.state == JobState::kSucceeded && snapshot.report != nullptr) {
    event.Set("report", *snapshot.report);
  }
  return event;
}

JsonValue MakePongEvent(const std::optional<uint64_t>& id, size_t pending,
                        size_t total_jobs) {
  JsonValue event = MakeEvent("pong", id);
  event.Set("protocol", kServeProtocolVersion);
  event.Set("pending", pending);
  event.Set("jobs", total_jobs);
  return event;
}

// `counts` is the queue's jobs-by-state tally (its queued count is the
// queue depth); `metrics` the MetricsRegistry snapshot, moved in.
JsonValue MakeStatsEvent(const std::optional<uint64_t>& id,
                         const JobStateCounts& counts, JsonValue metrics) {
  JsonValue event = MakeEvent("stats", id);
  event.Set("protocol", kServeProtocolVersion);
  event.Set("stats_schema", kStatsSchemaVersion);
  JsonValue jobs = JsonValue::MakeObject();
  jobs.Set(JobStateName(JobState::kQueued), counts.queued);
  jobs.Set(JobStateName(JobState::kRunning), counts.running);
  jobs.Set(JobStateName(JobState::kSucceeded), counts.succeeded);
  jobs.Set(JobStateName(JobState::kFailed), counts.failed);
  jobs.Set(JobStateName(JobState::kCancelled), counts.cancelled);
  event.Set("jobs", std::move(jobs));
  event.Set("queue_depth", counts.queued);
  event.Set("metrics", std::move(metrics));
  return event;
}

// The state event of `snapshot`, or the error event of its lookup.
bool EmitSnapshot(const std::optional<uint64_t>& id,
                  const Result<JobSnapshot>& snapshot,
                  const ServeEventSink& emit) {
  if (!snapshot.ok()) {
    return emit(MakeErrorEvent(id, snapshot.status()),
                snapshot.status().code());
  }
  return emit(MakeStateEvent(id, *snapshot), StatusCode::kOk);
}

}  // namespace

bool DispatchServeRequest(JobQueue* queue, ServeRequest request,
                          const ServeEventSink& emit) {
  const std::optional<uint64_t>& id = request.id;
  switch (request.verb) {
    case ServeVerb::kPing:
      return emit(MakePongEvent(id, queue->pending(), queue->total_jobs()),
                  StatusCode::kOk);

    case ServeVerb::kStats:
      return emit(MakeStatsEvent(id, queue->StateCounts(),
                                 MetricsRegistry::Global().SnapshotJson()),
                  StatusCode::kOk);

    case ServeVerb::kStatus:
      return EmitSnapshot(id, queue->Status(*request.job), emit);

    case ServeVerb::kCancel:
      return EmitSnapshot(id, queue->Cancel(*request.job), emit);

    case ServeVerb::kShutdown:
      return emit(MakeEvent("draining", id), StatusCode::kOk);

    case ServeVerb::kSubmit: {
      auto job_id = queue->Submit(std::move(*request.spec));
      if (!job_id.ok()) {
        return emit(MakeErrorEvent(id, job_id.status()),
                    job_id.status().code());
      }
      if (!emit(MakeAcceptedEvent(id, *job_id, queue->pending()),
                StatusCode::kOk)) {
        return false;
      }
      if (!request.wait) return true;
      // One state event per observed transition, ending with the
      // terminal one.
      JobState seen = JobState::kQueued;
      while (true) {
        auto snapshot = queue->WaitForChange(*job_id, seen);
        if (!EmitSnapshot(id, snapshot, emit)) return false;
        if (!snapshot.ok() || IsTerminalJobState(snapshot->state)) {
          return true;
        }
        seen = snapshot->state;
      }
    }
  }
  return true;
}

// --------------------------------------------------------------- LineChannel

LineChannel::LineChannel(int fd) : fd_(fd) {
#if !defined(MSG_NOSIGNAL) && defined(SO_NOSIGPIPE)
  // No per-send flag on this platform (macOS/BSD): suppress SIGPIPE at
  // the socket level so a vanished peer surfaces as EPIPE, not a
  // process kill — the library must not depend on the hosting binary
  // ignoring SIGPIPE.
  if (fd_ >= 0) {
    int on = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_NOSIGPIPE, &on, sizeof(on));
  }
#endif
}

LineChannel::~LineChannel() { Close(); }

LineChannel::LineChannel(LineChannel&& other) noexcept
    : fd_(other.fd_), buffer_(std::move(other.buffer_)) {
  other.fd_ = -1;
}

LineChannel& LineChannel::operator=(LineChannel&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    buffer_ = std::move(other.buffer_);
    other.fd_ = -1;
  }
  return *this;
}

Status LineChannel::WriteLine(const std::string& line) {
  std::string framed = line;
  framed.push_back('\n');
  return WriteAll(framed);
}

Status LineChannel::WriteAll(std::string_view bytes) {
  if (fd_ < 0) return Status::IoError("write on closed channel");
  size_t sent = 0;
  while (sent < bytes.size()) {
#ifdef MSG_NOSIGNAL
    // Suppress SIGPIPE so a vanished peer surfaces as EPIPE, not a
    // process kill.
    const int flags = MSG_NOSIGNAL;
#else
    const int flags = 0;
#endif
    ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                       flags);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("send failed: ") +
                             std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Result<std::string> LineChannel::ReadLine() {
  if (fd_ < 0) return Status::IoError("read on closed channel");
  while (true) {
    size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      std::string line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    char chunk[4096];
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::IoError("read timed out (idle connection)");
      }
      return Status::IoError(std::string("recv failed: ") +
                             std::strerror(errno));
    }
    if (buffer_.size() > kMaxLineBytes) {
      buffer_.clear();
      return Status::IoError("line exceeds " +
                             std::to_string(kMaxLineBytes) +
                             " bytes; dropping connection");
    }
    if (n == 0) {
      // Treat a final unterminated line as a message of its own so a
      // peer that writes-then-closes without a trailing newline is
      // still understood.
      if (!buffer_.empty()) {
        std::string line = std::move(buffer_);
        buffer_.clear();
        if (!line.empty() && line.back() == '\r') line.pop_back();
        return line;
      }
      return Status::IoError("connection closed");
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

Result<size_t> LineChannel::ReadRaw(char* buffer, size_t size,
                                    bool* timed_out) {
  if (timed_out != nullptr) *timed_out = false;
  if (fd_ < 0) return Status::IoError("read on closed channel");
  if (size == 0) return size_t{0};
  if (!buffer_.empty()) {
    size_t n = std::min(size, buffer_.size());
    std::memcpy(buffer, buffer_.data(), n);
    buffer_.erase(0, n);
    return n;
  }
  while (true) {
    ssize_t n = ::recv(fd_, buffer, size, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (timed_out != nullptr) *timed_out = true;
        return Status::IoError("read timed out (idle connection)");
      }
      return Status::IoError(std::string("recv failed: ") +
                             std::strerror(errno));
    }
    return static_cast<size_t>(n);
  }
}

void LineChannel::SetReadTimeout(int ms) {
  if (fd_ < 0) return;
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

void LineChannel::ShutdownRead() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RD);
}

void LineChannel::ShutdownBoth() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void LineChannel::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace tcm
