// tcm_serve: the long-running job daemon — the versioned Job API
// (tcm/api.h) served over a localhost TCP socket as newline-delimited
// JSON (protocol in serve/protocol.h, README "Serving jobs").
//
//   tcm_serve [--host A.B.C.D] [--port N] [--port-file FILE]
//             [--http-port N] [--http-port-file FILE]
//             [--auth-token TOKEN] [--max-connections N]
//             [--idle-timeout-ms N] [--threads N] [--max-pending N]
//             [--no-remote-shutdown] [--log-level LEVEL]
//
// --port 0 (the default) binds an ephemeral port; the chosen port is
// logged to stderr and, with --port-file, written as a single line to
// FILE once the daemon is accepting — scripts poll that file instead of
// racing the bind. Port files are written to a temporary name and
// renamed into place, so a poller never reads a half-written file. Jobs
// execute on a shared thread pool (--threads) behind a bounded queue
// (--max-pending, backpressure for clients).
//
// --http-port additionally serves the HTTP/1.1 front (README "HTTP
// serving") on a second listener: the same verbs as routes, sharing the
// queue with the NDJSON port. --auth-token requires "Authorization:
// Bearer TOKEN" on every HTTP route but GET /healthz. --max-connections
// (default 1024) caps concurrent connections across both fronts with a
// clean wire-level rejection past the cap; --idle-timeout-ms (default
// 300000) drops connections whose peer goes silent mid-read, so stalled
// clients cannot pin handler threads.
//
// The daemon writes two key=value lines to stderr, both at level info:
// "tcm_serve listening" (address, ports, pid and limits) once it
// accepts, and "tcm_serve drained, exiting" after the drain. They print
// when the level is info or debug. The level is --log-level
// debug|info|warn|error|off (any other value is a usage error), else the
// TCM_LOG environment variable when set (an unknown value means off),
// else info. Live metrics (jobs by state, queue depth, job-latency
// quantiles) are served over the wire by the "stats" verb:
// `tcm_submit --port N --stats`.
//
// Shutdown is always a graceful drain: SIGTERM, SIGINT or a client's
// "shutdown" verb (disable with --no-remote-shutdown) stop new
// connections and submissions, every queued or running job finishes and
// delivers its final event, then the process exits 0. Exit codes follow
// tools/exit_codes.h (5 when the address cannot be bound).

#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>

#include "arg_parser.h"
#include "exit_codes.h"
#include "tcm/api.h"

namespace {

constexpr char kUsage[] =
    "usage: tcm_serve [--host A.B.C.D] [--port N] [--port-file FILE]\n"
    "                 [--http-port N] [--http-port-file FILE]\n"
    "                 [--auth-token TOKEN] [--max-connections N]\n"
    "                 [--idle-timeout-ms N] [--threads N]\n"
    "                 [--max-pending N] [--max-terminal-jobs N]\n"
    "                 [--no-remote-shutdown]\n"
    "                 [--log-level debug|info|warn|error|off]\n";

// Writes "port\n" to `path` atomically: a temporary sibling first, then
// rename into place, so a concurrent poller sees the old content or the
// new — never a torn line.
bool WritePortFile(const std::string& path, unsigned int port) {
  const std::string temp = path + ".tmp";
  std::FILE* out = std::fopen(temp.c_str(), "w");
  if (out == nullptr) return false;
  bool ok = std::fprintf(out, "%u\n", port) > 0;
  ok = std::fclose(out) == 0 && ok;
  ok = ok && std::rename(temp.c_str(), path.c_str()) == 0;
  if (!ok) std::remove(temp.c_str());
  return ok;
}

// True for the levels at which the daemon's info lines print.
bool LogsInfo(std::string_view level) {
  return level == "debug" || level == "info";
}

bool IsLogLevel(std::string_view level) {
  return LogsInfo(level) || level == "warn" || level == "error" ||
         level == "off";
}

// Writes "ts=S level=info <fields>" to stderr with one write(2), so the
// line never interleaves with other output; ts counts seconds from the
// first line.
void LogInfo(const std::string& fields) {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point first = Clock::now();
  char head[48];
  std::snprintf(head, sizeof(head), "ts=%.3f level=info ",
                std::chrono::duration<double>(Clock::now() - first).count());
  const std::string line = head + fields + "\n";
  [[maybe_unused]] ssize_t n = ::write(2, line.data(), line.size());
}

// Self-pipe: the handler only writes a byte (async-signal-safe); a
// watcher thread turns it into the orderly RequestShutdown call.
int g_signal_pipe[2] = {-1, -1};

void HandleSignal(int) {
  char byte = 1;
  // The pipe is never full (one byte per signal, drained immediately);
  // a failed write just means shutdown was already requested.
  [[maybe_unused]] ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::string port_file, http_port_file, auth_token, log_level;
  size_t port = 0, http_port = 0, threads = 0, max_pending = 64;
  size_t max_terminal_jobs = 1024;
  size_t max_connections = 1024, idle_timeout_ms = 300000;
  bool no_remote_shutdown = false;

  tcm::tools::ArgParser parser(kUsage);
  parser.AddString("--host", &host);
  parser.AddSize("--port", &port);
  parser.AddString("--port-file", &port_file);
  parser.AddSize("--http-port", &http_port);
  parser.AddString("--http-port-file", &http_port_file);
  parser.AddString("--auth-token", &auth_token);
  parser.AddSize("--max-connections", &max_connections);
  parser.AddSize("--idle-timeout-ms", &idle_timeout_ms);
  parser.AddSize("--threads", &threads);
  parser.AddSize("--max-pending", &max_pending);
  parser.AddSize("--max-terminal-jobs", &max_terminal_jobs);
  parser.AddFlag("--no-remote-shutdown", &no_remote_shutdown);
  parser.AddString("--log-level", &log_level);
  if (!parser.Parse(argc, argv)) return tcm::tools::kExitUsage;
  if (port > 65535 || http_port > 65535) {
    std::fprintf(stderr, "--port/--http-port must be in [0, 65535]\n%s",
                 kUsage);
    return tcm::tools::kExitUsage;
  }
  if (idle_timeout_ms > 86400000) {
    std::fprintf(stderr, "--idle-timeout-ms must be at most one day\n%s",
                 kUsage);
    return tcm::tools::kExitUsage;
  }
  const bool enable_http =
      parser.Seen("--http-port") || parser.Seen("--http-port-file");
  // A daemon that says nothing is undebuggable: info unless the flag or
  // the environment asks for something else.
  bool log_info = true;
  if (parser.Seen("--log-level")) {
    if (!IsLogLevel(log_level)) {
      std::fprintf(stderr, "unknown --log-level \"%s\"\n%s",
                   log_level.c_str(), kUsage);
      return tcm::tools::kExitUsage;
    }
    log_info = LogsInfo(log_level);
  } else if (const char* env = std::getenv("TCM_LOG")) {
    log_info = LogsInfo(env);
  }

  tcm::ServeOptions options;
  options.host = host;
  options.port = static_cast<uint16_t>(port);
  options.threads = threads;
  options.max_pending = max_pending;
  // 0 = unbounded retention, an explicit operator choice on a daemon.
  options.max_terminal_jobs = max_terminal_jobs;
  options.allow_remote_shutdown = !no_remote_shutdown;
  // 0 = uncapped / no deadline, explicit operator choices on a daemon.
  options.max_connections = max_connections;
  options.idle_timeout_ms = static_cast<int>(idle_timeout_ms);
  options.enable_http = enable_http;
  options.http_port = static_cast<uint16_t>(http_port);
  options.http_auth_token = auth_token;
  // A whole HTTP request must land within this budget regardless of how
  // slowly its bytes trickle in (the slowloris bound; distinct from the
  // between-requests idle timeout above).
  options.http_limits.request_deadline_ms = 30000;

  tcm::JobServer server(options);
  tcm::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return tcm::tools::ExitCodeForStatus(started);
  }
  if (log_info) {
    // Start() accepted `host` as a numeric IPv4 address, so no field
    // needs quoting.
    char fields[512];
    std::snprintf(fields, sizeof(fields),
                  "msg=\"tcm_serve listening\" host=%s port=%u "
                  "http_port=%u pid=%ld threads=%zu max_pending=%zu "
                  "max_terminal_jobs=%zu max_connections=%zu "
                  "idle_timeout_ms=%zu",
                  host.c_str(), static_cast<unsigned int>(server.port()),
                  static_cast<unsigned int>(server.http_port()),
                  static_cast<long>(::getpid()), threads, max_pending,
                  max_terminal_jobs, max_connections, idle_timeout_ms);
    LogInfo(fields);
  }

  if (!port_file.empty() && !WritePortFile(port_file, server.port())) {
    std::fprintf(stderr, "cannot write port file %s\n", port_file.c_str());
    return tcm::tools::kExitIoError;
  }
  if (!http_port_file.empty() &&
      !WritePortFile(http_port_file, server.http_port())) {
    std::fprintf(stderr, "cannot write port file %s\n",
                 http_port_file.c_str());
    return tcm::tools::kExitIoError;
  }

  if (::pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "pipe failed\n");
    return tcm::tools::kExitFailure;
  }
  struct sigaction action {};
  action.sa_handler = HandleSignal;
  ::sigemptyset(&action.sa_mask);
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
  ::signal(SIGPIPE, SIG_IGN);

  std::thread watcher([&server]() {
    char byte = 0;
    while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
    }
    server.RequestShutdown();
  });

  server.Wait();  // returns after the graceful drain completes

  // Unblock the watcher in case shutdown came from the wire, not a
  // signal; RequestShutdown is idempotent so the extra call is harmless.
  HandleSignal(0);
  watcher.join();

  if (log_info) LogInfo("msg=\"tcm_serve drained, exiting\"");
  return tcm::tools::kExitOk;
}
