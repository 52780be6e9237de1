#ifndef TCM_SERVE_SERVER_H_
#define TCM_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "serve/http.h"
#include "serve/job_queue.h"
#include "serve/protocol.h"

namespace tcm {

struct ServeOptions {
  // Bind address. Numeric IPv4 only; the daemon is designed to sit on
  // loopback behind a fronting proxy, not on the open internet.
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 binds an ephemeral port (read it from port())

  // Workers in the shared job pool; 0 means one per hardware thread.
  // Every job runs and fans out on this pool, so it is also each served
  // job's width: a spec's execution.threads is not used by the daemon.
  size_t threads = 0;

  // Backpressure bound: queued + running jobs before submits are
  // rejected with kFailedPrecondition.
  size_t max_pending = 64;

  // Retention bound: terminal jobs kept for status queries; the oldest-
  // completed record is evicted past the cap (queries for it then fail
  // with kFailedPrecondition naming the eviction). 0 keeps every record
  // for the daemon's lifetime — an unbounded leak on a long-lived
  // server, so the daemon defaults to a bound.
  size_t max_terminal_jobs = 1024;

  // Honor the remote "shutdown" verb. Off, the verb is refused with
  // kUnimplemented and only RequestShutdown()/signals stop the daemon.
  bool allow_remote_shutdown = true;

  // Concurrent connections across both fronts. Past the cap a new peer
  // is told why on the wire — an error event (NDJSON) or a 503 (HTTP) —
  // and closed, instead of silently growing one handler thread per
  // accept without bound. 0 = uncapped (the embedder default; the
  // tcm_serve daemon bounds it).
  size_t max_connections = 0;

  // Receive deadline applied to every connection: a peer silent for
  // longer than this mid-read is dropped (its handler thread released),
  // so idle or stalled clients cannot pin threads forever. 0 = none
  // (the embedder default; the daemon bounds it).
  int idle_timeout_ms = 0;

  // HTTP/1.1 front (serve/http.h, README "HTTP serving"): the same
  // verbs as routes on a second listener — the NDJSON protocol is
  // hello-first, so one port cannot carry both. Shares the queue, the
  // connection table, the cap and the idle timeout above.
  bool enable_http = false;
  uint16_t http_port = 0;       // 0 binds an ephemeral port (http_port())
  std::string http_auth_token;  // empty = unauthenticated front
  HttpLimits http_limits;       // head/body bounds + request deadline
};

// JobServer: the long-running tcm_serve daemon core. Listens on a TCP
// socket, speaks the newline-delimited JSON protocol of
// serve/protocol.h, and executes submitted JobSpecs on one shared
// ThreadPool through a bounded JobQueue. Embeddable: tests boot it
// in-process on an ephemeral port; tools/tcm_serve.cc wraps it with
// signal handling.
//
// Lifecycle: Start() binds and spawns the accept loop, then each
// connection gets a handler thread (requests on one connection are
// served in order; concurrency comes from concurrent connections and
// the shared pool). RequestShutdown() — from any thread, a connection's
// shutdown verb, or a signal watcher — stops accepting connections and
// jobs; Wait() then drains every outstanding job, delivers the final
// events, closes connections and joins every thread: the graceful-drain
// contract the test wall pins.
class JobServer {
 public:
  explicit JobServer(ServeOptions options = {});

  // RequestShutdown() + Wait() if still running.
  ~JobServer();

  JobServer(const JobServer&) = delete;
  JobServer& operator=(const JobServer&) = delete;

  // Binds, listens and starts accepting. kIoError when the address
  // cannot be bound. Call once.
  Status Start() TCM_EXCLUDES(shutdown_mutex_);

  // The bound port (the ephemeral pick when options.port was 0). Valid
  // after a successful Start().
  uint16_t port() const { return port_; }

  // The HTTP front's bound port. Valid after a successful Start() with
  // options.enable_http; 0 when the front is off.
  uint16_t http_port() const { return http_port_; }

  // Idempotent, non-blocking, callable from any thread including
  // connection handlers: stops the accept loop and rejects all further
  // job submissions. Drain happens in Wait().
  void RequestShutdown() TCM_EXCLUDES(shutdown_mutex_);

  // Blocks until shutdown is requested, then drains: waits for every
  // queued/running job to finish (their waiters receive the terminal
  // events), wakes idle connections, joins all threads and releases the
  // sockets. Returns once the daemon is fully stopped. Call from one
  // thread (the one that owns the server's lifetime).
  void Wait() TCM_EXCLUDES(shutdown_mutex_, connections_mutex_);

  size_t pending_jobs() const { return queue_->pending(); }

 private:
  struct Connection {
    LineChannel channel;
    std::thread thread;
    bool http = false;  // which front accepted it
    // Set by the handler thread as its very last action, after the
    // final use of `channel`; published with release semantics and read
    // with acquire by the reaper, which then join()s the thread before
    // destroying the Connection. The join is what makes the destruction
    // safe — `done` only tells the reaper which threads are worth
    // joining on the accept loop's opportunistic sweep.
    std::atomic<bool> done{false};
  };

  // Binds host:port, listens, and returns the descriptor; `bound_port`
  // receives the kernel's pick when `port` was 0.
  Result<int> BindListener(uint16_t port, uint16_t* bound_port) const;
  // One accept loop per front; `http` tags the connections it admits.
  void AcceptLoop(int listen_fd, bool http)
      TCM_EXCLUDES(shutdown_mutex_, connections_mutex_);
  // Registers `fd` as a connection of the given front and spawns its
  // handler — or, past options_.max_connections, rejects it on the wire
  // and closes it.
  void AdmitConnection(int fd, bool http) TCM_EXCLUDES(connections_mutex_);
  void HandleConnection(Connection* connection);
  // True while the connection should keep reading requests.
  bool HandleRequest(LineChannel* channel, const std::string& line);
  void ReapFinishedConnectionsLocked() TCM_REQUIRES(connections_mutex_);

  ServeOptions options_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<JobQueue> queue_;

  // Written once by Start() before the accept threads exist; reads from
  // other threads see the values through the thread-creation
  // happens-before edge. Not guarded: all are immutable after Start().
  uint16_t port_ = 0;
  uint16_t http_port_ = 0;
  bool started_ = false;

  std::thread accept_thread_;
  std::thread http_accept_thread_;

  std::atomic<bool> stopping_{false};
  mutable Mutex shutdown_mutex_;
  CondVar shutdown_requested_;
  // The listening socket. RequestShutdown (any thread, including
  // connection handlers) calls ::shutdown on it while Wait ::close()s
  // and invalidates it; unguarded, that pair can race onto a recycled
  // descriptor. Every touch after Start() therefore holds
  // shutdown_mutex_.
  int listen_fd_ TCM_GUARDED_BY(shutdown_mutex_) = -1;
  int http_listen_fd_ TCM_GUARDED_BY(shutdown_mutex_) = -1;
  // Folded under shutdown_mutex_ so a second Wait() (e.g. explicit call
  // followed by the destructor's) observes the first one's completion
  // without relying on the caller to serialize.
  bool finished_ TCM_GUARDED_BY(shutdown_mutex_) = false;

  mutable Mutex connections_mutex_;
  std::vector<std::unique_ptr<Connection>> connections_
      TCM_GUARDED_BY(connections_mutex_);
};

}  // namespace tcm

#endif  // TCM_SERVE_SERVER_H_
