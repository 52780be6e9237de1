#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "obs/metrics.h"

namespace tcm {

JobServer::JobServer(ServeOptions options) : options_(std::move(options)) {
  pool_ = std::make_unique<ThreadPool>(options_.threads);
  queue_ = std::make_unique<JobQueue>(pool_.get(), options_.max_pending,
                                      options_.max_terminal_jobs);
}

JobServer::~JobServer() {
  RequestShutdown();
  Wait();
}

Result<int> JobServer::BindListener(uint16_t port,
                                    uint16_t* bound_port) const {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket failed: ") +
                           std::strerror(errno));
  }
  int reuse = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));

  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &address.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("host must be a numeric IPv4 address, "
                                   "got \"" + options_.host + "\"");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&address), sizeof(address)) <
      0) {
    Status status = Status::IoError("cannot bind " + options_.host + ":" +
                                    std::to_string(port) + ": " +
                                    std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (::listen(fd, 64) < 0) {
    Status status = Status::IoError(std::string("listen failed: ") +
                                    std::strerror(errno));
    ::close(fd);
    return status;
  }

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) <
      0) {
    Status status = Status::IoError(std::string("getsockname failed: ") +
                                    std::strerror(errno));
    ::close(fd);
    return status;
  }
  *bound_port = ntohs(bound.sin_port);
  return fd;
}

Status JobServer::Start() {
  if (started_) return Status::FailedPrecondition("Start() called twice");

  auto fd = BindListener(options_.port, &port_);
  if (!fd.ok()) return fd.status();

  int http_fd = -1;
  if (options_.enable_http) {
    auto bound = BindListener(options_.http_port, &http_port_);
    if (!bound.ok()) {
      ::close(*fd);
      return bound.status();
    }
    http_fd = *bound;
  }

  {
    MutexLock lock(shutdown_mutex_);
    listen_fd_ = *fd;
    http_listen_fd_ = http_fd;
  }
  started_ = true;
  accept_thread_ =
      std::thread([this, fd = *fd]() { AcceptLoop(fd, /*http=*/false); });
  if (http_fd >= 0) {
    http_accept_thread_ =
        std::thread([this, http_fd]() { AcceptLoop(http_fd, /*http=*/true); });
  }
  return Status::Ok();
}

void JobServer::RequestShutdown() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) return;
  {
    // Wake the accept loop: a shutdown() on a listening socket makes the
    // blocked accept() return with an error on every mainstream
    // platform. Under shutdown_mutex_ because Wait() closes and
    // invalidates the descriptor under the same lock — unguarded, this
    // ::shutdown could land on a recycled fd. Holding the lock here
    // also pairs with Wait()'s predicate check: a notify cannot slip
    // between the waiter's stopping_ check and its sleep.
    MutexLock lock(shutdown_mutex_);
    if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
    if (http_listen_fd_ >= 0) ::shutdown(http_listen_fd_, SHUT_RDWR);
  }
  // Reject submissions immediately — drain itself happens in Wait().
  queue_->CloseSubmissions();
  shutdown_requested_.NotifyAll();
}

void JobServer::Wait() {
  {
    MutexLock lock(shutdown_mutex_);
    while (!stopping_.load()) shutdown_requested_.Wait(lock);
    if (finished_) return;
    finished_ = true;
    // The teardown below runs unlocked: the accept loop and connection
    // handlers take shutdown_mutex_ themselves (fd copy, nested
    // RequestShutdown), so joining them while holding it would deadlock.
  }

  if (accept_thread_.joinable()) accept_thread_.join();
  if (http_accept_thread_.joinable()) http_accept_thread_.join();

  // Finish every queued and running job first — connection handlers
  // blocked in WaitForChange receive the terminal events while their
  // sockets are still fully open.
  queue_->Drain();

  // Wake handlers idling in ReadLine with end-of-stream; the write side
  // stays up so in-flight final events still reach the client.
  std::vector<std::unique_ptr<Connection>> connections;
  {
    MutexLock lock(connections_mutex_);
    connections.swap(connections_);
  }
  for (const std::unique_ptr<Connection>& connection : connections) {
    connection->channel.ShutdownRead();
  }
  for (const std::unique_ptr<Connection>& connection : connections) {
    if (connection->thread.joinable()) connection->thread.join();
  }
  connections.clear();  // closes the sockets

  pool_->Shutdown();
  {
    MutexLock lock(shutdown_mutex_);
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    if (http_listen_fd_ >= 0) {
      ::close(http_listen_fd_);
      http_listen_fd_ = -1;
    }
  }
}

// The descriptor stays valid for the loop's whole lifetime because
// Wait() joins this thread before closing it.
void JobServer::AcceptLoop(int listen_fd, bool http) {
  while (!stopping_.load()) {
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE) {
        // Out of descriptors is transient under load: back off briefly
        // instead of permanently refusing all future connections.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        continue;
      }
      break;  // listener shut down (or a fatal accept error): stop
    }
    if (stopping_.load()) {
      ::close(fd);
      break;
    }
    AdmitConnection(fd, http);
  }
  // If the loop died on an unexpected accept() error rather than an
  // orderly stop, turn it into a drain: a daemon that looks healthy but
  // can never accept again must exit, not linger as a zombie.
  if (!stopping_.load()) RequestShutdown();
}

void JobServer::AdmitConnection(int fd, bool http) {
  auto connection = std::make_unique<Connection>();
  connection->channel = LineChannel(fd);
  connection->http = http;
  Connection* raw = connection.get();
  {
    MutexLock lock(connections_mutex_);
    ReapFinishedConnectionsLocked();
    if (options_.max_connections > 0 &&
        connections_.size() >= options_.max_connections) {
      // Over the cap: tell the peer why in its own protocol and close.
      // The rejection is written from the accept thread — both messages
      // are far smaller than a socket send buffer, so this cannot
      // block the listener on a slow peer.
      MetricsRegistry::Global().IncrementCounter(
          "serve.connections_rejected");
      Status status = Status::FailedPrecondition(
          "connection limit (" + std::to_string(options_.max_connections) +
          ") reached; retry later");
      JsonValue event = MakeErrorEvent(std::nullopt, status);
      if (http) {
        connection->channel.WriteAll(
            WriteHttpResponse(503, event, /*keep_alive=*/false));
      } else {
        connection->channel.WriteLine(event.Write(-1));
      }
      return;  // `connection` closes the socket on destruction
    }
    connections_.push_back(std::move(connection));
    // Spawn while still holding connections_mutex_. With two accept
    // loops the other thread can reap concurrently; if this assignment
    // ran unlocked and the handler finished first, the reaper would see
    // done==true with a not-yet-joinable thread, erase the Connection,
    // and the assignment would write into freed memory. Handlers never
    // take connections_mutex_, so holding it across the spawn cannot
    // deadlock.
    raw->thread = std::thread([this, raw]() { HandleConnection(raw); });
  }
}

// Long-running daemons see many short-lived connections; joining the
// finished ones on each accept keeps the table from growing without
// bound.
void JobServer::ReapFinishedConnectionsLocked() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void JobServer::HandleConnection(Connection* connection) {
  LineChannel* channel = &connection->channel;
  if (options_.idle_timeout_ms > 0) {
    channel->SetReadTimeout(options_.idle_timeout_ms);
  }
  if (connection->http) {
    ServeHttpConnection(channel, queue_.get(), options_.http_auth_token,
                        options_.http_limits, options_.idle_timeout_ms);
  } else if (channel
                 ->WriteLine(MakeHelloEvent(options_.max_pending).Write(-1))
                 .ok()) {
    while (true) {
      auto line = channel->ReadLine();
      if (!line.ok()) break;  // peer closed, went idle, or drain woke us
      if (line->find_first_not_of(" \t\r") == std::string::npos) continue;
      if (!HandleRequest(channel, *line)) break;
    }
  }
  // Hang up now: the peer must see end-of-stream the moment serving
  // ends, not when the connection object is reaped on some future
  // accept. The fd stays allocated until the reaper destroys the
  // channel, so Wait()'s concurrent ShutdownRead cannot hit a recycled
  // descriptor.
  channel->ShutdownBoth();
  // Publication order matters: this store is the handler's final
  // action, strictly after the last use of connection->channel, so the
  // reaper's acquire load + join sees a connection whose resources are
  // quiescent before destroying it.
  connection->done.store(true, std::memory_order_release);
}

bool JobServer::HandleRequest(LineChannel* channel,
                              const std::string& line) {
  auto emit = [channel](JsonValue event, StatusCode) {
    return channel->WriteLine(event.Write(-1)).ok();
  };
  auto parsed = ServeRequest::FromJsonText(line);
  if (!parsed.ok()) {
    // One bad line does not poison the connection: report and carry on,
    // like the CLI rejecting one malformed invocation.
    return emit(MakeErrorEvent(std::nullopt, parsed.status()),
                parsed.status().code());
  }
  const bool shutdown = parsed->verb == ServeVerb::kShutdown;
  if (shutdown && !options_.allow_remote_shutdown) {
    Status refused = Status::Unimplemented("remote shutdown is disabled");
    return emit(MakeErrorEvent(parsed->id, refused), refused.code());
  }
  if (!DispatchServeRequest(queue_.get(), std::move(*parsed), emit)) {
    return false;
  }
  // The draining event is out; only flags are set here and the drain
  // itself runs in Wait(), so a connection handler can safely request it.
  if (shutdown) RequestShutdown();
  return true;
}

}  // namespace tcm
