// The LevelHeaded network serving layer (DESIGN.md §12): a multi-threaded
// TCP server speaking newline-delimited JSON (server/protocol.h) over one
// shared, thread-safe QueryBackend (an Engine, or a wrapper around one).
//
//   Engine engine(&catalog, {.max_result_rows = ...});
//   Server server(&engine, {.port = 0, .num_workers = 4});
//   LH_RETURN_NOT_OK(server.Start());
//   ... server.port() is live; clients connect with ConnectLoopback ...
//   server.Stop();  // graceful: stop accepting, drain, cancel stragglers
//
// Three properties the design enforces:
//  - Admission control: a bounded queue between the accept loop and the
//    workers caps in-flight connections at num_workers + queue_capacity;
//    overload gets an immediate kResourceExhausted response carrying the
//    queue depth, not unbounded latency.
//  - Deadlines & cancellation: every request runs under a per-worker
//    CancelToken plus the request's (or server default) deadline, plumbed
//    through QueryOptions into the executor's cooperative guard checks —
//    a runaway query stops burning cores within one grain of work.
//  - Graceful shutdown: Stop() stops accepting, lets in-flight requests
//    drain up to drain_timeout_ms, cancels stragglers through their
//    tokens, and answers still-queued connections with a drain error.

#ifndef LEVELHEADED_SERVER_SERVER_H_
#define LEVELHEADED_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <memory>

#include "core/cancel.h"
#include "core/query_backend.h"
#include "obs/server_stats.h"
#include "server/metrics_http.h"
#include "server/protocol.h"
#include "server/request_queue.h"
#include "util/socket.h"

namespace levelheaded::server {

struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 picks an ephemeral port (read it back with
  /// Server::port() — how tests and the loadgen run hermetically).
  uint16_t port = 0;
  /// Worker threads, each serving one connection at a time (at least 1;
  /// Start() rejects fewer).
  int num_workers = 4;
  /// Admission-queue bound; see request_queue.h.
  size_t queue_capacity = 16;
  /// Deadline applied to requests that don't set timeout_ms (0 = none).
  double default_timeout_ms = 0;
  /// Hard bound on one request line; longer lines get an error response
  /// and the connection is closed (the stream cannot be resynced).
  size_t max_request_bytes = 1 << 20;
  /// How long Stop() waits for in-flight requests before cancelling them.
  double drain_timeout_ms = 5000;
  /// Accept-poll / recv-timeout granularity: the latency bound on workers
  /// and the accept loop noticing shutdown. Small enough to make Stop()
  /// snappy, large enough to keep idle ticks cheap.
  int poll_interval_ms = 50;
  /// Prometheus scrape endpoint port on 127.0.0.1: -1 = disabled, 0 =
  /// ephemeral (read back with Server::metrics_port()); Start() rejects
  /// values above 65535.
  int metrics_port = -1;
  /// Run every request with stats collection so the engine's lifetime
  /// exec.*/pool.* metrics and the slow-query log see cache hits and span
  /// attribution. Profiles still only ride on analyze-mode responses; the
  /// cost is the per-query counter/span bookkeeping (lh_serve turns this
  /// on by default, --no-request-stats opts out).
  bool collect_request_stats = false;
};

class Server {
 public:
  /// `backend` must outlive the server; its catalog must be finalized.
  Server(QueryBackend* backend, const ServerOptions& options)
      : backend_(backend), options_(options), queue_(options.queue_capacity),
        worker_tokens_(static_cast<size_t>(
            options.num_workers > 0 ? options.num_workers : 0)) {}
  ~Server() { Stop(); }

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the accept loop + workers. InvalidArgument
  /// when num_workers < 1 or metrics_port > 65535.
  [[nodiscard]] Status Start();

  /// Graceful shutdown; idempotent, also run by the destructor.
  void Stop();

  /// The bound port (valid after Start).
  uint16_t port() const { return port_; }

  /// The metrics endpoint's bound port (0 unless options.metrics_port was
  /// set and Start succeeded).
  uint16_t metrics_port() const {
    return metrics_http_ != nullptr ? metrics_http_->port() : 0;
  }

  bool running() const { return running_.load(std::memory_order_acquire); }

  obs::ServerStats& stats() { return stats_; }
  const ServerOptions& options() const { return options_; }
  QueryBackend* backend() { return backend_; }

 private:
  void AcceptLoop();
  void WorkerLoop(int slot);
  void ServeConnection(int slot, Socket conn);
  /// Executes one parsed request and returns the response line, reporting
  /// how it ended so the caller can attribute the latency sample.
  std::string HandleRequest(int slot, const ServerRequest& request,
                            obs::RequestOutcome* outcome);

  bool Draining() const { return draining_.load(std::memory_order_acquire); }

  QueryBackend* backend_;
  const ServerOptions options_;
  RequestQueue queue_;
  /// One token per worker; worker `slot` re-arms tokens_[slot] before each
  /// request, Stop() cancels them all after the drain deadline.
  std::vector<CancelToken> worker_tokens_;
  obs::ServerStats stats_;

  Socket listener_;
  uint16_t port_ = 0;
  /// Present only when options.metrics_port >= 0.
  std::unique_ptr<MetricsHttpServer> metrics_http_;
  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  /// Lifecycle flags. Acquire/release (not relaxed): running_ publishes the
  /// fully constructed listener/threads to callers of running(), and
  /// draining_ publishes Stop()'s state to the accept loop; Start/Stop
  /// themselves are externally serialized (one controlling thread).
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopped_{false};
};

}  // namespace levelheaded::server

#endif  // LEVELHEADED_SERVER_SERVER_H_
