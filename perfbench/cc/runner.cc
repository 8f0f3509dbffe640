#include "runner.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <thread>

#include "metrics.h"
#include "obs/json_writer.h"
#include "oracle.h"
#include "server/server.h"
#include "tracing_backend.h"
#include "util/socket.h"
#include "util/timer.h"

namespace perfbench {

using namespace levelheaded;

namespace {

/// One client's connection to the system under test: a loopback socket to
/// the server, or the backend itself for in-process workloads.
class Client {
 public:
  Client(QueryBackend* backend, uint16_t port) : backend_(backend) {
    if (port == 0) return;
    Result<Socket> conn = ConnectLoopback(port);
    if (!conn.ok() || !SetRecvTimeout(conn.value(), 60'000).ok()) return;
    socket_ = std::move(conn).TakeValue();
    reader_ = std::make_unique<LineReader>(&socket_, 256u << 20);
  }

  bool via_server() const { return reader_ != nullptr; }

  /// Sends one statement and waits for the reply.
  void Call(const std::string& sql) {
    if (!via_server()) {
      reply_.emplace(backend_->Query(sql));
      return;
    }
    obs::JsonWriter w(/*pretty=*/false);
    w.BeginObject();
    w.Key("sql");
    w.String(sql);
    w.EndObject();
    line_.clear();
    if (!SendAll(socket_, w.str() + "\n").ok() ||
        reader_->ReadLine(&line_) != LineReader::ReadStatus::kLine) {
      line_.clear();
    }
  }

  /// True when the last reply is `op`'s verified answer, byte for byte.
  bool ReplyMatches(const Op& op) const {
    if (via_server()) return ResponseBody(line_) == op.verified_body;
    return reply_->ok() && SameBytes(reply_->value(), op.verified);
  }

 private:
  QueryBackend* backend_;
  Socket socket_;
  std::unique_ptr<LineReader> reader_;
  std::string line_;
  std::optional<Result<QueryResult>> reply_;
};

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct ClientTally {
  std::vector<Sample> samples;
  int64_t attempted = 0;
  int64_t failed = 0;
};

void RunClient(const Workload& wl, QueryBackend* backend, uint16_t port,
               int client, std::chrono::steady_clock::time_point start,
               std::chrono::steady_clock::time_point deadline,
               SpanLog* log, std::atomic<int64_t>* next_rid,
               ClientTally* tally) {
  Client conn(backend, port);
  if (port != 0 && !conn.via_server()) {
    tally->attempted = tally->failed = 1;
    return;
  }
  const size_t n = wl.sequence.size();
  size_t i = static_cast<size_t>(client) * n / static_cast<size_t>(wl.clients);
  while (std::chrono::steady_clock::now() < deadline) {
    const int op_index = wl.sequence[i++ % n];
    const Op& op = wl.ops[static_cast<size_t>(op_index)];
    const int64_t rid = log != nullptr ? next_rid->fetch_add(1) : -1;
    const int span = log != nullptr ? log->Begin("client", rid, -1) : -1;
    WallTimer timer;
    conn.Call(log != nullptr ? WithRequestId(op.sql, rid) : op.sql);
    const double ms = timer.ElapsedMillis();
    if (log != nullptr) log->End(span, {{"op", op_index}});
    ++tally->attempted;
    if (conn.ReplyMatches(op)) {
      tally->samples.push_back({op_index, ms, SecondsSince(start), 0});
    } else {
      ++tally->failed;
    }
  }
}

}  // namespace

Window RunWindow(Workload* workload, QueryBackend* backend, double seconds,
                 SpanLog* log, std::atomic<int64_t>* next_rid) {
  Window window;
  std::unique_ptr<server::Server> server;
  uint16_t port = 0;
  if (workload->via_server) {
    server::ServerOptions options;
    options.num_workers = workload->clients;
    server = std::make_unique<server::Server>(backend, options);
    if (!server->Start().ok()) {
      window.attempted = window.failed = 1;
      return window;
    }
    port = server->port();
  }

  std::vector<ClientTally> tallies(static_cast<size_t>(workload->clients));
  const double cpu0 = ProcessCpuSeconds();
  const auto start = std::chrono::steady_clock::now();
  StealTrace steal;
  steal.Sample(0);
  std::atomic<bool> stop{false};
  // Steal comes in bursts of a second or so; sampling it every 250 ms lets
  // each op be scaled by the steal during its own round trip.
  std::thread sampler([&] {
    while (!stop.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
      steal.Sample(SecondsSince(start));
    }
  });
  const auto deadline =
      start +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < workload->clients; ++c) {
    threads.emplace_back(RunClient, std::cref(*workload), backend, port, c,
                         start, deadline, log, next_rid,
                         &tallies[static_cast<size_t>(c)]);
  }
  for (std::thread& t : threads) t.join();
  window.wall_s = SecondsSince(start);
  window.cpu_s = ProcessCpuSeconds() - cpu0;
  stop.store(true);
  sampler.join();
  steal.Sample(SecondsSince(start));
  window.steal_share = steal.Share(0, window.wall_s);
  if (server != nullptr) server->Stop();

  for (const ClientTally& t : tallies) {
    window.attempted += t.attempted;
    window.failed += t.failed;
    for (Sample s : t.samples) {
      s.received_ms = s.latency_ms *
                      (1 - steal.Share(s.done_s - s.latency_ms / 1000, s.done_s));
      window.samples.push_back(s);
    }
  }
  return window;
}

}  // namespace perfbench
