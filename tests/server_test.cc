// Integration tests for the serving layer (src/server): protocol parsing,
// concurrent clients vs. direct-Query ground truth, admission control,
// deadlines, malformed input, and graceful shutdown. Runs entirely over
// real loopback sockets against an in-process Server on an ephemeral port.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "obs/json_writer.h"
#include "server/protocol.h"
#include "server/server.h"
#include "util/rng.h"
#include "util/socket.h"

namespace levelheaded {
namespace {

using server::Server;
using server::ServerOptions;
using server::ServerRequest;

constexpr char kTriangleSql[] =
    "SELECT count(*) FROM edge e1, edge e2, edge e3 "
    "WHERE e1.dst = e2.src AND e2.dst = e3.src AND e3.dst = e1.src";
constexpr char kGroupBySql[] =
    "SELECT src, count(*) FROM edge GROUP BY src ORDER BY src";

/// A blocking client: one connection, newline-delimited JSON round trips.
class TestClient {
 public:
  explicit TestClient(uint16_t port, int recv_timeout_ms = 30000) {
    auto conn = ConnectLoopback(port);
    if (conn.ok()) {
      socket_ = conn.TakeValue();
      (void)SetRecvTimeout(socket_, recv_timeout_ms).ok();
    }
  }

  bool connected() const { return socket_.valid(); }

  /// Sends `line` (terminated) and parses the one-line JSON response.
  /// Returns false on transport failure or unparsable response.
  bool RoundTrip(const std::string& line, obs::JsonValue* out) {
    if (!SendAll(socket_, line + "\n").ok()) return false;
    return ReadResponse(out);
  }

  bool ReadResponse(obs::JsonValue* out) {
    std::string response;
    if (reader_.ReadLine(&response) != LineReader::ReadStatus::kLine) {
      return false;
    }
    return obs::ParseJson(response, out);
  }

  bool SendRaw(const std::string& data) {
    return SendAll(socket_, data).ok();
  }

  void Close() { socket_.Close(); }

 private:
  Socket socket_;
  /// Persistent so bytes buffered past one line aren't lost between reads.
  LineReader reader_{&socket_, 64u << 20};
};

std::string QueryLine(const std::string& sql, double timeout_ms = 0) {
  obs::JsonWriter w(/*pretty=*/false);
  w.BeginObject();
  w.Key("sql");
  w.String(sql);
  if (timeout_ms > 0) {
    w.Key("timeout_ms");
    w.Number(timeout_ms);
  }
  w.EndObject();
  return w.str();
}

bool IsOk(const obs::JsonValue& response) {
  const obs::JsonValue* ok = response.Find("ok");
  return ok != nullptr && ok->kind == obs::JsonValue::Kind::kBool &&
         ok->boolean;
}

std::string ErrorCode(const obs::JsonValue& response) {
  const obs::JsonValue* error = response.Find("error");
  if (error == nullptr) return "";
  const obs::JsonValue* code = error->Find("code");
  return code != nullptr && code->IsString() ? code->string : "";
}

/// Flattens a response's columns into row-major cells for comparison with
/// a direct QueryResult (numbers compared exactly: the JSON writer emits
/// round-trippable doubles).
std::vector<std::vector<double>> NumericRows(const obs::JsonValue& resp) {
  std::vector<std::vector<double>> rows;
  const obs::JsonValue* num_rows = resp.Find("num_rows");
  const obs::JsonValue* columns = resp.Find("columns");
  if (num_rows == nullptr || columns == nullptr) return rows;
  rows.resize(static_cast<size_t>(num_rows->number));
  for (const obs::JsonValue& col : columns->array) {
    const obs::JsonValue* values = col.Find("values");
    if (values == nullptr) continue;
    for (size_t r = 0; r < rows.size() && r < values->array.size(); ++r) {
      rows[r].push_back(values->array[r].number);
    }
  }
  return rows;
}

std::vector<std::vector<double>> DirectRows(const QueryResult& result) {
  std::vector<std::vector<double>> rows(result.num_rows);
  for (size_t r = 0; r < result.num_rows; ++r) {
    for (size_t c = 0; c < result.columns.size(); ++c) {
      const Value v = result.GetValue(r, c);
      rows[r].push_back(v.kind() == Value::Kind::kInt
                            ? static_cast<double>(v.AsInt())
                            : v.AsReal());
    }
  }
  return rows;
}

// ConnectLoopbackRetry (the lh_client startup path): a dead port fails in
// bounded time; a listener that appears mid-retry is found.
TEST(SocketRetryTest, BoundedFailureWithoutListener) {
  Result<Socket> probe = ListenTcp(0);
  ASSERT_TRUE(probe.ok());
  Result<uint16_t> port = BoundPort(probe.value());
  ASSERT_TRUE(port.ok());
  probe.value().Close();  // nothing listens on `port` anymore
  const auto start = std::chrono::steady_clock::now();
  Result<Socket> conn =
      ConnectLoopbackRetry(port.value(), /*deadline_ms=*/150);
  const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  EXPECT_FALSE(conn.ok());
  // Deadline 150ms plus at most one capped backoff sleep; the wide bound
  // keeps sanitizer builds from flaking.
  EXPECT_LT(elapsed_ms, 10000);
}

TEST(SocketRetryTest, ConnectsWhenListenerAppears) {
  Result<Socket> probe = ListenTcp(0);
  ASSERT_TRUE(probe.ok());
  Result<uint16_t> port = BoundPort(probe.value());
  ASSERT_TRUE(port.ok());
  probe.value().Close();
  Socket listener;  // written by the thread, read only after join
  std::thread delayed([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    Result<Socket> l = ListenTcp(port.value());
    if (l.ok()) listener = l.TakeValue();
  });
  Result<Socket> conn =
      ConnectLoopbackRetry(port.value(), /*deadline_ms=*/10000);
  delayed.join();
  EXPECT_TRUE(conn.ok()) << conn.status().ToString();
}

class ServerTest : public ::testing::Test {
 protected:
  static constexpr int kNodes = 30;
  static constexpr size_t kEdges = 250;

  void SetUp() override {
    Table* t = catalog_
                   .CreateTable(TableSchema(
                       "edge",
                       {ColumnSpec::Key("src", ValueType::kInt64, "node"),
                        ColumnSpec::Key("dst", ValueType::kInt64, "node"),
                        ColumnSpec::Annotation("w", ValueType::kDouble)}))
                   .ValueOrDie();
    Rng rng(0x5E17E5);
    std::set<std::pair<int, int>> seen;
    while (seen.size() < kEdges) {
      int a = static_cast<int>(rng.Uniform(kNodes));
      int b = static_cast<int>(rng.Uniform(kNodes));
      if (a == b || !seen.insert({a, b}).second) continue;
      ASSERT_TRUE(t->AppendRow({Value::Int(a), Value::Int(b),
                                Value::Real(rng.UniformDouble(0, 1))})
                      .ok());
    }
    ASSERT_TRUE(catalog_.Finalize().ok());
    engine_ = std::make_unique<Engine>(&catalog_);
  }

  Catalog catalog_;
  std::unique_ptr<Engine> engine_;
};

TEST_F(ServerTest, StartStopIdempotent) {
  Server server(engine_.get(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  EXPECT_TRUE(server.running());
  EXPECT_GT(server.port(), 0);
  server.Stop();
  EXPECT_FALSE(server.running());
  server.Stop();  // second Stop is a no-op
}

TEST_F(ServerTest, ConcurrentClientsMatchDirectQuery) {
  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 4;
  ServerOptions options;
  options.num_workers = 4;
  Server server(engine_.get(), options);
  ASSERT_TRUE(server.Start().ok());

  // Ground truth from the embedded API.
  auto direct_triangles = engine_->Query(kTriangleSql);
  auto direct_groups = engine_->Query(kGroupBySql);
  ASSERT_TRUE(direct_triangles.ok());
  ASSERT_TRUE(direct_groups.ok());
  const auto want_triangles = DirectRows(direct_triangles.value());
  const auto want_groups = DirectRows(direct_groups.value());

  std::vector<std::thread> clients;
  std::vector<int> failures(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      TestClient client(server.port());
      if (!client.connected()) {
        failures[c] = 100;
        return;
      }
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const bool triangles = (c + r) % 2 == 0;
        obs::JsonValue resp;
        if (!client.RoundTrip(
                QueryLine(triangles ? kTriangleSql : kGroupBySql),
                &resp) ||
            !IsOk(resp)) {
          ++failures[c];
          continue;
        }
        const auto got = NumericRows(resp);
        const auto& want = triangles ? want_triangles : want_groups;
        if (got != want) ++failures[c];  // exact double equality
      }
    });
  }
  for (auto& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], 0) << "client " << c;
  }

  const auto stats = server.stats().snapshot();
  EXPECT_GE(stats.completed,
            static_cast<uint64_t>(kClients * kRequestsPerClient));
  EXPECT_EQ(stats.rejected_overload, 0u);
  server.Stop();
}

TEST_F(ServerTest, OverloadRejectsWithQueueDetail) {
  ServerOptions options;
  options.num_workers = 1;
  options.queue_capacity = 2;
  options.drain_timeout_ms = 100;
  Server server(engine_.get(), options);
  ASSERT_TRUE(server.Start().ok());

  // A worker serves one connection until it closes: after one round trip
  // the only worker is held by `busy`, so nothing drains the queue and the
  // fill is deterministic.
  TestClient busy(server.port());
  ASSERT_TRUE(busy.connected());
  obs::JsonValue busy_resp;
  ASSERT_TRUE(busy.RoundTrip(QueryLine(kTriangleSql), &busy_resp));
  ASSERT_TRUE(IsOk(busy_resp));

  // The next two connections are admitted (and never served); the third
  // must be rejected immediately with the queue depth in the detail.
  TestClient first(server.port(), /*recv_timeout_ms=*/10000);
  TestClient second(server.port(), /*recv_timeout_ms=*/10000);
  ASSERT_TRUE(first.connected());
  ASSERT_TRUE(second.connected());

  TestClient third(server.port(), /*recv_timeout_ms=*/10000);
  ASSERT_TRUE(third.connected());
  obs::JsonValue resp;
  ASSERT_TRUE(third.ReadResponse(&resp));
  EXPECT_FALSE(IsOk(resp));
  EXPECT_EQ(ErrorCode(resp), "ResourceExhausted");
  const obs::JsonValue* detail = resp.Find("detail");
  ASSERT_NE(detail, nullptr);
  const obs::JsonValue* capacity = detail->Find("queue_capacity");
  ASSERT_NE(capacity, nullptr);
  EXPECT_EQ(capacity->number, 2.0);
  const obs::JsonValue* depth = detail->Find("queue_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->number, 2.0);

  EXPECT_GE(server.stats().snapshot().rejected_overload, 1u);

  // Stop() answers the still-queued connections with a drain error rather
  // than silently dropping them.
  server.Stop();
  obs::JsonValue drain1, drain2;
  ASSERT_TRUE(first.ReadResponse(&drain1));
  ASSERT_TRUE(second.ReadResponse(&drain2));
  EXPECT_EQ(ErrorCode(drain1), "Cancelled");
  EXPECT_EQ(ErrorCode(drain2), "Cancelled");
}

TEST_F(ServerTest, StartRejectsNoWorkersAndOutOfRangeMetricsPort) {
  ServerOptions no_workers;
  no_workers.num_workers = 0;
  Server idle(engine_.get(), no_workers);
  const Status st = idle.Start();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_FALSE(idle.running());

  ServerOptions bad_port;
  bad_port.metrics_port = 65536;
  Server unscrapable(engine_.get(), bad_port);
  EXPECT_EQ(unscrapable.Start().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(unscrapable.running());
}

TEST_F(ServerTest, TimeoutReturnsDeadlineExceededAndWorkerSurvives) {
  ServerOptions options;
  options.num_workers = 1;  // the same worker must serve the follow-up
  Server server(engine_.get(), options);
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  obs::JsonValue resp;
  ASSERT_TRUE(client.RoundTrip(QueryLine(kTriangleSql, /*timeout_ms=*/1e-6),
                               &resp));
  EXPECT_FALSE(IsOk(resp));
  EXPECT_EQ(ErrorCode(resp), "DeadlineExceeded");

  // Same connection, same (sole) worker: the token was re-armed and the
  // query runs to completion.
  obs::JsonValue ok_resp;
  ASSERT_TRUE(client.RoundTrip(QueryLine(kTriangleSql), &ok_resp));
  EXPECT_TRUE(IsOk(ok_resp));

  const auto stats = server.stats().snapshot();
  EXPECT_GE(stats.timeouts, 1u);
  EXPECT_GE(stats.completed, 1u);
  server.Stop();
}

TEST_F(ServerTest, MalformedRequestsGetErrorsNotCrashes) {
  Server server(engine_.get(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  obs::JsonValue resp;
  ASSERT_TRUE(client.RoundTrip("this is not json", &resp));
  EXPECT_FALSE(IsOk(resp));
  EXPECT_EQ(ErrorCode(resp), "InvalidArgument");

  ASSERT_TRUE(client.RoundTrip(R"({"sql": 5})", &resp));
  EXPECT_FALSE(IsOk(resp));

  ASSERT_TRUE(client.RoundTrip(R"({"mode": "query"})", &resp));
  EXPECT_FALSE(IsOk(resp));  // sql missing

  ASSERT_TRUE(
      client.RoundTrip(R"({"sql": "SELECT 1", "mode": "bogus"})", &resp));
  EXPECT_FALSE(IsOk(resp));

  ASSERT_TRUE(client.RoundTrip(
      R"({"sql": "SELECT 1", "timeout_ms": -5})", &resp));
  EXPECT_FALSE(IsOk(resp));

  // The connection survives all of the above.
  obs::JsonValue ok_resp;
  ASSERT_TRUE(client.RoundTrip(QueryLine(kTriangleSql), &ok_resp));
  EXPECT_TRUE(IsOk(ok_resp));
  server.Stop();
}

TEST_F(ServerTest, MistypedQueriesGetErrorResponsesNotCrashes) {
  // Mixed string/numeric comparisons and string BETWEEN bounds used to
  // slip past the binder into row evaluation, where LH_CHECK aborts took
  // the whole serving process down. They must come back as error
  // responses; the server and even the same connection stay alive.
  Server server(engine_.get(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  const char* mistyped[] = {
      "SELECT count(*) FROM edge WHERE w > 'abc'",
      "SELECT count(*) FROM edge WHERE src = 'abc'",
      "SELECT count(*) FROM edge WHERE w BETWEEN 1 AND 'z'",
      "SELECT count(*) FROM edge WHERE w BETWEEN 'a' AND 'z'",
      "SELECT sum(w + 'oops') FROM edge",
  };
  obs::JsonValue resp;
  for (const char* sql : mistyped) {
    ASSERT_TRUE(client.RoundTrip(QueryLine(sql), &resp)) << sql;
    EXPECT_FALSE(IsOk(resp)) << sql;
    EXPECT_EQ(ErrorCode(resp), "InvalidArgument") << sql;
  }

  // The connection survives and well-typed queries still work.
  obs::JsonValue ok_resp;
  ASSERT_TRUE(client.RoundTrip(QueryLine(kTriangleSql), &ok_resp));
  EXPECT_TRUE(IsOk(ok_resp));
  server.Stop();
}

TEST_F(ServerTest, OversizedLineGetsErrorThenClose) {
  ServerOptions options;
  options.max_request_bytes = 1024;
  Server server(engine_.get(), options);
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  // Stream a 1MB "line": the server must answer with an error once the
  // bound trips — never buffer it all, never crash.
  std::string big(1u << 20, 'x');
  big.push_back('\n');
  (void)client.SendRaw(big);  // may fail part-way once the server closes
  obs::JsonValue resp;
  ASSERT_TRUE(client.ReadResponse(&resp));
  EXPECT_FALSE(IsOk(resp));
  EXPECT_EQ(ErrorCode(resp), "InvalidArgument");
  server.Stop();
}

TEST_F(ServerTest, StatsRequestExportsCounters) {
  Server server(engine_.get(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  obs::JsonValue resp;
  ASSERT_TRUE(client.RoundTrip(QueryLine(kTriangleSql), &resp));
  ASSERT_TRUE(IsOk(resp));

  obs::JsonValue stats_resp;
  ASSERT_TRUE(client.RoundTrip(R"({"stats": true})", &stats_resp));
  ASSERT_TRUE(IsOk(stats_resp));
  const obs::JsonValue* stats = stats_resp.Find("stats");
  ASSERT_NE(stats, nullptr);
  const obs::JsonValue* accepted = stats->Find("server.accepted");
  ASSERT_NE(accepted, nullptr);
  EXPECT_GE(accepted->number, 1.0);
  const obs::JsonValue* completed = stats->Find("server.completed");
  ASSERT_NE(completed, nullptr);
  EXPECT_GE(completed->number, 1.0);
  // Server-side latency percentiles ride along with the counters.
  ASSERT_NE(stats->Find("server.latency_ms_p99"), nullptr);
  // The export is the whole engine surface, not just server.*: trie-cache
  // tallies and engine-lifetime exec/pool counters are present too.
  for (const char* key :
       {"cache.hits", "cache.misses", "cache.bytes", "pool.chunks",
        "pool.tasks_spawned", "exec.tuples_emitted"}) {
    EXPECT_NE(stats->Find(key), nullptr) << key;
  }
  server.Stop();
}

// Minimal Prometheus text-exposition check: every line is a comment or
// `name{labels} value`, families are declared before use, and the
// histogram's +Inf bucket equals its _count.
void CheckPrometheusExposition(const std::string& text) {
  std::set<std::string> declared;
  std::istringstream in(text);
  std::string line;
  double latency_inf = -1, latency_count = -1;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    if (line[0] == '#') {
      // "# HELP name ..." / "# TYPE name counter|gauge|histogram"
      std::istringstream ls(line);
      std::string hash, kind, name;
      ls >> hash >> kind >> name;
      EXPECT_TRUE(kind == "HELP" || kind == "TYPE") << line;
      if (kind == "TYPE") declared.insert(name);
      continue;
    }
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string value = line.substr(space + 1);
    EXPECT_FALSE(value.empty()) << line;
    char* end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (value != "+Inf") {
      EXPECT_EQ(*end, '\0') << "unparsable sample value: " << line;
    }
    std::string name = line.substr(0, std::min(line.find('{'), space));
    // Histogram series belong to the family without the suffix.
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const size_t pos = name.rfind(suffix);
      if (pos != std::string::npos &&
          pos + std::strlen(suffix) == name.size() &&
          declared.count(name.substr(0, pos)) > 0) {
        name = name.substr(0, pos);
        break;
      }
    }
    EXPECT_TRUE(declared.count(name) > 0)
        << "sample before # TYPE declaration: " << line;
    if (line.rfind("lh_server_latency_seconds_bucket{le=\"+Inf\"}", 0) == 0) {
      latency_inf = v;
    }
    if (line.rfind("lh_server_latency_seconds_count", 0) == 0) {
      latency_count = v;
    }
  }
  EXPECT_GE(latency_inf, 0.0);
  EXPECT_EQ(latency_inf, latency_count);
}

TEST_F(ServerTest, MetricsRequestRendersPrometheusText) {
  Server server(engine_.get(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  obs::JsonValue resp;
  ASSERT_TRUE(client.RoundTrip(QueryLine(kTriangleSql), &resp));
  ASSERT_TRUE(IsOk(resp));

  obs::JsonValue metrics_resp;
  ASSERT_TRUE(client.RoundTrip(R"({"metrics": true})", &metrics_resp));
  ASSERT_TRUE(IsOk(metrics_resp));
  const obs::JsonValue* metrics = metrics_resp.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_TRUE(metrics->IsString());
  const std::string& text = metrics->string;
  EXPECT_NE(text.find("# TYPE lh_server_accepted_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE lh_server_latency_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("lh_server_requests_total{outcome=\"ok\"}"),
            std::string::npos);
  EXPECT_NE(text.find("lh_trie_cache_bytes"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lh_pool_jobs_started_total counter"),
            std::string::npos);
  // The only query has returned, so no parallel region is live.
  EXPECT_NE(text.find("# TYPE lh_pool_live_jobs gauge\n"
                      "lh_pool_live_jobs 0\n"),
            std::string::npos);
  CheckPrometheusExposition(text);
  server.Stop();
}

TEST_F(ServerTest, MetricsHttpEndpointServesScrapes) {
  ServerOptions options;
  options.metrics_port = 0;  // ephemeral
  Server server(engine_.get(), options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.metrics_port(), 0);

  TestClient query_client(server.port());
  ASSERT_TRUE(query_client.connected());
  obs::JsonValue resp;
  ASSERT_TRUE(query_client.RoundTrip(QueryLine(kGroupBySql), &resp));
  ASSERT_TRUE(IsOk(resp));

  // A plain HTTP/1.0 GET against the scrape endpoint.
  auto scrape = [&](const std::string& request_line,
                    std::string* out) -> bool {
    auto conn = ConnectLoopback(server.metrics_port());
    if (!conn.ok()) return false;
    if (!SetRecvTimeout(conn.value(), 10000).ok()) return false;
    if (!SendAll(conn.value(), request_line + "\r\n\r\n").ok()) return false;
    LineReader reader(&conn.value(), 1u << 20);
    std::string line;
    out->clear();
    while (reader.ReadLine(&line) == LineReader::ReadStatus::kLine) {
      out->append(line);
      out->push_back('\n');
    }
    return !out->empty();
  };

  std::string body;
  ASSERT_TRUE(scrape("GET /metrics HTTP/1.0", &body));
  EXPECT_NE(body.find("200 OK"), std::string::npos);
  EXPECT_NE(body.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(body.find("# TYPE lh_server_accepted_total counter"),
            std::string::npos);

  std::string missing;
  ASSERT_TRUE(scrape("GET /nope HTTP/1.0", &missing));
  EXPECT_NE(missing.find("404"), std::string::npos);

  server.Stop();
  // The scrape endpoint dies with the server.
  EXPECT_FALSE(ConnectLoopback(server.metrics_port()).ok());
}

TEST_F(ServerTest, TraceRequestCarriesChromeTraceEvents) {
  Server server(engine_.get(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  obs::JsonValue resp;
  ASSERT_TRUE(client.RoundTrip(
      std::string(R"({"sql": ")") + kTriangleSql + R"(", "trace": true})",
      &resp));
  ASSERT_TRUE(IsOk(resp));
  // Plain query responses stay lean (no profile) even when traced.
  EXPECT_EQ(resp.Find("profile"), nullptr);
  const obs::JsonValue* trace = resp.Find("trace");
  ASSERT_NE(trace, nullptr);
  const obs::JsonValue* events = trace->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->IsArray());
  // At least the query/parse/bind/plan/execute spans plus metadata.
  EXPECT_GE(events->array.size(), 5u);
  bool saw_execute = false;
  for (const obs::JsonValue& event : events->array) {
    const obs::JsonValue* name = event.Find("name");
    if (name != nullptr && name->string.rfind("execute", 0) == 0) {
      saw_execute = true;
    }
  }
  EXPECT_TRUE(saw_execute);

  // Untraced requests on the same connection stay trace-free.
  ASSERT_TRUE(client.RoundTrip(QueryLine(kTriangleSql), &resp));
  ASSERT_TRUE(IsOk(resp));
  EXPECT_EQ(resp.Find("trace"), nullptr);
  server.Stop();
}

TEST_F(ServerTest, SlowQueryLogOverTheWire) {
  // A separate engine whose slow-query threshold catches everything.
  EngineOptions engine_options;
  engine_options.slow_query_ms = 1e-6;
  Engine slow_engine(&catalog_, engine_options);
  ServerOptions options;
  options.collect_request_stats = true;  // span/cache attribution
  Server server(&slow_engine, options);
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  obs::JsonValue resp;
  ASSERT_TRUE(client.RoundTrip(QueryLine(kTriangleSql), &resp));
  ASSERT_TRUE(IsOk(resp));

  obs::JsonValue slowlog_resp;
  ASSERT_TRUE(client.RoundTrip(R"({"slowlog": true})", &slowlog_resp));
  ASSERT_TRUE(IsOk(slowlog_resp));
  const obs::JsonValue* slowlog = slowlog_resp.Find("slowlog");
  ASSERT_NE(slowlog, nullptr);
  EXPECT_EQ(slowlog->Find("threshold_ms")->number, 1e-6);
  const obs::JsonValue* records = slowlog->Find("records");
  ASSERT_NE(records, nullptr);
  ASSERT_GE(records->array.size(), 1u);
  const obs::JsonValue& record = records->array.back();
  EXPECT_EQ(record.Find("sql")->string, kTriangleSql);
  EXPECT_EQ(record.Find("status")->string, "OK");
  EXPECT_GT(record.Find("latency_ms")->number, 0.0);
  const obs::JsonValue* top_spans = record.Find("top_spans");
  ASSERT_NE(top_spans, nullptr);
  EXPECT_GE(top_spans->array.size(), 1u);
  server.Stop();
}

TEST_F(ServerTest, ExplainAndAnalyzeModes) {
  Server server(engine_.get(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  obs::JsonValue resp;
  ASSERT_TRUE(client.RoundTrip(
      std::string(R"({"sql": ")") + kTriangleSql +
          R"(", "mode": "analyze"})",
      &resp));
  ASSERT_TRUE(IsOk(resp));
  EXPECT_NE(resp.Find("profile"), nullptr)
      << "analyze responses carry the execution profile";

  ASSERT_TRUE(client.RoundTrip(
      std::string(R"({"sql": ")") + kTriangleSql +
          R"(", "mode": "explain"})",
      &resp));
  ASSERT_TRUE(IsOk(resp));
  const obs::JsonValue* explain = resp.Find("explain");
  ASSERT_NE(explain, nullptr);
  const obs::JsonValue* ghd = explain->Find("num_ghd_nodes");
  ASSERT_NE(ghd, nullptr);
  EXPECT_GE(ghd->number, 1.0);
  server.Stop();
}

TEST_F(ServerTest, GracefulShutdownWithInflightQuery) {
  ServerOptions options;
  options.num_workers = 2;
  options.drain_timeout_ms = 2000;
  Server server(engine_.get(), options);
  ASSERT_TRUE(server.Start().ok());

  // One client mid-conversation, one idle: Stop() must complete promptly
  // regardless, cancelling anything still running via the worker tokens.
  TestClient busy(server.port());
  TestClient idle(server.port());
  ASSERT_TRUE(busy.connected());
  ASSERT_TRUE(idle.connected());
  obs::JsonValue resp;
  ASSERT_TRUE(busy.RoundTrip(QueryLine(kGroupBySql), &resp));
  EXPECT_TRUE(IsOk(resp));

  const auto start = std::chrono::steady_clock::now();
  server.Stop();
  const double stop_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_FALSE(server.running());
  // Drain budget + poll interval + margin; a hang here means shutdown
  // deadlocked on an idle connection.
  EXPECT_LT(stop_ms, 10'000);
}

TEST(ProtocolTest, ParseRequestLineCoversModes) {
  ServerRequest req;
  ASSERT_TRUE(server::ParseRequestLine(
                  R"({"sql": "SELECT 1", "mode": "analyze",)"
                  R"( "timeout_ms": 250})",
                  &req)
                  .ok());
  EXPECT_EQ(req.mode, ServerRequest::Mode::kAnalyze);
  EXPECT_EQ(req.sql, "SELECT 1");
  EXPECT_EQ(req.timeout_ms, 250.0);

  ASSERT_TRUE(server::ParseRequestLine(R"({"stats": true})", &req).ok());
  EXPECT_EQ(req.mode, ServerRequest::Mode::kStats);

  ASSERT_TRUE(server::ParseRequestLine(R"({"metrics": true})", &req).ok());
  EXPECT_EQ(req.mode, ServerRequest::Mode::kMetrics);

  ASSERT_TRUE(server::ParseRequestLine(R"({"slowlog": true})", &req).ok());
  EXPECT_EQ(req.mode, ServerRequest::Mode::kSlowLog);

  ASSERT_TRUE(server::ParseRequestLine(
                  R"({"sql": "SELECT 1", "trace": true})", &req)
                  .ok());
  EXPECT_TRUE(req.include_trace);
  ASSERT_TRUE(server::ParseRequestLine(R"({"sql": "SELECT 1"})", &req).ok());
  EXPECT_FALSE(req.include_trace);
  EXPECT_FALSE(server::ParseRequestLine(
                   R"({"sql": "SELECT 1", "trace": "yes"})", &req)
                   .ok());

  EXPECT_FALSE(server::ParseRequestLine("{}", &req).ok());
  EXPECT_FALSE(server::ParseRequestLine("[1,2]", &req).ok());
  EXPECT_FALSE(server::ParseRequestLine("", &req).ok());
}

}  // namespace
}  // namespace levelheaded
