// Sharded-topology load generator: the server_loadgen mixed workload
// (TPC-H Q1/Q5/Q6 + triangle over loopback TCP) against a ShardedEngine
// at 1, 2, and 4 lanes, same total worker budget per step — so the row
// measures what the scatter-gather topology buys, not extra threads.
//
// What lanes can still buy: the single-engine pool already runs
// concurrent queries' parallel regions side by side, one job per region
// (DESIGN.md §10), so the lanes' per-lane pools no longer dodge any
// cross-query serialization. What is left to measure is partitioning
// itself: CPU-pinned lane pools and chunk ranges split by root key. Compare
// this row against bench/server_loadgen on the same host to see whether
// the lanes earn their code. The final "scaling" entry exports
// speedup_4x = QPS(4 lanes) / QPS(1 lane) at the widest connection
// step; the differential suite (tests/shard_test.cc) separately pins
// down that the answers are bit-identical across topologies.
//
// Knobs: LH_LOADGEN_CONNS (default 32, smoke 4), LH_LOADGEN_OPS
// (requests per connection), LH_TPCH_SF (TPC-H scale factor).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/engine.h"
#include "obs/json_writer.h"
#include "server/server.h"
#include "shard/sharded_engine.h"
#include "util/rng.h"
#include "util/socket.h"
#include "util/timer.h"
#include "workload/tpch_gen.h"

namespace levelheaded::bench {
namespace {

/// TPC-H tables plus a small random graph, as in server_loadgen.
std::unique_ptr<Catalog> BuildMixedCatalog(double sf, int graph_nodes,
                                           int graph_degree) {
  auto catalog = std::make_unique<Catalog>();
  TpchGenerator gen(sf);
  gen.Populate(catalog.get()).CheckOK();
  Table* t =
      catalog
          ->CreateTable(TableSchema(
              "edge", {ColumnSpec::Key("src", ValueType::kInt64, "node"),
                       ColumnSpec::Key("dst", ValueType::kInt64, "node"),
                       ColumnSpec::Annotation("w", ValueType::kDouble)}))
          .ValueOrDie();
  Rng rng(0xC0FFEE);
  for (int src = 0; src < graph_nodes; ++src) {
    for (int d = 0; d < graph_degree; ++d) {
      const int dst = static_cast<int>(rng.Uniform(graph_nodes));
      if (dst == src) continue;
      t->AppendRow({Value::Int(src), Value::Int(dst),
                    Value::Real(rng.UniformDouble(0, 1))})
          .CheckOK();
    }
  }
  catalog->Finalize().CheckOK();
  return catalog;
}

std::string RequestLine(const std::string& sql) {
  obs::JsonWriter w(/*pretty=*/false);
  w.BeginObject();
  w.Key("sql");
  w.String(sql);
  w.EndObject();
  return w.str() + "\n";
}

/// One client connection firing `ops` requests from the rotating mix.
/// Returns the number of failed requests.
int RunClient(uint16_t port, int client_id, int ops,
              const std::vector<std::string>& requests) {
  auto conn = ConnectLoopbackRetry(port, /*deadline_ms=*/2000);
  if (!conn.ok()) return ops;
  if (!SetRecvTimeout(conn.value(), 60'000).ok()) return ops;
  LineReader reader(&conn.value(), 64u << 20);
  int failures = 0;
  for (int i = 0; i < ops; ++i) {
    const std::string& request =
        requests[static_cast<size_t>(i + client_id) % requests.size()];
    std::string response;
    if (!SendAll(conn.value(), request).ok() ||
        reader.ReadLine(&response) != LineReader::ReadStatus::kLine ||
        response.find("\"ok\":true") == std::string::npos) {
      ++failures;
    }
  }
  return failures;
}

int Run() {
  const double sf = EnvDouble("LH_TPCH_SF", Smoke() ? 0.002 : 0.01);
  const int graph_nodes = Smoke() ? 60 : 200;
  const int conns = static_cast<int>(
      EnvDouble("LH_LOADGEN_CONNS", Smoke() ? 4 : 32));
  const int ops_per_conn = static_cast<int>(
      EnvDouble("LH_LOADGEN_OPS", Smoke() ? 4 : 24));
  const std::vector<int> shard_steps =
      Smoke() ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4};

  auto catalog = BuildMixedCatalog(sf, graph_nodes, /*graph_degree=*/4);

  const std::vector<std::string> mix = {
      TpchQuery("q1"),
      TpchQuery("q5"),
      TpchQuery("q6"),
      "SELECT count(*) FROM edge e1, edge e2, edge e3 "
      "WHERE e1.dst = e2.src AND e2.dst = e3.src AND e3.dst = e1.src",
  };
  std::vector<std::string> requests;
  requests.reserve(mix.size());
  for (const std::string& sql : mix) requests.push_back(RequestLine(sql));

  // Constant total worker budget across topologies: a lane gets
  // total / shards threads, so 4 lanes never simply means 4x threads.
  const int total_lane_threads = std::max(
      4, static_cast<int>(std::thread::hardware_concurrency()));

  std::printf("sharded server loadgen (TPC-H SF %g + %d-node graph), "
              "%d connections x %d requests, %d lane threads total\n\n",
              sf, graph_nodes, conns, ops_per_conn, total_lane_threads);
  PrintRow("Shards", {"QPS", "p50", "p99"}, 10, 12);

  double qps_first = 0, qps_last = 0;
  for (const int shards : shard_steps) {
    shard::ShardedEngineOptions shard_options;
    shard_options.num_shards = shards;
    shard_options.threads_per_lane =
        std::max(1, total_lane_threads / shards);
    shard::ShardedEngine backend(catalog.get(), shard_options);

    // Warm the shared trie cache so every topology serves steady state,
    // and fail fast on a broken query.
    for (const std::string& sql : mix) {
      auto r = backend.Query(sql);
      if (!r.ok()) {
        std::fprintf(stderr, "warmup error: %s\n",
                     r.status().ToString().c_str());
        return 1;
      }
    }

    server::ServerOptions options;
    options.num_workers = Smoke() ? 4 : 8;
    options.queue_capacity = 64;  // must not reject under this load
    server::Server server(&backend, options);
    {
      Status st = server.Start();
      if (!st.ok()) {
        std::fprintf(stderr, "server start: %s\n", st.ToString().c_str());
        return 1;
      }
    }

    const int total_ops = conns * ops_per_conn;
    std::vector<int> failures(static_cast<size_t>(conns), 0);
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(conns));
    const obs::HistogramSnapshot before = server.stats().LatencySnapshot();
    WallTimer wall;
    for (int c = 0; c < conns; ++c) {
      threads.emplace_back([&, c] {
        failures[static_cast<size_t>(c)] =
            RunClient(server.port(), c, ops_per_conn, requests);
      });
    }
    for (auto& t : threads) t.join();
    const double wall_ms = wall.ElapsedMillis();
    const obs::HistogramSnapshot window = obs::HistogramSnapshot::Delta(
        before, server.stats().LatencySnapshot());
    server.Stop();

    int failed = 0;
    for (int f : failures) failed += f;
    const std::string label = "shards_" + std::to_string(shards);
    if (failed > 0) {
      std::fprintf(stderr, "%d of %d requests failed at %d shards\n",
                   failed, total_ops, shards);
      StatsLog::Get().Record(label, Measurement::Mark("err"));
      return 1;
    }
    const double qps =
        wall_ms > 0 ? 1000.0 * static_cast<double>(total_ops) / wall_ms : 0;
    if (shards == shard_steps.front()) qps_first = qps;
    qps_last = qps;
    const double p50 = window.QuantileMillis(0.50);
    const double p99 = window.QuantileMillis(0.99);

    std::vector<std::pair<std::string, double>> extras = {
        {"shards", static_cast<double>(shards)},
        {"connections", static_cast<double>(conns)},
        {"qps", qps},
        {"p50_ms", p50},
        {"p99_ms", p99}};
    // Per-lane dispatch totals show the scatter actually spread work.
    for (const ShardLaneInfo& lane : backend.ShardLanes()) {
      extras.push_back({"lane_" + std::to_string(lane.lane) + "_chunks",
                        static_cast<double>(lane.chunks)});
    }
    StatsLog::Get().Record(label, Measurement::Time(wall_ms), nullptr,
                           std::move(extras));

    char qps_cell[32];
    std::snprintf(qps_cell, sizeof(qps_cell), "%.1f", qps);
    PrintRow(std::to_string(shards),
             {qps_cell, FormatTime(Measurement::Time(p50)),
              FormatTime(Measurement::Time(p99))},
             10, 12);
  }

  // Honest topline: widest topology vs single lane, same thread budget.
  const double speedup = qps_first > 0 ? qps_last / qps_first : 0;
  std::printf("\naggregate QPS scaling %d -> %d shards: %.2fx\n",
              shard_steps.front(), shard_steps.back(), speedup);
  StatsLog::Get().Record(
      "scaling", Measurement::Mark("speedup"), nullptr,
      {{"speedup", speedup},
       {"shards_max", static_cast<double>(shard_steps.back())}});
  return 0;
}

}  // namespace
}  // namespace levelheaded::bench

int main(int argc, char** argv) {
  levelheaded::bench::InitBench("server_loadgen_sharded", &argc, argv);
  const int rc = levelheaded::bench::Run();
  const int finish = levelheaded::bench::FinishBench();
  return rc != 0 ? rc : finish;
}
