// perfbench: one run of one workload.
//
//   perfbench --workload bi_serve|bi_cold|la_sparse --seed N --seconds S
//             --trace 0|1 [--source ID] [--trace-out FILE]
//
// Run order: set up (3 times untraced, once traced; setup_s is the median),
// check every op against its oracle, warm the load path for kWarmSeconds
// (excluded from every metric), then measure. --trace 0 measures one
// untraced window of S seconds and prints the end-to-end metrics.
// --trace 1 measures an untraced and a traced window of S/2 seconds each
// and prints the per-layer metrics; the spans go to --trace-out as
// Chrome-trace JSON. The last stdout line is the result object
// {"correct", "attempted", "failed", "metrics"}; exit status 1 means a
// wrong answer or a failed op.

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "metrics.h"
#include "obs/json_writer.h"
#include "obs/profile.h"
#include "runner.h"
#include "spans.h"
#include "tracing_backend.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace levelheaded;

/// Load before the measured window, so the first window does not pay for
/// cold thread stacks, allocator growth and page faults on the server path
/// (README.md, "Warm-up").
constexpr double kWarmSeconds = 2.0;
constexpr int kSetupReps = 3;

/// Every per-layer metric, in output order. A metric whose layer is not on
/// a workload's path reads 0 there (README.md lists where each applies).
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"server.rtt_p50_ms", "ms"},     {"server.overhead_p50_ms", "ms"},
    {"sql.parse_us", "us"},          {"sql.bind_us", "us"},
    {"plan.build_us", "us"},         {"plan.share", "ratio"},
    {"exec.run_ms", "ms"},           {"exec.filter_ms", "ms"},
    {"op.q1.p50_ms", "ms"},          {"op.q3.p50_ms", "ms"},
    {"op.q5.p50_ms", "ms"},          {"op.q6.p50_ms", "ms"},
    {"op.q8.p50_ms", "ms"},          {"op.q9.p50_ms", "ms"},
    {"op.q10.p50_ms", "ms"},         {"op.tri.p50_ms", "ms"},
    {"op.smv.p50_ms", "ms"},         {"op.smm.p50_ms", "ms"},
    {"cache.hit_ratio", "ratio"},    {"cache.builds", "count"},
    {"cache.evictions", "count"},    {"cache.build_waits", "count"},
    {"cache.bytes", "bytes"},        {"trie.build_ms", "ms"},
    {"intersect.calls", "count"},    {"intersect.result_values", "count"},
    {"trie.nodes_visited", "count"}, {"pool.cpu_util", "ratio"},
    {"pool.chunks", "count"},        {"pool.task_steals", "count"},
    {"la.smv_vs_csr", "ratio"},      {"la.smm_vs_spgemm", "ratio"},
    {"expr.fallbacks", "count"},     {"expr.fused_rows", "count"},
    {"trace.coverage", "ratio"},     {"trace.overhead", "ratio"},
    {"mem.peak_rss_mb", "MB"},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string source = "unknown";
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args->trace = std::string(value) == "1";
    } else if (key == "--source") {
      args->source = value;
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

void PrintFingerprint(const Args& args, const Workload& wl) {
  obs::JsonWriter w(/*pretty=*/false);
  w.BeginObject();
  const char* lh_threads = std::getenv("LH_THREADS");
  const std::vector<std::pair<std::string, std::string>> fixed = {
      {"workload", args.workload},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"cpu_model", CpuModel()},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"pool_threads", std::to_string(ThreadPool::Global().num_threads())},
      {"LH_THREADS", lh_threads != nullptr ? lh_threads : "unset"},
      {"seed", std::to_string(args.seed)},
      {"source", args.source},
      {"seconds", std::to_string(args.seconds)},
  };
  for (const auto& [k, v] : fixed) {
    w.Key(k);
    w.String(v);
  }
  for (const auto& [k, v] : wl.Inputs()) {
    w.Key(k);
    w.String(v);
  }
  w.EndObject();
  std::printf("fingerprint %s\n", w.str().c_str());
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const MetricSet& metrics) {
  for (const MetricSet::Metric& m : metrics.items()) {
    std::printf("  %-26s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  obs::JsonWriter w(/*pretty=*/false);
  w.BeginObject();
  w.Key("correct");
  w.Bool(correct);
  w.Key("attempted");
  w.Int(attempted);
  w.Key("failed");
  w.Int(failed);
  w.Key("metrics");
  w.BeginObject();
  for (const MetricSet::Metric& m : metrics.items()) {
    w.Key(m.name);
    w.BeginObject();
    w.Key("value");
    w.Number(m.value);
    w.Key("unit");
    w.String(m.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
}

/// Wall-clock metrics count only the CPU time the VM received: on a shared
/// host the hypervisor can withhold 0-40% of it from one run to the next,
/// which would swamp any change in the engine. Each op's latency is scaled
/// by (1 - the steal share during its round trip), the window's wall time
/// and each setup's time by (1 - their own share); on a dedicated host the
/// share is 0. The unscaled values are printed beside the scaled ones.
void EndToEndMetrics(const Workload& wl, const Window& win,
                     const std::vector<std::pair<double, double>>& setup_s,
                     MetricSet* out) {
  const std::vector<double> raw = win.Latencies();
  const std::vector<double> received = win.Latencies(-1, true);
  const TailChoice tail = SelectTail(received, wl.tail_pct);
  const double done = static_cast<double>(win.samples.size());
  const double raw_qps = done / win.wall_s;
  std::printf("samples %zu, tail_ms = p%g with %zu beyond; error_ratio %g "
              "(%lld of %lld)\n",
              received.size(), tail.pct, tail.beyond,
              static_cast<double>(win.failed) /
                  static_cast<double>(std::max<int64_t>(1, win.attempted)),
              static_cast<long long>(win.failed),
              static_cast<long long>(win.attempted));
  std::printf("host steal %.1f%%; unscaled qps %.4g, p50_ms %.4g, "
              "tail_ms %.4g; peak RSS %.1f MB\nsetup runs (unscaled):",
              100 * win.steal_share, raw_qps, Percentile(raw, 50),
              Percentile(raw, tail.pct), PeakRssMb());
  std::vector<double> setup_scaled;
  for (const auto& [secs, share] : setup_s) {
    std::printf(" %.3fs", secs);
    setup_scaled.push_back(secs * (1 - share));
  }
  std::printf("\nop p50 (n):");
  for (size_t i = 0; i < wl.ops.size(); ++i) {
    const std::vector<double> lat = win.Latencies(static_cast<int>(i));
    std::printf(" %s %.3fms (%zu)", wl.ops[i].name.c_str(),
                Percentile(lat, 50), lat.size());
  }
  std::printf("\n");
  out->Add("qps", raw_qps / (1 - win.steal_share), "1/s");
  out->Add("p50_ms", Percentile(received, 50), "ms");
  out->Add("tail_ms", tail.value, "ms");
  out->Add("cpu_ms_per_op", 1000 * win.cpu_s / std::max(1.0, done), "ms");
  out->Add("setup_s", Median(setup_scaled), "s");
}

/// Per-layer metrics from the untraced window `plain`, the traced window
/// `traced`, its span log, the trie-cache tallies across it (and the peak
/// RSS over both windows) in `cache_delta`, and one QueryAnalyze per op.
void LayerMetrics(Workload* wl, const Window& plain, const Window& traced,
                  const std::vector<Span>& spans,
                  const std::map<std::string, double>& cache_delta,
                  MetricSet* out) {
  std::map<std::string, double> m;
  const std::vector<double> self = SelfTimes(spans);
  std::map<std::string, std::vector<double>> dur;
  std::map<int64_t, double> client_ms, backend_ms;
  double backend_total = 0, backend_self = 0, front_total = 0;
  std::vector<double> filter_ms;
  double build_ms_total = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    dur[s.name].push_back(s.duration_ms());
    if (s.name == "client") client_ms[s.rid] = s.duration_ms();
    if (s.name == "backend") {
      backend_ms[s.rid] = s.duration_ms();
      backend_total += s.duration_ms();
      backend_self += self[i];
    }
    if (s.name == "parse" || s.name == "bind" || s.name == "plan") {
      front_total += s.duration_ms();
    }
    for (const auto& [k, v] : s.args) {
      if (k == "filter_ms") filter_ms.push_back(v);
      if (k == "index_build_ms") build_ms_total += v;
    }
  }
  if (wl->via_server) {
    std::vector<double> overhead;
    for (const auto& [rid, ms] : backend_ms) {
      auto it = client_ms.find(rid);
      if (it != client_ms.end()) overhead.push_back(it->second - ms);
    }
    m["server.rtt_p50_ms"] = Median(dur["client"]);
    m["server.overhead_p50_ms"] = Median(overhead);
  }
  m["sql.parse_us"] = 1000 * Median(dur["parse"]);
  m["sql.bind_us"] = 1000 * Median(dur["bind"]);
  m["plan.build_us"] = 1000 * Median(dur["plan"]);
  m["plan.share"] = backend_total > 0 ? front_total / backend_total : 0;
  m["exec.run_ms"] = Median(dur["execute"]);
  m["exec.filter_ms"] = Median(filter_ms);
  m["trie.build_ms"] =
      build_ms_total / std::max<double>(1, static_cast<double>(backend_ms.size()));
  m["trace.coverage"] =
      backend_total > 0 ? 1 - backend_self / backend_total : 0;
  // Both p50s on the CPU time the VM received (see EndToEndMetrics).
  const double plain_p50 = Percentile(plain.Latencies(-1, true), 50);
  const double traced_p50 = Percentile(traced.Latencies(-1, true), 50);
  m["trace.overhead"] = plain_p50 > 0 ? traced_p50 / plain_p50 - 1 : 0;

  std::map<std::string, std::vector<double>> by_type;
  std::vector<double> p50_by_op;
  for (size_t i = 0; i < wl->ops.size(); ++i) {
    const std::vector<double> lat = plain.Latencies(static_cast<int>(i));
    auto& all = by_type[wl->ops[i].type];
    all.insert(all.end(), lat.begin(), lat.end());
    p50_by_op.push_back(Median(lat));
  }
  for (const auto& [type, lat] : by_type) {
    m["op." + type + ".p50_ms"] = Median(lat);
  }
  for (const auto& [k, v] : cache_delta) m[k] = v;
  // CPU seconds over the CPU seconds the VM received in the window.
  m["pool.cpu_util"] =
      plain.cpu_s / (plain.wall_s * (1 - plain.steal_share) *
                     std::max(1u, std::thread::hardware_concurrency()));

  for (const Op& op : wl->ops) {
    Result<QueryResult> r = wl->engine()->QueryAnalyze(op.sql);
    if (!r.ok() || r.value().profile == nullptr) continue;
    const obs::StatsSnapshot& c = r.value().profile->counters;
    auto add = [&m](const char* name, uint64_t v) {
      m[name] += static_cast<double>(v);
    };
    add("intersect.calls", c.TotalIntersections());
    add("intersect.result_values", c.intersect_result_values);
    add("trie.nodes_visited", c.trie_nodes_visited);
    add("pool.chunks", c.thread_pool_chunks);
    add("pool.task_steals", c.pool_task_steals);
    add("expr.fallbacks", c.expr_fallbacks);
    add("expr.fused_rows", c.expr_fused_rows);
  }

  MetricSet reference;
  wl->ReferenceMetrics(p50_by_op, &reference);
  for (const MetricSet::Metric& r : reference.items()) m[r.name] = r.value;

  for (const auto& [name, unit] : kLayerMetrics) {
    auto it = m.find(name);
    out->Add(name, it != m.end() ? it->second : 0, unit);
  }
}

std::map<std::string, double> CacheTallies(TrieCache* cache) {
  return {{"hits", static_cast<double>(cache->hits())},
          {"probes", static_cast<double>(cache->probes())},
          {"cache.builds", static_cast<double>(cache->builds())},
          {"cache.evictions", static_cast<double>(cache->evictions())},
          {"cache.build_waits", static_cast<double>(cache->build_waits())}};
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--source ID] [--trace-out FILE]\n");
    return 2;
  }
  std::unique_ptr<Workload> wl = MakeWorkload(args.workload, args.seed);
  if (wl == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  std::vector<std::pair<double, double>> setup_s;  // {seconds, steal share}
  for (int rep = 0; rep < (args.trace ? 1 : kSetupReps); ++rep) {
    WallTimer t;
    StealTrace steal;
    steal.Sample(0);
    Status st = wl->Setup();
    if (!st.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
      return 1;
    }
    const double secs = t.ElapsedSeconds();
    steal.Sample(secs);
    setup_s.push_back({secs, steal.Share(0, secs)});
  }
  PrintFingerprint(args, *wl);
  const Status verified = wl->Verify();
  if (!verified.ok()) {
    std::printf("oracle check FAILED: %s\n", verified.ToString().c_str());
    PrintResult(false, 1, 1, MetricSet());
    return 1;
  }
  std::printf("oracle check passed for %zu ops\n", wl->ops.size());

  std::atomic<int64_t> next_rid{0};
  const Window warm =
      RunWindow(wl.get(), wl->engine(), kWarmSeconds, nullptr, &next_rid);
  MetricSet metrics;
  int64_t attempted = warm.attempted, failed = warm.failed;
  // Hand the setups' freed memory back to the kernel so the peak measures
  // what serving holds, not what the allocator kept from setup.
  malloc_trim(0);
  ResetPeakRss();
  if (!args.trace) {
    const Window win =
        RunWindow(wl.get(), wl->engine(), args.seconds, nullptr, &next_rid);
    attempted += win.attempted;
    failed += win.failed;
    EndToEndMetrics(*wl, win, setup_s, &metrics);
  } else {
    const Window plain = RunWindow(wl.get(), wl->engine(), args.seconds / 2,
                                   nullptr, &next_rid);
    SpanLog log;
    TracingBackend backend(wl->engine(), wl->catalog(), &log);
    TrieCache* cache = wl->engine()->trie_cache();
    std::map<std::string, double> delta = CacheTallies(cache);
    const Window traced =
        RunWindow(wl.get(), &backend, args.seconds / 2, &log, &next_rid);
    for (auto& [k, v] : CacheTallies(cache)) delta[k] = v - delta[k];
    delta["cache.hit_ratio"] =
        delta["probes"] > 0 ? delta["hits"] / delta["probes"] : 0;
    delta["cache.bytes"] = static_cast<double>(cache->bytes());
    attempted += plain.attempted + traced.attempted;
    failed += plain.failed + traced.failed;
    const std::vector<Span> spans = log.Snapshot();
    std::printf("traced window: %zu spans\n", spans.size());
    if (!args.trace_out.empty()) {
      if (WriteChromeTrace(args.trace_out, spans)) {
        std::printf("trace written to %s\n", args.trace_out.c_str());
      } else {
        std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
      }
    }
    delta["mem.peak_rss_mb"] = PeakRssMb();
    LayerMetrics(wl.get(), plain, traced, spans, delta, &metrics);
  }
  const bool correct = failed == 0;
  if (!correct) {
    std::printf("%lld ops failed or returned a wrong answer\n",
                static_cast<long long>(failed));
  }
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
