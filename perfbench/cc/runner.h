// Closed-loop load for one measurement window: `clients` threads, each
// issuing its next op only after the previous reply, until the window's
// time is up. Every reply is compared byte for byte with the op's
// verified answer.

#ifndef PERFBENCH_RUNNER_H_
#define PERFBENCH_RUNNER_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "core/query_backend.h"
#include "spans.h"
#include "workload.h"

namespace perfbench {

/// One completed op.
struct Sample {
  int op = 0;              ///< index into Workload::ops
  double latency_ms = 0;   ///< client-observed round trip
  double done_s = 0;       ///< completion time since the window began
  /// The round trip counted on the CPU time the VM received: latency_ms x
  /// (1 - the steal share over the round trip).
  double received_ms = 0;
};

struct Window {
  std::vector<Sample> samples;
  int64_t attempted = 0;
  /// Ops that errored, were refused, or returned a wrong answer.
  int64_t failed = 0;
  double wall_s = 0;
  /// Process CPU (user + system) spent during the window.
  double cpu_s = 0;
  /// Share of the time this VM's CPUs wanted to run that the hypervisor
  /// gave to other guests, during the window.
  double steal_share = 0;

  /// Ascending latencies (ms) of the samples of op `op` (-1: all ops),
  /// raw or as received (see Sample::received_ms).
  std::vector<double> Latencies(int op = -1, bool received = false) const {
    std::vector<double> out;
    for (const Sample& s : samples) {
      if (op < 0 || s.op == op) {
        out.push_back(received ? s.received_ms : s.latency_ms);
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }
};

/// Runs `workload` against `backend` for `seconds`. Server workloads start
/// a Server fronting `backend` for the window and stop it afterwards.
/// With `log` set, each op's round trip is a root span in it and the op's
/// SQL carries its request id (tracing_backend.h); `next_rid` numbers them.
Window RunWindow(Workload* workload, levelheaded::QueryBackend* backend,
                 double seconds, SpanLog* log, std::atomic<int64_t>* next_rid);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_H_
