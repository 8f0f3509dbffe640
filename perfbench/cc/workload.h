// The three perfbench workloads. A workload owns its generated data, the
// engine that serves it, and the operations its clients cycle through;
// the runner (runner.h) drives it and turns samples into metrics.
//
//   bi_serve   TPC-H + power-law graph, 4 closed-loop clients over loopback
//              TCP to a Server fronting one warmed, unbounded-cache Engine.
//   bi_cold    the same data, 1 client, join queries only, with the trie
//              cache budget far below the rotation's working set.
//   la_sparse  banded sparse matrices, 1 client, many SMVs and one SMM per
//              repeating sequence.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/result.h"
#include "metrics.h"
#include "storage/table.h"
#include "util/status.h"

namespace perfbench {

/// One operation a client issues.
struct Op {
  std::string name;  ///< unique label, e.g. "q5" or "smv_harbor"
  std::string type;  ///< metric label: op.<type>.p50_ms
  std::string sql;
  /// The oracle-checked answer every later response must equal byte for
  /// byte (filled by Verify()).
  levelheaded::QueryResult verified;
  /// For server workloads: the verified response line without its timing.
  std::string verified_body;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the inputs from the seed, loads and finalizes them, builds
  /// the engine and warms it. Each call replaces the previous state.
  [[nodiscard]] virtual levelheaded::Status Setup() = 0;

  /// Checks every op's answer against the oracle and records it as the
  /// verified answer. An error names the first mismatch.
  [[nodiscard]] virtual levelheaded::Status Verify() = 0;

  /// Layer metrics only this workload can measure (the la:: reference
  /// ratios). `p50_by_op` is each op's median latency in ms, untraced.
  virtual void ReferenceMetrics(const std::vector<double>& p50_by_op,
                                MetricSet* out) {
    (void)p50_by_op;
    (void)out;
  }

  /// Input-size settings for the run fingerprint (configuration only, so
  /// runs with different seeds share them).
  virtual std::vector<std::pair<std::string, std::string>> Inputs() const = 0;

  levelheaded::Catalog* catalog() const { return catalog_.get(); }
  levelheaded::Engine* engine() const { return engine_.get(); }

  std::vector<Op> ops;
  /// Op indices every client cycles through; client c starts at offset
  /// c * size / clients.
  std::vector<int> sequence;
  int clients = 1;
  /// True: clients talk to a Server over loopback TCP; false: they call
  /// the backend in-process.
  bool via_server = false;
  /// The percentile tail_ms reports (see SelectTail).
  double tail_pct = 99;

 protected:
  std::unique_ptr<levelheaded::Catalog> catalog_;
  std::unique_ptr<levelheaded::Engine> engine_;
};

/// "bi_serve", "bi_cold" or "la_sparse"; null for any other name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
