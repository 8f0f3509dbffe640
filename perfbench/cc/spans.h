// In-memory span log for the traced run. The harness opens a span around
// each call it makes into a layer (client round trip, backend, parse,
// bind, plan, execute); spans of one request share its request id. The
// log is written once, at exit, as Chrome-trace JSON (Perfetto loads it).

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  int64_t rid = -1;      ///< request id shared by a request's spans
  double start_ms = 0;   ///< since the log's origin
  double end_ms = -1;    ///< -1 while open
  int parent = -1;       ///< index of the causing span, -1 for a root
  uint64_t thread = 0;   ///< hash of the opening thread's id
  std::vector<std::pair<std::string, double>> args;

  double duration_ms() const { return end_ms - start_ms; }
};

/// Thread-safe append-only span log.
class SpanLog {
 public:
  SpanLog() : origin_(std::chrono::steady_clock::now()) {}

  /// Opens a span now and returns its index. A span with parent -1 becomes
  /// the root for `rid`, which RootOf() finds.
  int Begin(const std::string& name, int64_t rid, int parent);
  /// Closes span `id` now, attaching numeric annotations.
  void End(int id, std::vector<std::pair<std::string, double>> args = {});
  /// The root span opened for `rid`, or -1.
  int RootOf(int64_t rid) const;

  std::vector<Span> Snapshot() const;

 private:
  double NowMs() const;

  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::unordered_map<int64_t, int> roots_;
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers. Children may overlap
/// each other or run on other threads.
std::vector<double> SelfTimes(const std::vector<Span>& spans);

/// Writes `spans` as a Chrome trace_event document. Returns false when the
/// file cannot be written.
bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
