// Metric arithmetic and process probes for the perfbench harness:
// percentiles, the tail-percentile rule, metric-name validation, and the
// CPU-time / peak-RSS readings the end-to-end metrics are made from.

#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile `pct` (0 < pct <= 100) of an ascending vector;
/// 0 for an empty one.
double Percentile(const std::vector<double>& sorted, double pct);

/// Median of an unsorted vector (0 when empty).
double Median(std::vector<double> values);

/// Samples strictly above the nearest-rank `pct` percentile of `n`.
size_t SamplesBeyond(size_t n, double pct);

/// The tail percentile a workload reports. Each workload fixes one
/// percentile from the ladder {50, 75, 90, 95, 99, 99.9}; a run keeps it
/// while at least 10 samples lie beyond it and otherwise steps down the
/// ladder to the highest percentile that still has 10, recording which.
struct TailChoice {
  double pct = 0;
  size_t samples = 0;
  size_t beyond = 0;
  double value = 0;
};
TailChoice SelectTail(const std::vector<double>& sorted, double fixed_pct);

/// Metric names: 1-64 characters of [A-Za-z0-9_.-], starting with a letter
/// or digit.
bool ValidMetricName(const std::string& name);

/// An ordered list of named, unit-tagged values. Add() aborts on an
/// invalid or repeated name: a bad name is a bug in the benchmark itself.
class MetricSet {
 public:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  void Add(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

/// User + system CPU seconds consumed by this process so far.
double ProcessCpuSeconds();

/// Restarts the kernel's peak-RSS (VmHWM) tally so a later PeakRssMb()
/// covers only what follows. Returns false where the kernel refuses, in
/// which case PeakRssMb() reports the process-lifetime peak.
bool ResetPeakRss();

/// Peak resident set size in MiB.
double PeakRssMb();

/// How much CPU the hypervisor withheld from this VM over time. Sample()
/// records /proc/stat's tick counters; Share() then tells, for any interval
/// between samples, the share of the time the VM's CPUs wanted to run (ran
/// or were runnable) that went to other guests instead. Reads 0 on a
/// dedicated host, and where /proc/stat is unavailable.
class StealTrace {
 public:
  /// Records the counters at time `t` (seconds, increasing across calls).
  void Sample(double t);
  /// Records given counter values at time `t` (what Sample() reads).
  void Record(double t, double steal_ticks, double busy_ticks) {
    points_.push_back({t, steal_ticks, busy_ticks});
  }
  /// Stolen share over [a, b]; each sampled interval counts by its overlap
  /// with [a, b].
  double Share(double a, double b) const;

 private:
  struct Point {
    double t, steal, busy;
  };
  std::vector<Point> points_;
};

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
