#include "metrics.h"

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

namespace perfbench {

double Percentile(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0;
  const size_t n = sorted.size();
  const size_t rank = n - SamplesBeyond(n, pct);
  return sorted[rank == 0 ? 0 : rank - 1];
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return Percentile(values, 50);
}

size_t SamplesBeyond(size_t n, double pct) {
  // Nearest rank: ceil(pct/100 * n), computed in thousandths of a percent
  // so 99.9 and friends do not pick up binary rounding error.
  const auto milli = static_cast<unsigned long long>(std::llround(pct * 1000));
  const unsigned long long rank =
      (milli * n + 100'000ULL - 1) / 100'000ULL;
  return n - std::min<size_t>(n, static_cast<size_t>(rank));
}

TailChoice SelectTail(const std::vector<double>& sorted, double fixed_pct) {
  static const double kLadder[] = {99.9, 99, 95, 90, 75, 50};
  TailChoice choice;
  choice.samples = sorted.size();
  for (double pct : kLadder) {
    if (pct > fixed_pct) continue;
    choice.pct = pct;
    choice.beyond = SamplesBeyond(sorted.size(), pct);
    if (choice.beyond >= 10) break;
  }
  choice.value = Percentile(sorted, choice.pct);
  return choice;
}

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != '.' && c != '-') {
      return false;
    }
  }
  return true;
}

void MetricSet::Add(const std::string& name, double value,
                    const std::string& unit) {
  bool repeated = false;
  for (const Metric& m : items_) repeated = repeated || m.name == name;
  if (!ValidMetricName(name) || repeated) {
    std::fprintf(stderr, "perfbench: bad metric name '%s'\n", name.c_str());
    std::abort();
  }
  items_.push_back({name, value, unit});
}

double ProcessCpuSeconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
}

bool ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;
}

void StealTrace::Sample(double t) {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  // user nice system idle iowait irq softirq steal
  double f[8] = {};
  stat >> cpu;
  for (double& v : f) stat >> v;
  if (!stat || cpu != "cpu") return;
  Record(t, f[7], f[0] + f[1] + f[2] + f[5] + f[6]);
}

double StealTrace::Share(double a, double b) const {
  double stolen = 0, wanted = 0;
  for (size_t i = 1; i < points_.size(); ++i) {
    const Point& p = points_[i - 1];
    const Point& q = points_[i];
    const double overlap = std::min(b, q.t) - std::max(a, p.t);
    if (q.t <= p.t || overlap <= 0) continue;
    const double w = overlap / (q.t - p.t);
    stolen += w * (q.steal - p.steal);
    wanted += w * (q.steal - p.steal + q.busy - p.busy);
  }
  return wanted > 0 ? stolen / wanted : 0;
}

}  // namespace perfbench
