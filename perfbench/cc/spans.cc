#include "spans.h"

#include <algorithm>
#include <fstream>
#include <functional>
#include <thread>

#include "obs/trace.h"
#include "obs/trace_export.h"

namespace perfbench {

double SpanLog::NowMs() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int SpanLog::Begin(const std::string& name, int64_t rid, int parent) {
  Span span;
  span.name = name;
  span.rid = rid;
  span.parent = parent;
  span.thread = std::hash<std::thread::id>()(std::this_thread::get_id());
  std::lock_guard<std::mutex> lock(mu_);
  span.start_ms = NowMs();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  if (parent < 0) roots_[rid] = id;
  return id;
}

void SpanLog::End(int id, std::vector<std::pair<std::string, double>> args) {
  const double now = NowMs();
  std::lock_guard<std::mutex> lock(mu_);
  Span& span = spans_[static_cast<size_t>(id)];
  span.end_ms = now;
  span.args = std::move(args);
}

int SpanLog::RootOf(int64_t rid) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = roots_.find(rid);
  return it == roots_.end() ? -1 : it->second;
}

std::vector<Span> SpanLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<size_t>(s.parent)];
    const double lo = std::max(s.start_ms, p.start_ms);
    const double hi = std::min(s.end_ms, p.end_ms);
    if (hi > lo) children[static_cast<size_t>(s.parent)].push_back({lo, hi});
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0, lo = 0, hi = -1;
    for (const auto& [a, b] : iv) {
      if (a > hi) {
        if (hi > lo) covered += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    if (hi > lo) covered += hi - lo;
    self[i] = spans[i].duration_ms() - covered;
  }
  return self;
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<Span>& spans) {
  std::vector<levelheaded::obs::SpanRecord> records;
  records.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    levelheaded::obs::SpanRecord r;
    r.name = s.name;
    r.detail = "rid " + std::to_string(s.rid);
    r.start_ms = s.start_ms;
    r.duration_ms = std::max(0.0, s.duration_ms());
    r.thread_id = s.thread;
    r.id = static_cast<int>(i);
    r.parent = s.parent;
    r.metrics = s.args;
    r.metrics.emplace_back("rid", static_cast<double>(s.rid));
    records.push_back(std::move(r));
  }
  std::ofstream out(path);
  out << levelheaded::obs::ChromeTraceJson(records);
  return static_cast<bool>(out);
}

}  // namespace perfbench
