#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>

namespace perfbench {

double Percentile(std::vector<double> values, double q) {
  return smoothscan::LatencyPercentile(std::move(values), q);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double ProcessCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof usage);
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB.
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, uint64_t samples) {
  metrics_.push_back(Metric{name, std::isfinite(value) ? value : 0.0, unit,
                            samples});
}

void Report::Append(const Report& other) {
  metrics_.insert(metrics_.end(), other.metrics_.begin(),
                  other.metrics_.end());
}

void Report::Print(const std::string& title) const {
  std::printf("# %s\n", title.c_str());
  for (const Metric& m : metrics_) {
    if (m.samples > 0) {
      std::printf("  %-34s %16.6f %-8s (n=%" PRIu64 ")\n", m.name.c_str(),
                  m.value, m.unit.c_str(), m.samples);
    } else {
      std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
}

std::string Report::Json() const {
  std::string out = "{";
  char buf[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i > 0) out += ", ";
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  return out + "}";
}

CountOracle::CountOracle(const smoothscan::HeapFile& heap, int column) {
  sorted_.reserve(heap.num_tuples());
  heap.ForEachDirect([&](smoothscan::Tid, const smoothscan::Tuple& t) {
    sorted_.push_back(t[column].AsInt64());
  });
  std::sort(sorted_.begin(), sorted_.end());
}

uint64_t CountOracle::Count(int64_t lo, int64_t hi) const {
  if (hi <= lo) return 0;
  const auto a = std::lower_bound(sorted_.begin(), sorted_.end(), lo);
  const auto b = std::lower_bound(sorted_.begin(), sorted_.end(), hi);
  return static_cast<uint64_t>(b - a);
}

bool SimCostLedger::Record(size_t index, double sim_time) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!seen_[index]) {
    seen_[index] = 1;
    first_[index] = sim_time;
    seen_count_.fetch_add(1);
    return true;
  }
  if (std::memcmp(&first_[index], &sim_time, sizeof sim_time) == 0) {
    return true;
  }
  mismatches_.fetch_add(1);
  return false;
}

double SimCostLedger::Mean() const {
  std::lock_guard<std::mutex> lock(mu_);
  double sum = 0.0;
  for (double v : first_) sum += v;
  return first_.empty() ? 0.0 : sum / static_cast<double>(first_.size());
}

uint64_t SimCostLedger::Digest() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t h = 1469598103934665603ULL;
  for (double v : first_) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

void SpanLog::Add(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

bool SpanLog::WriteChromeJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %u, \"ts\": %" PRId64 ", \"dur\": %" PRId64
                 ", \"args\": {\"id\": %" PRIu64
                 ", \"queue_wait_ms\": %.6f, \"exec_ms\": %.6f, "
                 "\"rows\": %" PRIu64 "}}\n",
                 i == 0 ? "" : ",", s.name, s.thread, s.begin_us,
                 s.end_us - s.begin_us, s.id, s.queue_wait_ms, s.exec_ms,
                 s.rows);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
