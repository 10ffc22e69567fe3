// Small measurement helpers for the fleet benchmark: order statistics,
// process CPU time and peak RSS, and the metric table printed as JSON.
#pragma once

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

// Linear-interpolated percentile (p in [0, 100]) of an unsorted sample;
// 0 for an empty sample.
inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double median(const std::vector<double>& values) { return percentile(values, 50.0); }

inline double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) {
    sum += v;
  }
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

// CPU seconds consumed by every thread of this process so far.
inline double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// Named metrics with units, printed as the benchmark's final JSON line.
class MetricTable {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }

  // Value of a metric already set; 0 when absent.
  double get(const std::string& name) const {
    const auto it = metrics_.find(name);
    return it != metrics_.end() ? it->second.value : 0.0;
  }

  std::string json() const {
    std::ostringstream os;
    os.precision(12);
    os << "{";
    bool first = true;
    for (const auto& [name, entry] : metrics_) {
      os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
         << (std::isfinite(entry.value) ? entry.value : 0.0) << ", \"unit\": \"" << entry.unit
         << "\"}";
      first = false;
    }
    os << "}";
    return os.str();
  }

  void print_table(std::FILE* out) const {
    for (const auto& [name, entry] : metrics_) {
      std::fprintf(out, "  %-34s %16.6g %s\n", name.c_str(), entry.value, entry.unit.c_str());
    }
  }

 private:
  struct Entry {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Entry> metrics_;
};

}  // namespace perfbench
