// Shared pieces of the end-to-end benchmark: clocks, order statistics,
// the resident-set sampler, and the span recorder behind --trace 1.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}
inline double us_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Nearest-rank percentile, `p` in [0, 1] (0 for an empty sample).
double percentile(std::vector<double> samples, double p);
inline double median(std::vector<double> samples) { return percentile(std::move(samples), 0.5); }
double mean(const std::vector<double>& samples);

/// Samples this process's VmRSS and keeps the highest value seen.
class RssSampler {
 public:
  void sample();
  [[nodiscard]] double peak_mb() const noexcept {
    return static_cast<double>(peak_kb_) / 1024.0;
  }

 private:
  std::uint64_t peak_kb_ = 0;
};

/// In-memory span recorder. Disabled, every call is a no-op, so the
/// untraced run pays one branch per call site. Thread-safe: publish
/// hooks run on the worker thread, reads on reader threads.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Records a finished span; returns its id (the parent of later spans).
  std::int64_t span(const std::string& name, Clock::time_point start, Clock::time_point end,
                    std::int64_t parent = -1);
  /// Records a non-time sample (a count or a size) under `name`.
  void value(const std::string& name, double sample);

  /// Durations of every span called `name`, in `unit` (1e-3 = ms).
  [[nodiscard]] std::vector<double> durations_ms(const std::string& name) const;
  [[nodiscard]] std::vector<double> durations_us(const std::string& name) const;
  [[nodiscard]] std::vector<double> values(const std::string& name) const;

  /// Writes every span and value as JSON lines.
  [[nodiscard]] crowdweb::Status write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    std::int64_t parent = -1;
  };

  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::string, std::vector<double>> values_;
};

/// One reported figure.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// FNV-1a over a body, for (target, epoch) -> body consistency checks.
std::uint64_t body_hash(const std::string& body) noexcept;

}  // namespace e2e
