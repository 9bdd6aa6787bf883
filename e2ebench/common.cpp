#include "common.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>

#include "util/format.hpp"

namespace e2e {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t rank = std::min(
      samples.size() - 1, static_cast<std::size_t>(p * static_cast<double>(samples.size())));
  return samples[rank];
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

void RssSampler::sample() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return;
  char line[256];
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      const std::uint64_t kb = std::strtoull(line + 6, nullptr, 10);
      peak_kb_ = std::max(peak_kb_, kb);
      break;
    }
  }
  std::fclose(status);
}

std::int64_t Tracer::span(const std::string& name, Clock::time_point start,
                          Clock::time_point end, std::int64_t parent) {
  if (!enabled_) return -1;
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, us_between(origin_, start), us_between(origin_, end), parent});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Tracer::value(const std::string& name, double sample) {
  if (!enabled_) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  values_[name].push_back(sample);
}

std::vector<double> Tracer::durations_us(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& span : spans_)
    if (span.name == name) out.push_back(span.end_us - span.start_us);
  return out;
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::vector<double> out = durations_us(name);
  for (double& v : out) v /= 1000.0;
  return out;
}

std::vector<double> Tracer::values(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = values_.find(name);
  return it == values_.end() ? std::vector<double>{} : it->second;
}

crowdweb::Status Tracer::write(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) return crowdweb::io_error(crowdweb::format("cannot write {}", path));
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << crowdweb::format(
        "{{\"id\":{},\"name\":\"{}\",\"start_us\":{:.1f},\"end_us\":{:.1f},\"parent\":{}}}\n",
        i, span.name, span.start_us, span.end_us, span.parent);
  }
  for (const auto& [name, samples] : values_)
    for (const double sample : samples)
      out << crowdweb::format("{{\"value\":\"{}\",\"sample\":{}}}\n", name, sample);
  return out ? crowdweb::Status::ok() : crowdweb::io_error(crowdweb::format("short write to {}", path));
}

std::uint64_t body_hash(const std::string& body) noexcept {
  std::uint64_t hash = 1469598103934665603ull;
  for (const char c : body) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace e2e
