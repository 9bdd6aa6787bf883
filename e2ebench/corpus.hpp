// Workload inputs: a base corpus the platform is built on, the
// deployment settings, and the live feed replayed against it.
//
// Both corpora are generated from the workload seed, once per process:
// every set-up of a run reuses the same in-memory corpus, so corpus
// generation stays out of every metric.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/platform.hpp"
#include "data/dataset.hpp"
#include "ingest/event.hpp"
#include "util/status.hpp"

namespace e2e {

struct Inputs {
  /// Full generated corpus; Platform::from_dataset restricts it to the
  /// experiment window of `config`.
  crowdweb::data::Dataset corpus;
  crowdweb::core::PlatformConfig config;
  /// Check-ins after the experiment window, in timestamp order.
  std::vector<crowdweb::ingest::IngestEvent> feed;
  std::size_t users = 0;  ///< users the generator simulated
  std::size_t days = 0;   ///< days the generator simulated
};

/// The paper-calibrated sparse corpus (synth::generate_corpus) with
/// `users` simulated users over April-August 2012; the platform is built
/// on April-June under the default deployment (prefixspan, expanded).
[[nodiscard]] crowdweb::Result<Inputs> sparse_inputs(std::uint64_t seed, std::size_t users);

/// A dense routine corpus: every user repeats a personal 8-10 stop
/// weekday routine (3-5 stops on weekends) over ten venues, with 15%
/// irregular days. The platform is built on the first `base_days`; the
/// next `feed_days` continue the same routines as the feed. Served with
/// bide, compact (expand_closed = false), venue labels.
[[nodiscard]] crowdweb::Result<Inputs> routine_inputs(std::uint64_t seed, std::size_t users,
                                                      int base_days, int feed_days);

/// An endless replay of a feed in fixed-size batches: once the feed is
/// used up it starts over, every timestamp shifted by whole weeks past
/// the previous lap, so a closed-loop producer never runs dry and the
/// replayed routines keep their weekdays.
class Feed {
 public:
  Feed(std::span<const crowdweb::ingest::IngestEvent> events, std::size_t batch_size);

  [[nodiscard]] std::size_t batch_size() const noexcept { return batch_size_; }
  /// Batch `b` (0-based) into `out` (cleared first).
  void batch(std::size_t b, std::vector<crowdweb::ingest::IngestEvent>& out) const;
  /// The first `batches` batches, concatenated.
  [[nodiscard]] std::vector<crowdweb::ingest::IngestEvent> first(std::size_t batches) const;

 private:
  std::span<const crowdweb::ingest::IngestEvent> events_;
  std::size_t batch_size_;
  std::int64_t lap_seconds_ = 0;
};

}  // namespace e2e
