// Bounded MPSC queue feeding the live ingestion worker.
//
// Producers are HTTP handler threads and replay drivers; the single
// consumer is the IngestWorker. The queue is bounded with *explicit*
// backpressure: a full queue rejects the push (and counts the rejection)
// instead of blocking or silently dropping, so callers can report a
// structured "try again" to their own clients. The consumer drains in
// batches, amortizing wakeups under load.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <vector>

#include "data/checkin.hpp"
#include "geo/point.hpp"
#include "ingest/event.hpp"
#include "telemetry/metrics.hpp"

namespace crowdweb::ingest {

/// Bounded multi-producer single-consumer event queue.
class IngestQueue {
 public:
  explicit IngestQueue(std::size_t capacity);

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Current depth (racy snapshot; exact under the producer's own lock).
  [[nodiscard]] std::size_t size() const;

  /// Enqueues one event. Returns false — and counts a rejection — when
  /// the queue is full or closed.
  bool try_push(const IngestEvent& event);

  /// Enqueues a batch front-to-back until the queue fills; returns the
  /// number accepted. Rejected events are counted.
  std::size_t push_batch(std::span<const IngestEvent> events);

  /// drain()'s timeout for waiting with no deadline.
  static constexpr std::chrono::milliseconds kNoTimeout = std::chrono::milliseconds::max();

  /// Consumer side: blocks up to `timeout` (kNoTimeout: with no
  /// deadline) for at least one event, a wake() or close(), then appends
  /// up to `max_events` to `out`. Returns the number drained (0 on
  /// timeout, on a wake, or when closed and empty).
  std::size_t drain(std::vector<IngestEvent>& out, std::size_t max_events,
                    std::chrono::milliseconds timeout);

  /// Ends the consumer's current or next drain() wait without an event,
  /// so a request made to an idle consumer is seen at once.
  void wake();

  /// Rejects all future pushes and wakes the consumer. Already-queued
  /// events remain drainable. Idempotent.
  void close();

  [[nodiscard]] bool closed() const;

  /// Total events rejected because the queue was full or closed.
  [[nodiscard]] std::uint64_t rejected() const noexcept;

  /// Mirrors every rejection onto a registry counter (the
  /// crowdweb_ingest_rejected_total series; attached by the worker).
  /// Pass nullptr to detach. The counter must outlive the queue while
  /// attached; call before producers start pushing.
  void attach_rejected_counter(telemetry::Counter* counter) noexcept {
    rejected_counter_.store(counter, std::memory_order_release);
  }

 private:
  void count_rejected(std::uint64_t n) noexcept {
    if (n == 0) return;
    rejected_.fetch_add(n, std::memory_order_relaxed);
    if (telemetry::Counter* counter = rejected_counter_.load(std::memory_order_acquire))
      counter->increment(n);
  }

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::deque<IngestEvent> events_;
  bool closed_ = false;
  bool woken_ = false;
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<telemetry::Counter*> rejected_counter_{nullptr};
};

}  // namespace crowdweb::ingest
