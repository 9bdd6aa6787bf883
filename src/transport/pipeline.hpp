// IngestPipeline: the single funnel every transport submits through.
//
// A source (HTTP CSV route, framed TCP/UDS listener, replay sink) hands
// batches to submit(); the pipeline pushes them into the deployment's
// queue via the SubmitFn, and — when a spool is configured — absorbs
// the rejected suffix onto disk instead of bouncing it back to the
// producer. A background drain source (IngestSource "spool") feeds
// spooled frames back into the queue as capacity frees up, preserving
// arrival order. All outcomes land on the crowdweb_transport_* metric
// families, labeled by source.
//
// SubmitFn contract: when a batch is partially accepted, the *suffix*
// of the span must be the rejected part (IngestWorker::submit and
// IngestQueue::push_batch fill front to back, so both qualify).
// shard::ShardRouter::submit partitions batches across shards and does
// NOT reject a suffix, so a frame listener feeding a router must run
// spool-less.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string_view>

#include "ingest/event.hpp"
#include "ingest/worker.hpp"
#include "telemetry/metrics.hpp"
#include "transport/source.hpp"
#include "transport/spool.hpp"
#include "util/status.hpp"

namespace crowdweb::transport {

/// Outcome of one submit(): every offered event is exactly one of
/// accepted, rejected, or spooled.
struct PipelineOutcome {
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  std::size_t spooled = 0;
};

using SubmitFn = std::function<ingest::SubmitResult(std::span<const ingest::IngestEvent>)>;

struct PipelineConfig {
  /// Disk spool absorbing rejected suffixes. `spool.dir` empty = no
  /// spool: rejections surface to the producer (the pre-transport
  /// behavior). `spool.metrics` null inherits `metrics`.
  SpoolConfig spool;
  /// Registry for the crowdweb_transport_* families. Null = private
  /// registry (stats still work, nothing is scraped).
  telemetry::Registry* metrics = nullptr;
  /// Backoff between drain attempts while the queue is still full.
  std::chrono::milliseconds drain_retry{20};
  /// Producer-side invalid-row accounting hook (e.g.
  /// IngestWorker::note_invalid). Optional.
  std::function<void(std::uint64_t)> note_invalid;
};

class IngestPipeline {
 public:
  IngestPipeline(SubmitFn submit, PipelineConfig config = {});
  ~IngestPipeline();
  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  /// Opens the spool (adopting crash survivors) and starts its drain
  /// source. A no-op without a configured spool — a spool-less pipeline
  /// may be used without start()/stop().
  [[nodiscard]] Status start();

  /// Stops the drain source; spooled-but-undrained frames stay on disk
  /// for the next start (at-least-once).
  void stop();

  /// Submits one batch for `source` ("http_csv", "tcp", ...): queue
  /// first, spool for the rejected suffix. Thread-safe. Counts one
  /// frame + the per-event outcomes onto the metric families.
  PipelineOutcome submit(std::span<const ingest::IngestEvent> events,
                         std::string_view source);

  /// Accounts rows a source refused before submission. Thread-safe.
  void note_invalid(std::uint64_t count, std::string_view source);

  /// Accounts a malformed frame / body for `source`. Thread-safe.
  void note_decode_error(std::string_view source);

  /// The spool, or null when not configured.
  [[nodiscard]] Spool* spool() noexcept;

  /// The drain source ("spool"), or null when no spool is configured.
  [[nodiscard]] IngestSource* spool_source() noexcept;

  /// Blocks until the spool is empty and fully drained (true) or the
  /// timeout expires. True immediately without a spool.
  [[nodiscard]] bool wait_until_drained(std::chrono::milliseconds timeout);

  struct Impl;  // public so the drain source (pipeline.cpp) can hold a reference

 private:
  std::unique_ptr<Impl> impl_;
};

}  // namespace crowdweb::transport
