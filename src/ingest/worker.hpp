// Background ingestion worker: queue -> validation -> delta merge ->
// epoch publication.
//
// The worker owns the only mutable copy of the live corpus. It drains
// the ingest queue in batches, validates events against the taxonomy,
// resolves each event onto a venue (an existing one at that position, or
// a freshly registered "live" venue), and appends the resulting check-in
// to its delta state. On a configurable cadence it rebuilds the derived
// state — phase-2 re-mining *only* for users whose history changed,
// phase-3 crowd model and grid occupancy over the merged corpus — and
// publishes the result as the next immutable epoch through a
// SnapshotHub. HTTP readers keep loading snapshots lock-free while the
// worker prepares the next one.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "crowd/model.hpp"
#include "data/categories.hpp"
#include "data/dataset.hpp"
#include "ingest/queue.hpp"
#include "ingest/snapshot.hpp"
#include "mining/seqdb.hpp"
#include "patterns/mobility.hpp"
#include "store/store.hpp"
#include "telemetry/metrics.hpp"
#include "util/status.hpp"

namespace crowdweb::ingest {

/// How the worker rebuilds derived state (mirrors PlatformConfig's
/// phase-2/phase-3 knobs; see core::make_ingest_worker).
struct IngestPipelineConfig {
  double grid_cell_meters = 500.0;
  crowd::CrowdOptions crowd;
  mining::SequenceOptions sequences;
  mining::MiningOptions mining;
  /// Worker threads for delta re-mining and crowd placement
  /// (0 = hardware concurrency). Epochs re-mine only the users the
  /// delta touched, sharded across this many threads; full crowd
  /// rebuilds fan user placement across the same pool.
  unsigned mining_threads = 0;
  /// Rebuild the crowd model from scratch every N epochs as a
  /// correctness backstop for the incremental update path (0 = never;
  /// the incremental update is exact while the grid and options are
  /// stable, so the backstop only guards against drift bugs).
  std::uint64_t crowd_full_rebuild_epochs = 64;
  /// Pins the spatial grid to these bounds (inflated by the same margin
  /// the dynamic path uses): the grid is created once and never rebuilt,
  /// regardless of corpus growth. Sharded deployments set every shard's
  /// grid to the same city-wide box so per-shard cell ids are directly
  /// mergeable (see shard::ShardRouter); events outside the box clamp
  /// to edge cells. Unset = the grid tracks the live corpus bounds.
  std::optional<geo::BoundingBox> fixed_grid_bounds;
};

struct IngestWorkerConfig {
  std::size_t queue_capacity = 8192;
  /// Events drained from the queue per wakeup.
  std::size_t drain_batch = 1024;
  /// Minimum spacing between epoch rebuilds; accepted events batch up in
  /// between. At 0 every drain rebuilds at once, and an idle worker
  /// blocks until an event arrives.
  std::chrono::milliseconds rebuild_interval{200};
  /// Telemetry registry the worker records onto (crowdweb_ingest_*
  /// families; see docs/OBSERVABILITY.md). Must outlive the worker.
  /// Null = the worker keeps a private registry (stats() still works);
  /// attach at most one worker per registry — the scrape-time gauges
  /// (queue depth, epoch, ...) are registered by name.
  telemetry::Registry* metrics = nullptr;
  /// Upper bounds (seconds) of the epoch-rebuild and per-stage
  /// histograms; empty = telemetry::default_duration_buckets().
  std::vector<double> rebuild_buckets;
  /// Durable storage (WAL + checkpoints). `store.dir` empty = disabled:
  /// the worker keeps the pre-durability behavior (memory only). With a
  /// directory set, start() runs crash recovery before publishing
  /// epoch 1 and every accepted batch is journaled before its epoch is
  /// published. `store.metrics` null inherits the worker's registry.
  store::StoreConfig store;
};

/// Monotonic counters for `GET /api/ingest/stats`.
struct IngestStats {
  std::uint64_t submitted = 0;   ///< events offered through submit()
  std::uint64_t accepted = 0;    ///< validated and merged (or pending merge)
  std::uint64_t rejected = 0;    ///< refused by the full queue
  std::uint64_t invalid = 0;     ///< failed validation
  std::uint64_t epochs_published = 0;
  std::uint64_t current_epoch = 0;    ///< epoch visible in the hub
  std::size_t queue_depth = 0;
  std::size_t queue_capacity = 0;
  std::uint64_t live_checkins = 0;    ///< accepted deltas in the published epoch
  double last_rebuild_ms = 0.0;
  double total_rebuild_ms = 0.0;
};

/// Outcome of one submit() call.
struct SubmitResult {
  std::size_t accepted = 0;  ///< enqueued for the worker
  std::size_t rejected = 0;  ///< refused: queue full (retry later)
};

class IngestWorker {
 public:
  /// `base` and `base_mobility` seed the live corpus (copied); `taxonomy`
  /// must outlive the worker.
  IngestWorker(const data::Dataset& base,
               std::span<const patterns::UserMobility> base_mobility,
               const data::Taxonomy& taxonomy, IngestPipelineConfig pipeline = {},
               IngestWorkerConfig config = {});
  ~IngestWorker();
  IngestWorker(const IngestWorker&) = delete;
  IngestWorker& operator=(const IngestWorker&) = delete;

  /// Recovers from the durable store when one is configured (newest
  /// checkpoint + WAL tail replayed through the merge path), publishes
  /// the recovered corpus as the first epoch, and spawns the worker
  /// thread. Without a store, publishes the base corpus as epoch 1.
  [[nodiscard]] Status start();

  /// Closes the queue, merges what was already accepted into a final
  /// epoch, and joins (idempotent).
  void stop();

  [[nodiscard]] bool running() const noexcept;

  /// Producer side: enqueues events with backpressure. Thread-safe.
  SubmitResult submit(std::span<const IngestEvent> events);

  /// Accounts events a producer discarded before submission (e.g. CSV
  /// rows that failed to parse). Thread-safe.
  void note_invalid(std::uint64_t count) noexcept;

  /// A fresh user id for an anonymous submission (outside any corpus
  /// id range). Thread-safe.
  [[nodiscard]] data::UserId allocate_guest_id() noexcept;

  [[nodiscard]] const SnapshotHub& hub() const noexcept { return hub_; }
  /// Mutable hub access, e.g. to register SnapshotHub::on_publish hooks
  /// (do so before start() to observe the first epoch).
  [[nodiscard]] SnapshotHub& hub() noexcept { return hub_; }
  [[nodiscard]] IngestQueue& queue() noexcept { return queue_; }
  [[nodiscard]] const data::Taxonomy& taxonomy() const noexcept { return taxonomy_; }
  /// The worker's configuration (e.g. the rebuild interval backing the
  /// Retry-After hint on 429 responses).
  [[nodiscard]] const IngestWorkerConfig& config() const noexcept { return config_; }

  [[nodiscard]] IngestStats stats() const;

  /// The durable store, or null when durability is disabled (not
  /// configured, or start() has not run yet). Valid once start()
  /// returned OK; the pointer is stable until destruction.
  [[nodiscard]] store::DurableStore* store() const noexcept { return store_.get(); }

  /// Asks the worker thread to write a checkpoint and blocks until it
  /// lands (or `timeout` expires). Thread-safe.
  [[nodiscard]] Status checkpoint_now(std::chrono::milliseconds timeout);

  /// Blocks until the published epoch reaches `epoch` (true) or the
  /// timeout expires (false).
  [[nodiscard]] bool wait_for_epoch(std::uint64_t epoch,
                                    std::chrono::milliseconds timeout) const;

 private:
  void run();
  /// Consumes the journal queue, appending each batch to the WAL.
  /// Runs on journal_thread_ while a store is configured.
  void journal_run();
  /// Blocks until every handed-off batch is on the WAL (and synced, per
  /// the fsync policy). Called before an epoch publishes or a
  /// checkpoint snapshots the corpus.
  void journal_barrier();
  /// Validates and applies drained events to the delta state, then
  /// hands the accepted subset to the journal thread. Worker thread
  /// only.
  void apply(std::span<const IngestEvent> events);
  /// Validates and merges one event (shared by live apply and WAL
  /// replay). Returns false for invalid events.
  bool merge_event(const IngestEvent& event);
  /// Opens the store, adopts its recovered checkpoint + WAL tail, and
  /// resumes the epoch counter. Called from start().
  [[nodiscard]] Status recover_from_store();
  /// Re-indexes `live_` from the flat corpus vectors through the same
  /// DatasetBuilder merge path epochs use, and empties the delta
  /// buffers. Used when the flat corpus was replaced wholesale
  /// (checkpoint adoption + WAL replay).
  [[nodiscard]] Status rebuild_live_from_flat();
  /// Snapshots the live corpus into the store as a checkpoint. Worker
  /// thread only.
  void write_checkpoint();
  /// Rebuilds derived state and publishes the next epoch. Worker thread
  /// only (also called once from start() before the thread exists).
  Status rebuild_and_publish();
  /// How long the worker loop may block waiting for events.
  [[nodiscard]] std::chrono::milliseconds drain_timeout() const;
  [[nodiscard]] data::VenueId resolve_venue(data::CategoryId category,
                                            const geo::LatLon& position);

  const data::Taxonomy& taxonomy_;
  IngestPipelineConfig pipeline_;
  IngestWorkerConfig config_;
  IngestQueue queue_;
  SnapshotHub hub_;

  // Live corpus, owned by the worker thread after start(). The flat
  // venue/check-in vectors keep the original insertion order — the
  // order checkpoint images serialize and venue-id resolution depends
  // on. `live_` is the same corpus in indexed (sharded) form,
  // maintained incrementally: each epoch applies `delta_venues_` +
  // `delta_checkins_` through data::DatasetBuilder's incremental path
  // instead of re-feeding the whole corpus.
  //
  // `pool_` interns venue names at this boundary: it starts as the base
  // corpus's pool (shared — base NameIds stay valid) and every venue a
  // live event registers interns its generated name here. The pool is
  // append-only, so ids never move across epochs; checkpoint adoption
  // replaces it with one rebuilt from the checkpoint's names table.
  data::StringPoolPtr pool_;
  std::vector<data::Venue> venues_;
  std::vector<data::CheckIn> checkins_;
  data::Dataset live_;
  std::vector<data::Venue> delta_venues_;      // registered since last epoch
  std::vector<data::CheckIn> delta_checkins_;  // merged since last epoch
  patterns::MobilityTable mobility_;           // per-user shared entries
  std::unordered_map<std::uint64_t, data::VenueId> venue_index_;
  std::unordered_set<data::UserId> pending_users_;  // changed since last epoch
  std::unordered_set<data::UserId> touched_users_;  // ever touched by deltas
  std::uint64_t epoch_ = 0;
  std::size_t base_checkin_count_ = 0;

  // Derived state carried across epochs so unchanged parts are reused:
  // the grid is rebuilt only when the corpus bounds grow, and the crowd
  // model is updated incrementally (full rebuild on grid change or on
  // the crowd_full_rebuild_epochs backstop cadence).
  std::optional<geo::SpatialGrid> grid_;
  geo::BoundingBox grid_bounds_;
  std::optional<crowd::CrowdModel> crowd_;
  std::uint64_t crowd_epochs_since_full_ = 0;

  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};

  // Telemetry: the crowdweb_ingest_* families are the worker's only
  // accounting — IngestStats reads them back. `own_metrics_` backs
  // workers constructed without an external registry.
  void init_metrics();
  std::unique_ptr<telemetry::Registry> own_metrics_;
  telemetry::Registry* metrics_ = nullptr;
  telemetry::Counter* submitted_ = nullptr;
  telemetry::Counter* accepted_ = nullptr;
  telemetry::Counter* invalid_ = nullptr;
  telemetry::Counter* epochs_published_ = nullptr;
  telemetry::Histogram* rebuild_seconds_ = nullptr;
  telemetry::Histogram* stage_merge_seconds_ = nullptr;
  telemetry::Histogram* stage_mine_seconds_ = nullptr;
  telemetry::Histogram* stage_grid_seconds_ = nullptr;
  telemetry::Histogram* stage_crowd_seconds_ = nullptr;
  telemetry::Gauge* last_rebuild_seconds_ = nullptr;
  // Delta-pipeline accounting (crowdweb_ingest_delta_*): how much of
  // each epoch was actually recomputed vs shared with the previous one.
  telemetry::Counter* delta_events_ = nullptr;
  telemetry::Counter* delta_users_ = nullptr;
  telemetry::Counter* delta_shards_reused_ = nullptr;
  telemetry::Counter* delta_shards_rebuilt_ = nullptr;
  telemetry::Counter* delta_grid_reused_ = nullptr;
  telemetry::Counter* delta_crowd_full_rebuilds_ = nullptr;
  telemetry::Gauge* delta_last_events_ = nullptr;
  // Mining accounting (crowdweb_mining_*): what the per-user re-mines of
  // each epoch emitted (the miner's own output), reconstructed by
  // closed-set expansion, pruned, and — the one worth alerting on —
  // truncated at the max_patterns cap.
  telemetry::Counter* mining_emitted_ = nullptr;
  telemetry::Counter* mining_expanded_ = nullptr;
  telemetry::Counter* mining_pruned_ = nullptr;
  telemetry::Counter* mining_truncated_ = nullptr;
  std::vector<std::string> callback_gauge_names_;  ///< removed on destruction

  std::atomic<std::uint64_t> snapshot_live_{0};
  std::atomic<data::UserId> next_guest_id_{3'000'000'000u};

  // Durable storage. Declared after own_metrics_: the store's
  // destructor unhooks its scrape gauges from the registry, so it must
  // die first. Set once in start(), before the thread exists.
  std::unique_ptr<store::DurableStore> store_;
  std::atomic<bool> checkpoint_requested_{false};

  // Journal pipeline: apply() merges a batch and hands it to this
  // thread, which encodes + writes (+ fsyncs) it off the merge path;
  // rebuild_and_publish() and write_checkpoint() barrier on
  // journal_pending_ so nothing reaches readers or a checkpoint before
  // it is journaled. Growth is bounded by one rebuild interval of
  // accepted events — every publication drains the queue.
  struct JournalTask {
    std::uint64_t epoch = 0;
    std::vector<IngestEvent> events;
  };
  std::thread journal_thread_;
  std::mutex journal_mutex_;
  std::condition_variable journal_cv_;          // new work or stop
  std::condition_variable journal_drained_cv_;  // journal_pending_ hit 0
  std::deque<JournalTask> journal_queue_;       // guarded by journal_mutex_
  std::size_t journal_pending_ = 0;             // queued + in-flight batches
  bool journal_stop_ = false;                   // guarded by journal_mutex_

  mutable std::mutex epoch_mutex_;
  mutable std::condition_variable epoch_cv_;
  std::uint64_t published_epoch_ = 0;   // guarded by epoch_mutex_
  std::uint64_t checkpoints_done_ = 0;  // guarded by epoch_mutex_
};

}  // namespace crowdweb::ingest
