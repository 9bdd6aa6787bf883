#include "ingest/worker.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "telemetry/timer.hpp"
#include "util/format.hpp"
#include "util/log.hpp"

namespace crowdweb::ingest {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// Packs (category, position quantized to ~10 m) into one key so live
/// events land on an existing venue when one sits at that spot.
std::uint64_t venue_key(data::CategoryId category, const geo::LatLon& position) {
  const auto lat = static_cast<std::uint64_t>(std::llround((position.lat + 90.0) * 1e4));
  const auto lon = static_cast<std::uint64_t>(std::llround((position.lon + 180.0) * 1e4));
  return (static_cast<std::uint64_t>(category) << 43) | (lat << 22) | lon;
}

}  // namespace

IngestWorker::IngestWorker(const data::Dataset& base,
                           std::span<const patterns::UserMobility> base_mobility,
                           const data::Taxonomy& taxonomy, IngestPipelineConfig pipeline,
                           IngestWorkerConfig config)
    : taxonomy_(taxonomy),
      pipeline_(pipeline),
      config_(config),
      queue_(config.queue_capacity) {
  init_metrics();
  pool_ = base.name_pool() != nullptr ? base.name_pool()
                                      : std::make_shared<data::StringPool>();
  venues_.assign(base.venues().begin(), base.venues().end());
  checkins_.assign(base.checkins().begin(), base.checkins().end());
  live_ = base;  // shares the base's shards and venue table
  if (base.name_pool() == nullptr) {
    // A default-constructed base has no pool; rebuild the (empty) live
    // dataset around the worker's so every epoch interns into one pool.
    live_ = data::DatasetBuilder(pool_).build();
  }
  mobility_ = patterns::MobilityTable::from_entries(
      {base_mobility.begin(), base_mobility.end()});
  base_checkin_count_ = checkins_.size();
  venue_index_.reserve(venues_.size());
  for (const data::Venue& venue : venues_)
    venue_index_.emplace(venue_key(venue.category, venue.position), venue.id);
}

void IngestWorker::init_metrics() {
  if (config_.metrics != nullptr) {
    metrics_ = config_.metrics;
  } else {
    own_metrics_ = std::make_unique<telemetry::Registry>();
    metrics_ = own_metrics_.get();
  }
  submitted_ = &metrics_->counter("crowdweb_ingest_submitted_total",
                                  "Events offered through submit().");
  accepted_ = &metrics_->counter("crowdweb_ingest_accepted_total",
                                 "Events validated and merged into the live corpus.");
  invalid_ = &metrics_->counter("crowdweb_ingest_invalid_total",
                                "Events that failed validation.");
  epochs_published_ =
      &metrics_->counter("crowdweb_ingest_epochs_published_total", "Epochs published.");
  queue_.attach_rejected_counter(
      &metrics_->counter("crowdweb_ingest_rejected_total",
                         "Events refused by the full (or closed) ingest queue."));
  const std::vector<double> buckets = config_.rebuild_buckets.empty()
                                          ? telemetry::default_duration_buckets()
                                          : config_.rebuild_buckets;
  rebuild_seconds_ = &metrics_->histogram(
      "crowdweb_ingest_epoch_rebuild_duration_seconds",
      "End-to-end wall time to rebuild and publish one epoch.", buckets);
  telemetry::HistogramFamily& stages = metrics_->histogram_family(
      "crowdweb_ingest_rebuild_stage_duration_seconds",
      "Wall time of one epoch-rebuild stage: merge (dataset rebuild), mine "
      "(incremental per-user re-mining), grid, crowd (model aggregation).",
      {"stage"}, buckets);
  stage_merge_seconds_ = &stages.with_labels({"merge"});
  stage_mine_seconds_ = &stages.with_labels({"mine"});
  stage_grid_seconds_ = &stages.with_labels({"grid"});
  stage_crowd_seconds_ = &stages.with_labels({"crowd"});
  last_rebuild_seconds_ = &metrics_->gauge("crowdweb_ingest_last_rebuild_seconds",
                                           "Wall time of the most recent epoch rebuild.");
  delta_events_ = &metrics_->counter("crowdweb_ingest_delta_events_total",
                                     "Check-ins applied through the delta merge path.");
  delta_users_ = &metrics_->counter("crowdweb_ingest_delta_users_total",
                                    "Per-user delta re-minings across all epochs.");
  delta_shards_reused_ = &metrics_->counter(
      "crowdweb_ingest_delta_shards_reused_total",
      "Per-user dataset shards shared with the previous epoch (not copied).");
  delta_shards_rebuilt_ = &metrics_->counter(
      "crowdweb_ingest_delta_shards_rebuilt_total",
      "Per-user dataset shards rebuilt because the epoch's delta touched them.");
  delta_grid_reused_ = &metrics_->counter(
      "crowdweb_ingest_delta_grid_reused_total",
      "Epochs that reused the previous spatial grid (corpus bounds unchanged).");
  delta_crowd_full_rebuilds_ = &metrics_->counter(
      "crowdweb_ingest_delta_crowd_full_rebuilds_total",
      "Crowd-model full rebuilds (first epoch, grid growth, or the periodic "
      "backstop) instead of incremental updates.");
  delta_last_events_ =
      &metrics_->gauge("crowdweb_ingest_delta_last_events",
                       "Check-ins merged by the most recent epoch's delta.");
  mining_emitted_ = &metrics_->counter(
      "crowdweb_mining_patterns_emitted_total",
      "Patterns the miner itself returned in per-user re-mines across all epochs "
      "(for closed miners this is the closed set, before any expansion).");
  mining_expanded_ = &metrics_->counter(
      "crowdweb_mining_patterns_expanded_total",
      "Frequent patterns reconstructed from closed sets by expansion across all "
      "epochs — materialized into the tables when expand_closed is on, streamed "
      "through the placement-index build when it is off. 0 for full miners.");
  mining_pruned_ = &metrics_->counter(
      "crowdweb_mining_pruned_total",
      "Search subtrees/candidates the miner cut without counting (BackScan, "
      "equivalent projections, apriori).");
  mining_truncated_ = &metrics_->counter(
      "crowdweb_mining_truncated_total",
      "Per-user re-mines whose pattern set was cut short by the max_patterns cap "
      "(the published tables are incomplete for those users).");
  // Scrape-time gauges: sampled when /metrics renders, so readers see
  // live queue state without the worker pushing updates.
  metrics_->gauge_callback("crowdweb_ingest_queue_depth", "Events waiting in the queue.",
                           [this] { return static_cast<double>(queue_.size()); });
  metrics_->gauge_callback("crowdweb_ingest_queue_capacity", "Bounded queue capacity.",
                           [this] { return static_cast<double>(queue_.capacity()); });
  metrics_->gauge_callback("crowdweb_ingest_epoch", "Epoch visible in the snapshot hub.",
                           [this] { return static_cast<double>(hub_.epoch()); });
  metrics_->gauge_callback(
      "crowdweb_ingest_live_checkins", "Accepted deltas in the published epoch.", [this] {
        return static_cast<double>(snapshot_live_.load(std::memory_order_relaxed));
      });
  callback_gauge_names_ = {"crowdweb_ingest_queue_depth", "crowdweb_ingest_queue_capacity",
                           "crowdweb_ingest_epoch", "crowdweb_ingest_live_checkins"};
}

IngestWorker::~IngestWorker() {
  stop();
  // The scrape callbacks capture `this`; unhook them before members die
  // so a shared registry can never sample a destroyed worker.
  for (const std::string& name : callback_gauge_names_) metrics_->remove(name);
  queue_.attach_rejected_counter(nullptr);
}

Status IngestWorker::start() {
  if (running_.load(std::memory_order_acquire))
    return failed_precondition("ingest worker already running");
  if (queue_.closed()) return failed_precondition("ingest worker cannot restart");
  if (!config_.store.dir.empty() && store_ == nullptr) {
    const Status recovered = recover_from_store();
    if (!recovered.is_ok()) return recovered;
  }
  // First epoch: the base corpus — or, after recovery, the checkpoint
  // plus the replayed WAL tail — so readers always have a snapshot.
  const Status status = rebuild_and_publish();
  if (!status.is_ok()) return status;
  stop_requested_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  if (store_ != nullptr) {
    journal_stop_ = false;
    journal_thread_ = std::thread([this] { journal_run(); });
  }
  thread_ = std::thread([this] { run(); });
  log_info("ingest worker started: queue capacity {}, rebuild interval {} ms",
           queue_.capacity(), config_.rebuild_interval.count());
  return Status::ok();
}

void IngestWorker::stop() {
  if (!thread_.joinable()) return;
  stop_requested_.store(true, std::memory_order_release);
  queue_.close();
  thread_.join();
}

bool IngestWorker::running() const noexcept {
  return running_.load(std::memory_order_acquire);
}

SubmitResult IngestWorker::submit(std::span<const IngestEvent> events) {
  submitted_->increment(events.size());
  SubmitResult result;
  result.accepted = queue_.push_batch(events);
  result.rejected = events.size() - result.accepted;
  return result;
}

void IngestWorker::note_invalid(std::uint64_t count) noexcept {
  invalid_->increment(count);
}

data::UserId IngestWorker::allocate_guest_id() noexcept {
  return next_guest_id_.fetch_add(1, std::memory_order_relaxed);
}

Status IngestWorker::recover_from_store() {
  store::StoreConfig store_config = config_.store;
  if (store_config.metrics == nullptr) store_config.metrics = metrics_;
  Result<std::unique_ptr<store::DurableStore>> opened =
      store::DurableStore::open(std::move(store_config));
  if (!opened) return opened.status();
  store_ = std::move(*opened);

  store::RecoveredState recovered = store_->take_recovered();
  if (recovered.checkpoint.has_value()) {
    // The checkpoint replaces the base corpus copies wholesale: it IS
    // the base corpus plus every delta merged before it was written,
    // in the original insertion order (which venue resolution depends
    // on for deterministic ids).
    store::Checkpoint& checkpoint = *recovered.checkpoint;
    // Rebuild the interning pool from the checkpoint's names table:
    // interning in id order into a fresh pool reproduces every NameId
    // exactly, so the venue rows' name ids resolve unchanged.
    pool_ = std::make_shared<data::StringPool>();
    for (const std::string& name : checkpoint.names) pool_->intern(name);
    venues_ = std::move(checkpoint.venues);
    checkins_ = std::move(checkpoint.checkins);
    base_checkin_count_ = checkpoint.base_checkin_count;
    touched_users_.clear();
    touched_users_.insert(checkpoint.touched_users.begin(),
                          checkpoint.touched_users.end());
    data::UserId next_guest = next_guest_id_.load(std::memory_order_relaxed);
    next_guest_id_.store(std::max(next_guest, checkpoint.next_guest_id),
                         std::memory_order_relaxed);
    venue_index_.clear();
    venue_index_.reserve(venues_.size());
    for (const data::Venue& venue : venues_)
      venue_index_.emplace(venue_key(venue.category, venue.position), venue.id);
  }
  // Touched users' mobility differs from the base corpus mobility the
  // constructor copied, so every one of them re-mines in the first
  // rebuild (later epochs go back to re-mining only fresh deltas).
  pending_users_ = touched_users_;

  // Replay the WAL tail through the same validate + merge path live
  // events take. Counters stay untouched — these events were counted
  // when first accepted; crowdweb_store_recovery_* records the replay.
  std::uint64_t replayed_events = 0;
  for (const store::WalRecord& record : recovered.records) {
    for (const IngestEvent& event : record.events) {
      if (merge_event(event)) ++replayed_events;
    }
  }
  // The flat corpus was replaced wholesale (checkpoint) and extended
  // (WAL replay); re-index the live dataset from it through the same
  // builder the epochs use, so there is exactly one merge path.
  const Status reindexed = rebuild_live_from_flat();
  if (!reindexed.is_ok()) return reindexed;

  // Resume the epoch counter past everything disk has seen, so the
  // first published epoch after restart is strictly newer than any a
  // reader saw before the crash.
  epoch_ = std::max(epoch_, recovered.max_epoch);
  if (recovered.checkpoint.has_value() || !recovered.records.empty() ||
      recovered.truncated_bytes > 0) {
    log_info(
        "store recovery: checkpoint {}, {} WAL record(s) / {} event(s) replayed, "
        "{} torn byte(s) truncated, resuming at epoch {}",
        recovered.checkpoint ? recovered.checkpoint->seq : 0,
        recovered.records.size(), replayed_events, recovered.truncated_bytes, epoch_);
  }
  return Status::ok();
}

Status IngestWorker::checkpoint_now(std::chrono::milliseconds timeout) {
  if (store_ == nullptr)
    return failed_precondition("durable store not configured (no store directory)");
  if (!running_.load(std::memory_order_acquire))
    return failed_precondition("ingest worker not running");
  std::unique_lock<std::mutex> lock(epoch_mutex_);
  const std::uint64_t target = checkpoints_done_ + 1;
  checkpoint_requested_.store(true, std::memory_order_release);
  queue_.wake();
  if (!epoch_cv_.wait_for(lock, timeout,
                          [this, target] { return checkpoints_done_ >= target; })) {
    return unavailable("checkpoint did not complete in time (see server log)");
  }
  return Status::ok();
}

IngestStats IngestWorker::stats() const {
  IngestStats stats;
  stats.submitted = submitted_->value();
  stats.accepted = accepted_->value();
  stats.rejected = queue_.rejected();
  stats.invalid = invalid_->value();
  stats.epochs_published = epochs_published_->value();
  stats.current_epoch = hub_.epoch();
  stats.queue_depth = queue_.size();
  stats.queue_capacity = queue_.capacity();
  stats.live_checkins = snapshot_live_.load(std::memory_order_relaxed);
  stats.last_rebuild_ms = last_rebuild_seconds_->value() * 1e3;
  stats.total_rebuild_ms = rebuild_seconds_->sum() * 1e3;
  return stats;
}

bool IngestWorker::wait_for_epoch(std::uint64_t epoch,
                                  std::chrono::milliseconds timeout) const {
  std::unique_lock<std::mutex> lock(epoch_mutex_);
  return epoch_cv_.wait_for(lock, timeout,
                            [this, epoch] { return published_epoch_ >= epoch; });
}

std::chrono::milliseconds IngestWorker::drain_timeout() const {
  // A positive interval keeps the timed wait: the worker wakes at most
  // once per interval, and blocking there instead measured slower on the
  // end-to-end benchmark's 1 ms-interval workloads.
  if (config_.rebuild_interval.count() > 0 || !pending_users_.empty())
    return config_.rebuild_interval;
  // Interval 0 with nothing pending: a zero wait would spin a core, so
  // block until an event, a checkpoint request or stop() — waking only
  // on an interval-fsync store's interval, so it still syncs.
  if (store_ != nullptr && config_.store.fsync == store::FsyncPolicy::kInterval)
    return std::max(config_.store.fsync_interval, std::chrono::milliseconds(1));
  return IngestQueue::kNoTimeout;
}

void IngestWorker::run() {
  std::vector<IngestEvent> batch;
  auto last_publish = Clock::now();
  while (true) {
    batch.clear();
    queue_.drain(batch, config_.drain_batch, drain_timeout());
    apply(batch);
    if (store_ != nullptr) {
      store_->maybe_sync();
      const std::uint64_t auto_bytes = config_.store.checkpoint_wal_bytes;
      if (checkpoint_requested_.exchange(false, std::memory_order_acq_rel) ||
          (auto_bytes > 0 && store_->wal_bytes_since_checkpoint() >= auto_bytes)) {
        write_checkpoint();
      }
    }
    const bool stopping =
        stop_requested_.load(std::memory_order_acquire) && queue_.size() == 0;
    if (!pending_users_.empty() &&
        (stopping || Clock::now() - last_publish >= config_.rebuild_interval)) {
      const Status status = rebuild_and_publish();
      if (!status.is_ok())
        log_error("epoch rebuild failed: {}", status.to_string());
      last_publish = Clock::now();
    }
    if (stopping) break;
  }
  if (journal_thread_.joinable()) {
    {
      const std::lock_guard<std::mutex> lock(journal_mutex_);
      journal_stop_ = true;
    }
    journal_cv_.notify_all();
    journal_thread_.join();  // drains the backlog before exiting
  }
  if (store_ != nullptr) {
    // Clean shutdown: everything accepted is on disk regardless of the
    // fsync policy.
    const Status status = store_->sync();
    if (!status.is_ok()) log_error("final WAL sync failed: {}", status.to_string());
  }
  running_.store(false, std::memory_order_release);
}

void IngestWorker::journal_run() {
  std::unique_lock<std::mutex> lock(journal_mutex_);
  while (true) {
    journal_cv_.wait(lock, [this] { return journal_stop_ || !journal_queue_.empty(); });
    if (journal_queue_.empty()) {
      if (journal_stop_) return;
      continue;
    }
    JournalTask task = std::move(journal_queue_.front());
    journal_queue_.pop_front();
    lock.unlock();
    // A failed append is logged and counted
    // (crowdweb_store_append_failures_total) but does not stop serving:
    // the events stay live in memory, they are just not durable.
    const Status status = store_->append(task.epoch, task.events);
    if (!status.is_ok()) log_error("WAL append failed: {}", status.to_string());
    lock.lock();
    if (--journal_pending_ == 0) journal_drained_cv_.notify_all();
  }
}

void IngestWorker::journal_barrier() {
  if (store_ == nullptr) return;
  std::unique_lock<std::mutex> lock(journal_mutex_);
  journal_drained_cv_.wait(lock, [this] { return journal_pending_ == 0; });
}

Status IngestWorker::rebuild_live_from_flat() {
  // From-scratch (no base dataset), but against the worker's pool: the
  // flat venue rows carry NameIds interned there.
  data::DatasetBuilder builder(pool_);
  for (const data::Venue& venue : venues_) {
    const Status status = builder.add_venue(venue);
    if (!status.is_ok()) return status;
  }
  for (const data::CheckIn& checkin : checkins_) {
    const Status status = builder.add_checkin(checkin);
    if (!status.is_ok()) return status;
  }
  live_ = builder.build();
  delta_venues_.clear();
  delta_checkins_.clear();
  return Status::ok();
}

bool IngestWorker::merge_event(const IngestEvent& event) {
  if (event.category >= taxonomy_.size() || !geo::is_valid(event.position) ||
      event.timestamp <= 0) {
    return false;
  }
  const data::VenueId venue = resolve_venue(event.category, event.position);
  const data::CheckIn checkin{event.user, venue, event.category, event.position,
                              event.timestamp};
  checkins_.push_back(checkin);
  delta_checkins_.push_back(checkin);
  pending_users_.insert(event.user);
  touched_users_.insert(event.user);
  return true;
}

void IngestWorker::apply(std::span<const IngestEvent> events) {
  std::uint64_t invalid = 0;
  std::vector<IngestEvent> accepted;
  if (store_ != nullptr) accepted.reserve(events.size());
  for (const IngestEvent& event : events) {
    if (!merge_event(event)) {
      ++invalid;
      continue;
    }
    if (store_ != nullptr) accepted.push_back(event);
  }
  if (invalid > 0) invalid_->increment(invalid);
  const std::uint64_t accepted_count =
      store_ != nullptr ? accepted.size() : events.size() - invalid;
  if (accepted_count > 0) accepted_->increment(accepted_count);
  if (store_ != nullptr && !accepted.empty()) {
    // Hand the batch to the journal thread: the WAL write overlaps the
    // next drain/merge, and the barrier in rebuild_and_publish() keeps
    // the invariant that events are journaled before their epoch is
    // visible to readers.
    {
      const std::lock_guard<std::mutex> lock(journal_mutex_);
      journal_queue_.push_back({epoch_, std::move(accepted)});
      ++journal_pending_;
    }
    journal_cv_.notify_one();
  }
}

void IngestWorker::write_checkpoint() {
  // The image snapshots checkins_, so every batch merged into it must
  // be on the WAL first — otherwise its queued records would land
  // *after* the checkpoint and replay as duplicates on recovery.
  journal_barrier();
  store::Checkpoint image;
  image.epoch = epoch_;
  image.next_guest_id = next_guest_id_.load(std::memory_order_relaxed);
  image.base_checkin_count = base_checkin_count_;
  const data::NamesPtr names = pool_->snapshot();
  image.names.reserve(names->size());
  for (const std::string_view name : names->names()) image.names.emplace_back(name);
  image.venues = venues_;
  image.checkins = checkins_;
  image.touched_users.assign(touched_users_.begin(), touched_users_.end());
  const Status status = store_->write_checkpoint(std::move(image));
  if (!status.is_ok()) {
    log_error("checkpoint failed: {}", status.to_string());
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(epoch_mutex_);
    ++checkpoints_done_;
  }
  epoch_cv_.notify_all();
}

data::VenueId IngestWorker::resolve_venue(data::CategoryId category,
                                          const geo::LatLon& position) {
  const std::uint64_t key = venue_key(category, position);
  const auto it = venue_index_.find(key);
  if (it != venue_index_.end()) return it->second;
  data::Venue venue;
  venue.id = static_cast<data::VenueId>(venues_.size());
  venue.name = pool_->intern(crowdweb::format("live-{}", venue.id));
  venue.category = category;
  venue.position = position;
  venue_index_.emplace(key, venue.id);
  venues_.push_back(venue);
  delta_venues_.push_back(std::move(venue));
  return venues_.back().id;
}

Status IngestWorker::rebuild_and_publish() {
  const auto start = Clock::now();
  telemetry::ScopedTimer rebuild_timer(rebuild_seconds_);
  const std::size_t delta_events = delta_checkins_.size();

  // Stage 1: merge — apply the delta to the live dataset through the
  // incremental builder: only the shards of touched users are rebuilt,
  // everything else is shared with the previous epoch by pointer.
  telemetry::ScopedTimer merge_timer(stage_merge_seconds_);
  data::DatasetBuilder builder(live_);
  for (const data::Venue& venue : delta_venues_) {
    const Status status = builder.add_venue(venue);
    if (!status.is_ok()) return status;
  }
  for (const data::CheckIn& checkin : delta_checkins_) {
    const Status status = builder.add_checkin(checkin);
    if (!status.is_ok()) return status;
  }
  live_ = builder.build();
  delta_venues_.clear();
  delta_checkins_.clear();
  const data::DatasetBuilder::BuildStats& merge_stats = builder.stats();
  merge_timer.stop();

  // Stage 2: mine — phase 2 for the touched users only, sharded across
  // the mining pool; the result batch-merges into the shared mobility
  // table (untouched entries stay shared with the previous epoch).
  telemetry::ScopedTimer mine_timer(stage_mine_seconds_);
  patterns::MobilityOptions mobility_options;
  mobility_options.sequences = pipeline_.sequences;
  mobility_options.mining = pipeline_.mining;
  std::vector<data::UserId> changed(pending_users_.begin(), pending_users_.end());
  std::sort(changed.begin(), changed.end());
  if (!changed.empty()) {
    std::vector<patterns::UserMobility> updates = patterns::mine_users_mobility_parallel(
        live_, changed, taxonomy_, mobility_options, pipeline_.mining_threads);
    mining::MiningStats epoch_mining;
    std::size_t truncated_users = 0;
    for (const patterns::UserMobility& entry : updates) {
      epoch_mining.merge(entry.mining_stats);
      if (entry.mining_stats.truncated) ++truncated_users;
    }
    mining_emitted_->increment(epoch_mining.emitted);
    mining_expanded_->increment(epoch_mining.expanded);
    mining_pruned_->increment(epoch_mining.pruned);
    if (truncated_users > 0) {
      mining_truncated_->increment(truncated_users);
      // Once per epoch, not per user: the cap repeats until raised.
      log_warn(
          "epoch {}: miner '{}' truncated {} of {} re-mined users at max_patterns={}; "
          "their published tables are incomplete",
          epoch_ + 1, pipeline_.mining.algorithm, truncated_users, updates.size(),
          pipeline_.mining.max_patterns);
    }
    mobility_ = mobility_.with_updates(std::move(updates));
  }
  mine_timer.stop();

  // Stage 3: grid — reuse the previous grid unless the delta extended
  // the corpus bounds (cells are derived from the bounding box, so an
  // unchanged box means an identical grid).
  telemetry::ScopedTimer grid_timer(stage_grid_seconds_);
  bool grid_rebuilt = false;
  const geo::BoundingBox grid_source =
      pipeline_.fixed_grid_bounds.value_or(live_.bounds());
  if (!grid_.has_value() ||
      (!pipeline_.fixed_grid_bounds && live_.bounds() != grid_bounds_)) {
    auto grid = geo::SpatialGrid::create(grid_source.inflated(0.002),
                                         pipeline_.grid_cell_meters);
    if (!grid) return grid.status();
    grid_ = std::move(*grid);
    grid_bounds_ = grid_source;
    grid_rebuilt = true;
  } else {
    delta_grid_reused_->increment();
  }
  grid_timer.stop();

  // Stage 4: crowd — retract + replace the changed users' placements in
  // the previous model, sharing every unaffected time window. A grid
  // change invalidates every placement's cell, and the periodic
  // backstop guards the incremental path, so both force a full build.
  telemetry::ScopedTimer crowd_timer(stage_crowd_seconds_);
  const bool full_crowd =
      !crowd_.has_value() || grid_rebuilt ||
      (pipeline_.crowd_full_rebuild_epochs > 0 &&
       crowd_epochs_since_full_ + 1 >= pipeline_.crowd_full_rebuild_epochs);
  if (full_crowd) {
    auto crowd = crowd::CrowdModel::build(live_, mobility_, *grid_, pipeline_.crowd,
                                          pipeline_.mining_threads);
    if (!crowd) return crowd.status();
    crowd_ = std::move(*crowd);
    crowd_epochs_since_full_ = 0;
    delta_crowd_full_rebuilds_->increment();
  } else {
    auto crowd = crowd::CrowdModel::update(*crowd_, live_, mobility_, changed);
    if (!crowd) return crowd.status();
    crowd_ = std::move(*crowd);
    ++crowd_epochs_since_full_;
  }
  crowd_timer.stop();

  // Delta accounting: how much of this epoch was recomputed vs shared.
  delta_events_->increment(delta_events);
  delta_users_->increment(changed.size());
  delta_shards_reused_->increment(merge_stats.shards_reused);
  delta_shards_rebuilt_->increment(merge_stats.shards_rebuilt);
  delta_last_events_->set(static_cast<double>(delta_events));

  // Durability barrier: every batch merged into this epoch must be
  // journaled (and synced, per the fsync policy) before a reader can
  // see it. Waiting here, after the rebuild stages, means the WAL
  // writes overlapped all of the work above.
  journal_barrier();

  const double elapsed_ms = ms_since(start);
  ++epoch_;
  // The snapshot shares the live state rather than copying it: the
  // dataset aliases the per-user shards and venue table, the mobility
  // table aliases the per-user entries, and the crowd model aliases
  // the per-window placements — publishing costs O(users), not
  // O(records).
  auto snapshot = std::make_shared<const PlatformSnapshot>(PlatformSnapshot{
      epoch_, checkins_.size() - base_checkin_count_, touched_users_.size(),
      elapsed_ms, live_, mobility_, *grid_, *crowd_});
  snapshot_live_.store(snapshot->live_checkins, std::memory_order_relaxed);
  hub_.publish(std::move(snapshot));
  pending_users_.clear();
  epochs_published_->increment();
  last_rebuild_seconds_->set(rebuild_timer.stop());
  {
    const std::lock_guard<std::mutex> lock(epoch_mutex_);
    published_epoch_ = epoch_;
  }
  epoch_cv_.notify_all();
  return Status::ok();
}

}  // namespace crowdweb::ingest
