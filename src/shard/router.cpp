#include "shard/router.hpp"

#include <algorithm>
#include <string>
#include <thread>
#include <utility>

#include "shard/hash.hpp"
#include "telemetry/timer.hpp"
#include "util/format.hpp"

namespace crowdweb::shard {

namespace {

/// Per-shard worker config derived from the deployment template: a
/// private registry (worker scrape gauges are name-keyed) and a
/// "shard-<k>" store subdirectory under the deployment root.
ingest::IngestWorkerConfig worker_config_for(const ShardRouterConfig& config,
                                             std::size_t id) {
  ingest::IngestWorkerConfig worker = config.worker;
  worker.metrics = nullptr;
  if (!worker.store.dir.empty())
    worker.store.dir = crowdweb::format("{}/shard-{}", worker.store.dir, id);
  worker.store.metrics = nullptr;
  return worker;
}

}  // namespace

Result<std::unique_ptr<ShardRouter>> ShardRouter::create(const core::Platform& platform,
                                                         ShardRouterConfig config) {
  const std::size_t count =
      config.regions.empty() ? std::max<std::size_t>(1, config.shard_count)
                             : config.regions.size();
  for (const std::size_t id : config.disabled_shards) {
    if (id >= count)
      return invalid_argument(crowdweb::format("disabled shard {} out of range", id));
  }

  std::unique_ptr<ShardRouter> router(new ShardRouter());
  router->platform_ = &platform;
  router->config_ = std::move(config);
  router->disabled_.assign(count, false);
  for (const std::size_t id : router->config_.disabled_shards)
    router->disabled_[id] = true;

  // Partition the experiment corpus: every base user goes wholly to one
  // shard, so seeded corpora are disjoint and the k-way merge of
  // user-sorted state reproduces single-process order.
  const data::Dataset& experiment = platform.experiment_dataset();
  std::vector<std::vector<data::UserId>> users_of(count);
  for (const data::UserId user : experiment.users()) {
    const auto records = experiment.checkins_for(user);
    const geo::LatLon first =
        records.empty() ? geo::LatLon{} : records.front().position;
    users_of[router->assign_user(user, first)].push_back(user);
  }
  std::vector<std::vector<patterns::UserMobility>> mobility_of(count);
  for (const patterns::UserMobility& entry : platform.mobility()) {
    const auto records = experiment.checkins_for(entry.user);
    const geo::LatLon first =
        records.empty() ? geo::LatLon{} : records.front().position;
    mobility_of[router->assign_user(entry.user, first)].push_back(entry);
  }

  // Every shard renders onto the same city-wide grid: cell ids must
  // agree across shards for merged crowd windows to be meaningful.
  ingest::IngestPipelineConfig pipeline;
  pipeline.grid_cell_meters = platform.config().grid_cell_meters;
  pipeline.crowd = platform.config().crowd;
  pipeline.sequences = platform.config().sequences;
  pipeline.mining = platform.config().mining;
  pipeline.mining_threads = router->config_.mining_threads_per_shard;
  pipeline.fixed_grid_bounds = experiment.bounds();

  router->shards_.reserve(count);
  for (std::size_t id = 0; id < count; ++id) {
    ShardSpec spec;
    spec.id = id;
    if (router->config_.regions.empty()) {
      spec.name = crowdweb::format("hash-{}", id);
    } else {
      spec.name = router->config_.regions[id].name;
      spec.region = router->config_.regions[id].box;
    }
    router->shards_.push_back(std::make_unique<Shard>(
        std::move(spec), experiment.filter_users(users_of[id]),
        std::move(mobility_of[id]), platform.taxonomy(), pipeline,
        worker_config_for(router->config_, id)));
  }

  router->init_metrics();

  // Publish hooks: per-shard epoch gauge plus a response-cache re-key,
  // registered before start() so the first epoch is observed too. The
  // hook runs on the publishing shard's worker thread.
  for (std::size_t id = 0; id < count; ++id) {
    ShardRouter* self = router.get();
    router->shards_[id]->worker().hub().on_publish(
        [self, id](const ingest::PlatformSnapshot& snapshot) {
          if (self->epoch_gauge_[id] != nullptr)
            self->epoch_gauge_[id]->set(static_cast<double>(snapshot.epoch));
          self->rekey_cache();
        });
  }
  return router;
}

ShardRouter::~ShardRouter() { stop(); }

Status ShardRouter::start() {
  for (std::size_t id = 0; id < shards_.size(); ++id) {
    if (disabled_[id]) continue;
    const Status status = shards_[id]->start();
    if (!status.is_ok() && !config_.allow_degraded_start) {
      stop();
      return status;
    }
  }
  if (up_count() == 0) {
    stop();
    return unavailable("no shard came up");
  }
  // Hooks fired while siblings were still starting saw their epochs as
  // 0; settle the cache key on the complete vector.
  rekey_cache();
  refresh_gauges();
  return Status::ok();
}

void ShardRouter::stop() {
  for (auto& shard : shards_) shard->stop();
}

std::size_t ShardRouter::up_count() const noexcept {
  std::size_t up = 0;
  for (const auto& shard : shards_)
    if (shard->up()) ++up;
  return up;
}

std::size_t ShardRouter::assign_user(data::UserId user,
                                     const geo::LatLon& first_position) const noexcept {
  for (std::size_t id = 0; id < config_.regions.size(); ++id) {
    if (config_.regions[id].box.contains(first_position)) return id;
  }
  return shard_of_user(user, shards_.empty() ? std::max<std::size_t>(1, config_.shard_count)
                                             : shards_.size());
}

std::size_t ShardRouter::owner_of(const ingest::IngestEvent& event) const noexcept {
  for (std::size_t id = 0; id < config_.regions.size(); ++id) {
    if (config_.regions[id].box.contains(event.position)) return id;
  }
  return shard_of_user(event.user, shards_.size());
}

ingest::SubmitResult ShardRouter::submit(std::span<const ingest::IngestEvent> events) {
  std::vector<std::vector<ingest::IngestEvent>> slices(shards_.size());
  for (const ingest::IngestEvent& event : events)
    slices[owner_of(event)].push_back(event);

  ingest::SubmitResult total;
  for (std::size_t id = 0; id < shards_.size(); ++id) {
    if (slices[id].empty()) continue;
    if (!shards_[id]->up()) {
      // Events for a down shard are refused, not silently dropped —
      // same contract as a full queue: the producer retries.
      total.rejected += slices[id].size();
      continue;
    }
    const ingest::SubmitResult result = shards_[id]->worker().submit(slices[id]);
    total.accepted += result.accepted;
    total.rejected += result.rejected;
    if (events_total_.size() > id && events_total_[id] != nullptr)
      events_total_[id]->increment(result.accepted);
  }
  return total;
}

void ShardRouter::note_invalid(std::uint64_t count) noexcept {
  shards_.front()->worker().note_invalid(count);
}

data::UserId ShardRouter::allocate_guest_id() noexcept {
  return shards_.front()->worker().allocate_guest_id();
}

MergedPtr ShardRouter::merged() const {
  std::vector<ingest::SnapshotPtr> pins(shards_.size());
  std::vector<std::uint64_t> epochs(shards_.size(), 0);
  for (std::size_t id = 0; id < shards_.size(); ++id) {
    pins[id] = shards_[id]->snapshot();
    epochs[id] = pins[id] ? pins[id]->epoch : 0;
  }

  std::lock_guard<std::mutex> lock(merge_mutex_);
  if (merge_cache_ != nullptr && merge_cache_->epochs == epochs) return merge_cache_;

  auto view = std::make_shared<MergedView>();
  view->epochs = epochs;
  view->pins = std::move(pins);
  view->combined_epoch = mix_epoch_vector(view->epochs);
  view->epoch_tag = epoch_tag_of(view->epochs);

  std::vector<const crowd::CrowdModel*> parts;
  for (std::size_t id = 0; id < view->pins.size(); ++id) {
    const ingest::SnapshotPtr& pin = view->pins[id];
    if (pin == nullptr) {
      view->missing.push_back(id);
      continue;
    }
    parts.push_back(&pin->crowd);
    if (view->dataset == nullptr) {
      view->dataset = &pin->dataset;
      view->grid = &pin->grid;
    }
    view->live_checkins += pin->live_checkins;
    view->total_checkins += pin->dataset.checkin_count();
  }
  view->degraded = !view->missing.empty();

  if (!parts.empty()) {
    const telemetry::ScopedTimer timer(merge_seconds_);
    auto merged_crowd = crowd::CrowdModel::merge(parts);
    if (merged_crowd) {
      view->crowd = std::move(*merged_crowd);
    } else {
      // Grid/options disagreement is a construction bug (the router
      // pins both); degrade to the first live shard rather than 500.
      view->crowd = *parts.front();
    }
    if (merges_ != nullptr) merges_->increment();
  }

  refresh_gauges();
  merge_cache_ = std::move(view);
  return merge_cache_;
}

std::vector<std::uint64_t> ShardRouter::epoch_vector() const {
  std::vector<std::uint64_t> epochs(shards_.size(), 0);
  for (std::size_t id = 0; id < shards_.size(); ++id)
    epochs[id] = shards_[id]->epoch();
  return epochs;
}

std::string ShardRouter::epoch_tag() const { return epoch_tag_of(epoch_vector()); }

void ShardRouter::rekey_cache() {
  if (cache_ == nullptr) return;
  // One read of the vector gives both the key and the tag; serializing
  // the publishers makes the last re-key the one that read the newest
  // vector, so a slower hook never rolls the key back.
  const std::lock_guard<std::mutex> lock(rekey_mutex_);
  const std::vector<std::uint64_t> epochs = epoch_vector();
  cache_->set_epoch(mix_epoch_vector(epochs), epoch_tag_of(epochs));
}

std::uint64_t ShardRouter::combined_epoch() const {
  const std::vector<std::uint64_t> epochs = epoch_vector();
  return mix_epoch_vector(epochs);
}

ingest::IngestStats ShardRouter::aggregated_stats() const {
  ingest::IngestStats total;
  for (const auto& shard : shards_) {
    const ingest::IngestStats stats = shard->worker().stats();
    total.submitted += stats.submitted;
    total.accepted += stats.accepted;
    total.rejected += stats.rejected;
    total.invalid += stats.invalid;
    total.epochs_published += stats.epochs_published;
    total.current_epoch = std::max(total.current_epoch, stats.current_epoch);
    total.queue_depth += stats.queue_depth;
    total.queue_capacity += stats.queue_capacity;
    total.live_checkins += stats.live_checkins;
    total.last_rebuild_ms = std::max(total.last_rebuild_ms, stats.last_rebuild_ms);
    total.total_rebuild_ms += stats.total_rebuild_ms;
  }
  return total;
}

bool ShardRouter::wait_for_live(std::size_t live_checkins,
                                std::chrono::milliseconds timeout) const {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (true) {
    if (merged()->live_checkins >= live_checkins) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

Status ShardRouter::checkpoint_all(std::chrono::milliseconds timeout) {
  Status first_error = Status::ok();
  for (auto& shard : shards_) {
    if (!shard->up()) continue;
    const Status status = shard->worker().checkpoint_now(timeout);
    if (!status.is_ok() && first_error.is_ok()) first_error = status;
  }
  return first_error;
}

void ShardRouter::note_degraded_read() const noexcept {
  if (degraded_reads_ != nullptr) degraded_reads_->increment();
}

std::string ShardRouter::epoch_tag_of(std::span<const std::uint64_t> epochs) {
  std::string tag;
  for (std::size_t i = 0; i < epochs.size(); ++i) {
    if (i > 0) tag.push_back('.');
    tag += std::to_string(epochs[i]);
  }
  return tag;
}

void ShardRouter::init_metrics() {
  metrics_ = config_.metrics;
  up_gauge_.assign(shards_.size(), nullptr);
  epoch_gauge_.assign(shards_.size(), nullptr);
  lag_gauge_.assign(shards_.size(), nullptr);
  depth_gauge_.assign(shards_.size(), nullptr);
  live_gauge_.assign(shards_.size(), nullptr);
  events_total_.assign(shards_.size(), nullptr);
  if (metrics_ == nullptr) return;

  metrics_->gauge("crowdweb_shard_count", "Shards in the deployment layout")
      .set(static_cast<double>(shards_.size()));
  auto& up = metrics_->gauge_family("crowdweb_shard_up",
                                    "1 when the shard serves, 0 when down", {"shard"});
  auto& epoch = metrics_->gauge_family("crowdweb_shard_epoch",
                                       "Published epoch per shard", {"shard"});
  auto& lag = metrics_->gauge_family(
      "crowdweb_shard_epoch_lag",
      "Distance from the shard's epoch to the deployment's max epoch", {"shard"});
  auto& depth = metrics_->gauge_family("crowdweb_shard_queue_depth",
                                       "Ingest queue depth per shard", {"shard"});
  auto& live = metrics_->gauge_family("crowdweb_shard_live_checkins",
                                      "Accepted live events in the shard's epoch",
                                      {"shard"});
  auto& events = metrics_->counter_family("crowdweb_shard_ingest_events_total",
                                          "Events routed to and accepted by the shard",
                                          {"shard"});
  for (std::size_t id = 0; id < shards_.size(); ++id) {
    const std::vector<std::string> labels{std::to_string(id)};
    up_gauge_[id] = &up.with_labels(labels);
    epoch_gauge_[id] = &epoch.with_labels(labels);
    lag_gauge_[id] = &lag.with_labels(labels);
    depth_gauge_[id] = &depth.with_labels(labels);
    live_gauge_[id] = &live.with_labels(labels);
    events_total_[id] = &events.with_labels(labels);
  }
  merge_seconds_ = &metrics_->histogram(
      "crowdweb_shard_merge_duration_seconds",
      "Wall-clock cost of one scatter-gather crowd merge",
      telemetry::default_duration_buckets());
  merges_ = &metrics_->counter("crowdweb_shard_merges_total",
                               "Scatter-gather crowd merges performed");
  degraded_reads_ = &metrics_->counter(
      "crowdweb_shard_degraded_reads_total",
      "Reads served as a partial merge because a shard was down");
}

void ShardRouter::refresh_gauges() const {
  if (metrics_ == nullptr) return;
  std::uint64_t max_epoch = 0;
  for (const auto& shard : shards_) max_epoch = std::max(max_epoch, shard->epoch());
  for (std::size_t id = 0; id < shards_.size(); ++id) {
    const bool up = shards_[id]->up();
    const std::uint64_t epoch = shards_[id]->epoch();
    const ingest::IngestStats stats = shards_[id]->worker().stats();
    up_gauge_[id]->set(up ? 1.0 : 0.0);
    epoch_gauge_[id]->set(static_cast<double>(epoch));
    lag_gauge_[id]->set(static_cast<double>(max_epoch - epoch));
    depth_gauge_[id]->set(static_cast<double>(stats.queue_depth));
    live_gauge_[id]->set(up ? static_cast<double>(stats.live_checkins) : 0.0);
  }
}

}  // namespace crowdweb::shard
