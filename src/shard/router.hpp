// Scatter-gather routing across region shards.
//
// The ShardRouter owns N Shards (see shard.hpp) under one static
// layout, fixed at creation:
//   - region mode: each shard owns a named bounding box; events route
//     to the first region containing their position (hash fallback for
//     positions outside every box). Base users are assigned wholly to
//     one shard by their first check-in's position, so the seeded
//     corpora are disjoint; a live user roaming across regions can
//     appear on several shards, which the merge tolerates (their
//     placements interleave) but double-counts — region mode trades
//     exactness for locality.
//   - hash mode: shard = splitmix64(user) % N (see hash.hpp). A user's
//     whole history lives on exactly one shard, which makes the merged
//     read path value-identical to a single-process deployment.
//
// Writes (`submit`) partition the batch by owning shard. Reads call
// `merged()`: every shard's current epoch snapshot is pinned, and the
// per-shard crowd models are k-way merged by user id into one
// CrowdModel the shared core handlers render — possible because every
// shard's grid is pinned to the same city-wide bounds
// (IngestPipelineConfig::fixed_grid_bounds), so cell ids agree across
// shards. The merge is cached per epoch vector; it reruns only when
// some shard publishes.
//
// Cross-shard consistency is expressed as the epoch vector
// (epoch-per-shard, e.g. [3,5,2]): /api/status reports it, ETags embed
// its dotted form ("3.5.2-<hash>"), and the response cache is re-keyed
// with its splitmix64 mixdown on every shard publish, so cached bodies
// can never mix state across epoch-vector changes. A shard that is
// down simply drops out: reads return a partial merge with an explicit
// "degraded" marker (HTTP 200) and its slot reads 0 in the vector.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/platform.hpp"
#include "crowd/model.hpp"
#include "http/cache.hpp"
#include "ingest/event.hpp"
#include "ingest/worker.hpp"
#include "shard/shard.hpp"
#include "telemetry/metrics.hpp"
#include "util/status.hpp"

namespace crowdweb::shard {

/// One named region of the static layout (region mode).
struct ShardRegion {
  std::string name;
  geo::BoundingBox box;
};

struct ShardRouterConfig {
  /// Hash-mode shard count; ignored when `regions` is non-empty.
  std::size_t shard_count = 2;
  /// Region mode: one shard per entry, in order (first containing
  /// region wins for positions in overlapping boxes).
  std::vector<ShardRegion> regions;
  /// Deployment registry for the crowdweb_shard_* families (see
  /// docs/OBSERVABILITY.md). Null disables router telemetry. Per-shard
  /// workers always keep private registries — their scrape gauges are
  /// name-keyed and cannot share one registry.
  telemetry::Registry* metrics = nullptr;
  /// Template for every shard's worker. `worker.store.dir` is the
  /// deployment's store *root*: shard k persists under
  /// "<root>/shard-<k>" (empty = durability off). `worker.metrics` is
  /// ignored (see above).
  ingest::IngestWorkerConfig worker;
  /// Re-mining threads per shard (shards already parallelize the
  /// deployment, so the default keeps each shard single-threaded).
  unsigned mining_threads_per_shard = 1;
  /// start(): keep serving when a shard fails to start (it stays down
  /// and reads degrade) instead of failing the whole router.
  bool allow_degraded_start = false;
  /// Shards never started by start() — they stay down, as if crashed.
  /// For degraded-read tests and staged region roll-outs.
  std::vector<std::size_t> disabled_shards;
};

/// One consistent scatter-gather read view: per-shard snapshots pinned
/// at merge time plus the merged crowd model. Immutable and shared —
/// handlers hold the pointer for the whole request, so a concurrent
/// shard publish cannot mutate what they render.
struct MergedView {
  /// Epoch per shard slot (0 = shard down / nothing published).
  std::vector<std::uint64_t> epochs;
  /// Pinned snapshots, parallel to `epochs` (null for down shards).
  std::vector<ingest::SnapshotPtr> pins;
  /// Ids of shards that contributed nothing, ascending.
  std::vector<std::size_t> missing;
  bool degraded = false;  ///< true iff `missing` is non-empty
  std::uint64_t combined_epoch = 0;  ///< mix_epoch_vector(epochs)
  std::string epoch_tag;             ///< dotted vector, e.g. "3.5.2"
  /// K-way merged crowd model (nullopt when no shard is up).
  std::optional<crowd::CrowdModel> crowd;
  /// Corpus + grid of the first live shard, for handlers that need a
  /// dataset (labels) and the pinned grid geometry. Null when no shard
  /// is up. Venue tables are shared across shards at seed time; they
  /// diverge only once live events mint shard-local venues.
  const data::Dataset* dataset = nullptr;
  const geo::SpatialGrid* grid = nullptr;
  std::size_t live_checkins = 0;   ///< summed over live shards
  std::size_t total_checkins = 0;  ///< summed corpus size over live shards
};
using MergedPtr = std::shared_ptr<const MergedView>;

class ShardRouter {
 public:
  /// Builds the layout over `platform`'s experiment corpus: partitions
  /// users (hash or region assignment), seeds one Shard per slot with
  /// its corpus slice + matching phase-2 mobility, and pins every
  /// shard's grid to the full corpus bounds so merged cell ids agree.
  /// `platform` must outlive the router.
  static Result<std::unique_ptr<ShardRouter>> create(const core::Platform& platform,
                                                     ShardRouterConfig config);
  ~ShardRouter();
  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Starts every non-disabled shard (store recovery + first epoch) and
  /// settles the cache epoch tag. Without `allow_degraded_start`, the
  /// first failure stops what already started and returns the error;
  /// with it, failed shards stay down and the router serves degraded.
  /// Fails either way when nothing came up.
  [[nodiscard]] Status start();

  /// Stops all shards (idempotent).
  void stop();

  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }
  [[nodiscard]] std::size_t up_count() const noexcept;
  [[nodiscard]] Shard& shard(std::size_t id) noexcept { return *shards_[id]; }
  [[nodiscard]] const Shard& shard(std::size_t id) const noexcept { return *shards_[id]; }

  /// The shard an event routes to (hash of the user, or the first
  /// region containing the position — see the header comment).
  [[nodiscard]] std::size_t owner_of(const ingest::IngestEvent& event) const noexcept;

  /// Partitions the batch by owning shard and submits each slice;
  /// per-shard accept/reject outcomes are summed. Thread-safe.
  ingest::SubmitResult submit(std::span<const ingest::IngestEvent> events);

  /// Forwards producer-side invalid-row accounting (to shard 0).
  void note_invalid(std::uint64_t count) noexcept;

  /// A guest id for anonymous submissions (allocated on shard 0; the
  /// id space is global, so routing stays consistent).
  [[nodiscard]] data::UserId allocate_guest_id() noexcept;

  /// The current scatter-gather view. Cached per epoch vector: the
  /// k-way merge runs once per cross-shard state change, every other
  /// call is a pointer copy. Never null; with no shard up the view has
  /// no crowd/dataset and lists every shard as missing.
  [[nodiscard]] MergedPtr merged() const;

  /// Epoch per shard slot, right now (0 for down shards).
  [[nodiscard]] std::vector<std::uint64_t> epoch_vector() const;
  /// Dotted rendition of epoch_vector(), e.g. "3.5.2".
  [[nodiscard]] std::string epoch_tag() const;
  /// Dotted rendition of an arbitrary epoch vector.
  [[nodiscard]] static std::string epoch_tag_of(std::span<const std::uint64_t> epochs);
  /// mix_epoch_vector(epoch_vector()) — the response-cache key epoch.
  [[nodiscard]] std::uint64_t combined_epoch() const;

  /// Re-keys `cache` (epoch + dotted tag) on every shard publish, so
  /// cached responses become unreachable the moment any shard's state
  /// moves. Call before start(); `cache` must outlive the router.
  void rekey_cache_on_publish(http::ResponseCache* cache) noexcept { cache_ = cache; }

  /// Sums per-shard worker stats; `current_epoch` is the max shard
  /// epoch (report the vector, not this, for consistency questions).
  [[nodiscard]] ingest::IngestStats aggregated_stats() const;

  /// Polls until the merged view holds at least `live_checkins` live
  /// events (true) or the timeout expires (false). Test/bench helper.
  [[nodiscard]] bool wait_for_live(std::size_t live_checkins,
                                   std::chrono::milliseconds timeout) const;

  /// Checkpoints every live shard; first error wins (all are attempted).
  [[nodiscard]] Status checkpoint_all(std::chrono::milliseconds timeout);

  /// Accounts one degraded read (crowdweb_shard_degraded_reads_total).
  void note_degraded_read() const noexcept;

  [[nodiscard]] const core::Platform& platform() const noexcept { return *platform_; }
  [[nodiscard]] const data::Taxonomy& taxonomy() const noexcept {
    return platform_->taxonomy();
  }
  [[nodiscard]] const ShardRouterConfig& config() const noexcept { return config_; }

 private:
  ShardRouter() = default;

  /// Hash- or region-assignment of a base user (first check-in wins).
  [[nodiscard]] std::size_t assign_user(data::UserId user,
                                        const geo::LatLon& first_position) const noexcept;
  void init_metrics();
  /// Pushes per-shard gauges (up/epoch/lag/queue/live) to the registry.
  void refresh_gauges() const;
  /// Re-keys the attached cache on the current epoch vector.
  void rekey_cache();

  const core::Platform* platform_ = nullptr;
  ShardRouterConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<bool> disabled_;
  http::ResponseCache* cache_ = nullptr;

  telemetry::Registry* metrics_ = nullptr;
  std::vector<telemetry::Gauge*> up_gauge_;
  std::vector<telemetry::Gauge*> epoch_gauge_;
  std::vector<telemetry::Gauge*> lag_gauge_;
  std::vector<telemetry::Gauge*> depth_gauge_;
  std::vector<telemetry::Gauge*> live_gauge_;
  std::vector<telemetry::Counter*> events_total_;
  telemetry::Histogram* merge_seconds_ = nullptr;
  telemetry::Counter* merges_ = nullptr;
  telemetry::Counter* degraded_reads_ = nullptr;

  std::mutex rekey_mutex_;
  mutable std::mutex merge_mutex_;
  mutable MergedPtr merge_cache_;  // guarded by merge_mutex_
};

}  // namespace crowdweb::shard
