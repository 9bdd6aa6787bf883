#include "layers.hpp"

#include <algorithm>
#include <filesystem>
#include <thread>

#include "core/api.hpp"
#include "crowd/model.hpp"
#include "data/dataset.hpp"
#include "geo/grid.hpp"
#include "http/message.hpp"
#include "ingest/replay.hpp"
#include "json/json.hpp"
#include "patterns/mobility.hpp"
#include "transport/csv_source.hpp"
#include "util/format.hpp"

namespace e2e {

using namespace crowdweb;

namespace {

/// The venue the worker resolved `event` onto, read back from the
/// corpus it ended with (same user, timestamp and position).
std::optional<data::VenueId> resolved_venue(const data::Dataset& dataset,
                                            const ingest::IngestEvent& event) {
  const data::Dataset::UserColumns columns = dataset.checkins_for(event.user);
  const auto timestamps = columns.timestamps();
  auto it = std::lower_bound(timestamps.begin(), timestamps.end(), event.timestamp);
  for (; it != timestamps.end() && *it == event.timestamp; ++it) {
    const std::size_t i = static_cast<std::size_t>(it - timestamps.begin());
    if (columns.position(i) == event.position) return columns.venue(i);
  }
  return std::nullopt;
}

std::uint64_t directory_bytes(const std::string& dir) {
  std::uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir, ec))
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  return bytes;
}

}  // namespace

void replay_layers(const core::Platform& platform, std::span<const ingest::IngestEvent> events,
                   std::span<const std::size_t> epoch_ends, const data::Dataset& final_dataset,
                   const std::string& store_dir, double budget_s,
                   Tracer& tracer, Errors& errors) {
  const core::PlatformConfig& config = platform.config();
  const data::Taxonomy& taxonomy = platform.taxonomy();
  const unsigned threads = config.mining_threads;
  patterns::MobilityOptions options;
  options.sequences = config.sequences;
  options.mining = config.mining;

  // Epoch 1, as IngestWorker::start publishes it.
  data::Dataset dataset = platform.experiment_dataset();
  patterns::MobilityTable mobility = patterns::MobilityTable::from_entries(
      std::vector<patterns::UserMobility>(platform.mobility().begin(), platform.mobility().end()));
  geo::BoundingBox grid_bounds = dataset.bounds();
  auto grid = geo::SpatialGrid::create(grid_bounds.inflated(0.002), config.grid_cell_meters);
  if (!grid.is_ok()) {
    errors.push_back("layer replay grid: " + grid.status().to_string());
    return;
  }
  auto crowd = crowd::CrowdModel::build(dataset, mobility, *grid, config.crowd, threads);
  if (!crowd.is_ok()) {
    errors.push_back("layer replay crowd: " + crowd.status().to_string());
    return;
  }
  store::StoreConfig store_config;
  store_config.dir = store_dir;
  store_config.fsync = kFsync;
  auto store = store::DurableStore::open(store_config);
  if (!store.is_ok()) {
    errors.push_back("layer replay store: " + store.status().to_string());
    return;
  }

  std::size_t venues_known = dataset.venue_count();
  std::size_t begin = 0;
  std::size_t since_full = 0;
  std::size_t appended = 0;
  const auto deadline = Clock::now() + std::chrono::duration<double>(budget_s);
  std::vector<data::UserId> changed;
  for (std::size_t e = 0; e < epoch_ends.size() && Clock::now() < deadline; ++e) {
    const std::size_t end = std::min(epoch_ends[e], events.size());
    if (end <= begin) continue;
    const std::span<const ingest::IngestEvent> delta = events.subspan(begin, end - begin);
    begin = end;

    auto t0 = Clock::now();
    if (Status status = (*store)->append(e + 2, delta); !status.is_ok()) {
      errors.push_back("WAL append: " + status.to_string());
      return;
    }
    tracer.span("store.append", t0, Clock::now());
    appended += delta.size();

    t0 = Clock::now();
    data::DatasetBuilder builder(dataset);
    changed.clear();
    for (const ingest::IngestEvent& event : delta) {
      const auto venue = resolved_venue(final_dataset, event);
      if (!venue) {
        errors.push_back(crowdweb::format("user {}: live event missing from the final corpus",
                                          event.user));
        return;
      }
      for (; venues_known <= *venue; ++venues_known)
        (void)builder.add_venue(final_dataset.venue_spec(static_cast<data::VenueId>(venues_known)));
      (void)builder.add_checkin({event.user, *venue, event.category, event.position,
                                 event.timestamp});
      changed.push_back(event.user);
    }
    dataset = builder.build();
    tracer.span("data.merge", t0, Clock::now());
    tracer.value("data.shards_rebuilt", static_cast<double>(builder.stats().shards_rebuilt));
    tracer.value("data.shards_reused", static_cast<double>(builder.stats().shards_reused));
    std::sort(changed.begin(), changed.end());
    changed.erase(std::unique(changed.begin(), changed.end()), changed.end());

    t0 = Clock::now();
    std::vector<patterns::UserMobility> updates =
        patterns::mine_users_mobility_parallel(dataset, changed, taxonomy, options, threads);
    tracer.span("mining.mine", t0, Clock::now());
    double emitted = 0.0;
    double expanded = 0.0;
    for (const patterns::UserMobility& entry : updates) {
      emitted += static_cast<double>(entry.mining_stats.emitted);
      expanded += static_cast<double>(entry.mining_stats.expanded);
    }
    tracer.value("mining.users_per_epoch", static_cast<double>(changed.size()));
    tracer.value("mining.patterns_emitted", emitted);
    tracer.value("mining.patterns_expanded", expanded);
    tracer.value("ingest.events_per_epoch", static_cast<double>(delta.size()));

    t0 = Clock::now();
    mobility = mobility.with_updates(std::move(updates));
    tracer.span("patterns.table_update", t0, Clock::now());

    bool grid_rebuilt = false;
    if (dataset.bounds() != grid_bounds) {
      t0 = Clock::now();
      grid_bounds = dataset.bounds();
      grid = geo::SpatialGrid::create(grid_bounds.inflated(0.002), config.grid_cell_meters);
      tracer.span("geo.grid", t0, Clock::now());
      tracer.value("geo.grid_rebuilds", 1.0);
      if (!grid.is_ok()) {
        errors.push_back("grid rebuild: " + grid.status().to_string());
        return;
      }
      grid_rebuilt = true;
    }

    t0 = Clock::now();
    if (grid_rebuilt || since_full + 1 >= 64) {
      crowd = crowd::CrowdModel::build(dataset, mobility, *grid, config.crowd, threads);
      tracer.span("crowd.full_rebuild", t0, Clock::now());
      tracer.value("crowd.full_rebuilds", 1.0);
      since_full = 0;
    } else {
      crowd = crowd::CrowdModel::update(*crowd, dataset, mobility, changed);
      tracer.span("crowd.update", t0, Clock::now());
      ++since_full;
    }
    if (!crowd.is_ok()) {
      errors.push_back("crowd update: " + crowd.status().to_string());
      return;
    }
  }
  // One grid build and one full crowd build on the final state, so the
  // cost of a rebuild shows even when no epoch needed one.
  auto t0 = Clock::now();
  const auto final_grid = geo::SpatialGrid::create(dataset.bounds().inflated(0.002),
                                                   config.grid_cell_meters);
  tracer.span("geo.grid", t0, Clock::now());
  t0 = Clock::now();
  const auto final_crowd = crowd::CrowdModel::build(dataset, mobility, *grid, config.crowd, threads);
  tracer.span("crowd.full_rebuild", t0, Clock::now());

  tracer.value("crowd.placements", static_cast<double>(crowd->total_placements()));
  const patterns::MobilityStats stats = mobility.stats();
  tracer.value("patterns.table_mb", static_cast<double>(stats.bytes) / (1024.0 * 1024.0));
  tracer.value("patterns.placement_candidates", static_cast<double>(stats.placement_candidates));
  (void)(*store)->sync();
  if (appended > 0)
    tracer.value("store.wal_bytes_per_event", static_cast<double>(directory_bytes(store_dir)) /
                                                  static_cast<double>(appended));
  store->reset();
  std::error_code ignored;
  std::filesystem::remove_all(store_dir, ignored);
}

void sweep_renders(const core::Platform& platform, ingest::IngestWorker& worker, Tracer& tracer,
                   Errors& errors) {
  core::ApiOptions api;
  api.ingest = &worker;
  const http::Router router = core::make_api_router(platform, api);
  const int windows = platform.crowd_model().window_count();
  const auto users = platform.experiment_dataset().users();
  struct Family {
    const char* metric;
    const char* pattern;  // {} = a window or a user id
    bool per_user;
  };
  static constexpr Family kFamilies[] = {
      {"core.render_crowd", "/api/crowd/{}", false},
      {"core.render_geojson", "/api/crowd/{}/geojson", false},
      {"core.render_groups", "/api/groups/{}", false},
      {"core.render_flow", "/api/flow/{}", false},
      {"core.render_user_patterns", "/api/user/{}/patterns", true},
      {"viz.render_crowd_map", "/api/crowd/{}/map.svg", false},
      {"viz.render_flow_map", "/api/flow/{}/map.svg", false},
      {"viz.render_user_graph", "/api/user/{}/graph.svg", true},
      {"viz.render_timeline", "/api/user/{}/timeline.svg", true},
      {"viz.render_animation", "/api/animation.svg", false},
  };
  for (const Family& family : kFamilies) {
    for (int k = 0; k < 8; ++k) {
      const int window = (k * 3) % windows;
      std::string key = std::to_string(window);
      if (family.per_user) key = std::to_string(users[static_cast<std::size_t>(k) % users.size()]);
      else if (std::string_view(family.metric) == "core.render_flow" ||
               std::string_view(family.metric) == "viz.render_flow_map")
        key += "/" + std::to_string((window + 1) % windows);
      http::Request request;
      request.method = "GET";
      request.path = crowdweb::format(family.pattern, key);
      request.version = "HTTP/1.1";
      const auto t0 = Clock::now();
      const http::Response response = router.dispatch(request);
      tracer.span(family.metric, t0, Clock::now());
      if (response.status != 200)
        errors.push_back(crowdweb::format("dispatch {} answered {}", request.path, response.status));
    }
  }
}

void shard_side_replay(const Inputs& inputs, const Feed& feed, std::size_t batches,
                       const StackOptions& options, Tracer& tracer, Errors& errors) {
  // Declared before the stack: shard publish hooks outlive nothing they use.
  std::mutex publish_mutex;
  std::vector<std::pair<std::size_t, Clock::time_point>> publishes;
  auto stack = Stack::start(inputs, options);
  if (!stack.is_ok()) {
    errors.push_back("sharded side stack: " + stack.status().to_string());
    return;
  }
  shard::ShardRouter& router = *(*stack)->router();
  for (std::size_t s = 0; s < router.shard_count(); ++s) {
    router.shard(s).worker().hub().on_publish(
        [&publish_mutex, &publishes, s](const ingest::PlatformSnapshot&) {
          const auto now = Clock::now();
          const std::lock_guard<std::mutex> lock(publish_mutex);
          publishes.emplace_back(s, now);
        });
  }
  KeepAlive poster((*stack)->http_port());
  const core::Platform& platform = (*stack)->platform();
  const data::Taxonomy& taxonomy = platform.taxonomy();
  std::size_t live = 0;
  std::vector<ingest::IngestEvent> batch;
  // What the shards took, in order: submitted batches as they are, posted
  // ones as the route's own parser reads their CSV bodies.
  std::vector<ingest::IngestEvent> taken;
  for (std::size_t b = 0; b < batches; ++b) {
    feed.batch(b, batch);
    std::size_t mark = 0;
    {
      const std::lock_guard<std::mutex> lock(publish_mutex);
      mark = publishes.size();
    }
    std::vector<std::uint64_t> last_vector = router.epoch_vector();
    std::size_t accepted = 0;
    if (b % 2 == 0) {
      const auto t0 = Clock::now();
      accepted = router.submit(batch).accepted;
      tracer.span("shard.route", t0, Clock::now());
      taken.insert(taken.end(), batch.begin(), batch.end());
    } else {
      http::Request request;
      request.body = ingest::events_csv(batch, taxonomy);
      const auto t0 = Clock::now();
      const auto reply = poster.post("/api/ingest", "text/csv", request.body);
      tracer.span("transport.csv_post", t0, Clock::now());
      const auto parsed =
          transport::parse_ingest_csv(request, taxonomy, [] { return data::UserId{0}; });
      if (!parsed.is_ok()) {
        errors.push_back(crowdweb::format("sharded side batch {}: its CSV body does not parse", b));
        return;
      }
      taken.insert(taken.end(), parsed->events.begin(), parsed->events.end());
      if (reply && reply->status == 200) {
        const auto payload = json::parse(reply->body);
        const json::Value* field = payload.is_ok() ? payload->find("accepted") : nullptr;
        if (field != nullptr && field->is_int()) accepted = static_cast<std::size_t>(field->as_int());
      }
    }
    if (accepted != batch.size()) {
      errors.push_back(crowdweb::format("sharded side batch {}: {} of {} accepted", b, accepted,
                                        batch.size()));
      return;
    }
    live += batch.size();
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (true) {
      std::vector<std::uint64_t> vector = router.epoch_vector();
      if (vector != last_vector) {
        const auto t0 = Clock::now();
        const shard::MergedPtr merged = router.merged();
        tracer.span("shard.merge", t0, Clock::now());
        last_vector = std::move(vector);
        if (merged->live_checkins >= live) break;
      } else if (Clock::now() >= deadline) {
        errors.push_back(crowdweb::format("sharded side batch {} never became visible", b));
        return;
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    // First publish per shard after the submit: last minus first.
    const std::lock_guard<std::mutex> lock(publish_mutex);
    std::vector<Clock::time_point> first(router.shard_count());
    std::vector<bool> seen(router.shard_count(), false);
    for (std::size_t i = mark; i < publishes.size(); ++i) {
      if (seen[publishes[i].first]) continue;
      seen[publishes[i].first] = true;
      first[publishes[i].first] = publishes[i].second;
    }
    Clock::time_point low = Clock::time_point::max();
    Clock::time_point high = Clock::time_point::min();
    for (std::size_t s = 0; s < first.size(); ++s) {
      if (!seen[s]) continue;
      low = std::min(low, first[s]);
      high = std::max(high, first[s]);
    }
    if (low <= high) tracer.value("shard.publish_spread_ms", ms_between(low, high));
  }

  // The merged /api/crowd/:window bytes equal those of a single process
  // that took the same events, built from scratch on the shards' pinned
  // grid bounds: the shard split and the scatter-gather merge change
  // nothing a client sees.
  const std::vector<std::string> served = served_crowd((*stack)->http_port(), platform, errors);
  const geo::BoundingBox pinned = platform.experiment_dataset().bounds();
  const ingest::SnapshotPtr single = bulk_reference(platform, taken, pinned, errors);
  if (single != nullptr)
    check_bytes(served, scratch_crowd_bodies(single->dataset, platform, pinned),
                "sharded vs single-process", errors);
  (*stack)->stop();
}

}  // namespace e2e
