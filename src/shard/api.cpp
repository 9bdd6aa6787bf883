#include "shard/api.hpp"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/handlers.hpp"
#include "json/json.hpp"
#include "mining/registry.hpp"
#include "patterns/mobility.hpp"
#include "transport/csv_source.hpp"
#include "telemetry/exposition.hpp"

namespace crowdweb::shard {

namespace {

using core::handlers::CrowdView;
using http::PathParams;
using http::Request;
using http::Response;

/// Runs `fn` against the current merged view. The MergedPtr lives on
/// this frame for the whole call, pinning every contributing epoch.
/// 503 when no shard is serving; degraded reads are accounted.
template <typename Fn>
Response with_merged(ShardRouter& router, Fn&& fn) {
  const MergedPtr view = router.merged();
  if (!view->crowd.has_value() || view->dataset == nullptr)
    return Response::text(503, "no shard is serving; retry shortly\n");
  if (view->degraded) router.note_degraded_read();
  return fn(CrowdView{*view->dataset, *view->grid, *view->crowd,
                      router.platform().config().sequences.mode, router.taxonomy(),
                      view->degraded, view->missing});
}

/// Appends the degraded marker to non-crowd JSON payloads (users,
/// patterns) the same way core::handlers does for crowd bodies.
void mark_degraded(const MergedView& view, json::Value& payload) {
  if (!view.degraded) return;
  payload.set("degraded", true);
  json::Value missing = json::Value(json::Array{});
  for (const std::size_t id : view.missing)
    missing.push_back(static_cast<std::int64_t>(id));
  payload.set("missing_shards", std::move(missing));
}

/// The per-shard mobility tables of a merged view, for k-way merging.
std::vector<const patterns::MobilityTable*> mobility_parts(const MergedView& view) {
  std::vector<const patterns::MobilityTable*> parts;
  for (const ingest::SnapshotPtr& pin : view.pins)
    if (pin != nullptr) parts.push_back(&pin->mobility);
  return parts;
}

/// K-way merge by ascending user id. Each user lives on exactly one
/// shard under the hash layout, so this reproduces the single-process
/// iteration order; duplicate ids (region mode) keep the first part.
template <typename Fn>
void for_each_merged_user(const std::vector<const patterns::MobilityTable*>& parts,
                          Fn&& fn) {
  std::vector<std::size_t> cursor(parts.size(), 0);
  data::UserId last_user = 0;
  bool emitted = false;
  while (true) {
    std::size_t pick = parts.size();
    for (std::size_t i = 0; i < parts.size(); ++i) {
      while (cursor[i] < parts[i]->size() && emitted &&
             (*parts[i])[cursor[i]].user <= last_user)
        ++cursor[i];  // duplicate of an already-emitted user
      if (cursor[i] >= parts[i]->size()) continue;
      if (pick == parts.size() ||
          (*parts[i])[cursor[i]].user < (*parts[pick])[cursor[pick]].user)
        pick = i;
    }
    if (pick == parts.size()) return;
    const patterns::UserMobility& entry = (*parts[pick])[cursor[pick]++];
    last_user = entry.user;
    emitted = true;
    fn(entry);
  }
}

Response users_handler(ShardRouter& router) {
  const MergedPtr view = router.merged();
  if (view->dataset == nullptr)
    return Response::text(503, "no shard is serving; retry shortly\n");
  if (view->degraded) router.note_degraded_read();
  json::Value users = json::Value(json::Array{});
  for_each_merged_user(mobility_parts(*view), [&](const patterns::UserMobility& mobility) {
    users.push_back(json::object(
        {{"id", static_cast<std::int64_t>(mobility.user)},
         {"recorded_days", static_cast<std::int64_t>(mobility.recorded_days)},
         {"patterns", static_cast<std::int64_t>(mobility.served_pattern_count())}}));
  });
  json::Value payload = json::object({{"users", std::move(users)}});
  mark_degraded(*view, payload);
  return Response::json(200, json::dump(payload));
}

Response user_patterns_handler(ShardRouter& router, const PathParams& params) {
  const auto id = core::handlers::int_param(params, "id");
  if (!id || *id < 0) return core::handlers::bad_user_id(params);
  const MergedPtr view = router.merged();
  if (view->dataset == nullptr)
    return Response::text(503, "no shard is serving; retry shortly\n");
  if (view->degraded) router.note_degraded_read();

  const auto user = static_cast<data::UserId>(*id);
  const patterns::UserMobility* mobility = nullptr;
  const ingest::PlatformSnapshot* home = nullptr;
  for (const ingest::SnapshotPtr& pin : view->pins) {
    if (pin == nullptr) continue;
    if (const patterns::UserMobility* entry = pin->mobility.find(user)) {
      mobility = entry;
      home = pin.get();
      break;
    }
  }
  if (mobility == nullptr) return Response::not_found_404();

  // Closed-mode entries expand lazily for this request: the wire
  // contract lists the full frequent set regardless of how the owning
  // shard stores it, so the bytes match the expanded-mode response.
  const core::PlatformConfig& config = router.platform().config();
  const std::vector<patterns::MobilityPattern> expanded = patterns::expand_user_patterns(
      *mobility, home->dataset, router.taxonomy(), {config.sequences, config.mining});
  json::Value list = json::Value(json::Array{});
  for (const patterns::MobilityPattern& pattern : expanded)
    list.push_back(core::handlers::pattern_json(pattern, config.sequences.mode,
                                                router.taxonomy(), home->dataset));
  json::Value payload = json::object(
      {{"user", static_cast<std::int64_t>(mobility->user)},
       {"recorded_days", static_cast<std::int64_t>(mobility->recorded_days)},
       {"patterns", std::move(list)}});
  mark_degraded(*view, payload);
  return Response::json(200, json::dump(payload));
}

json::Value shard_block(const Shard& shard) {
  json::Value block = json::object({{"id", static_cast<std::int64_t>(shard.spec().id)},
                                    {"name", shard.spec().name},
                                    {"up", shard.up()}});
  if (shard.spec().region.has_value()) {
    const geo::BoundingBox& box = *shard.spec().region;
    block.set("region", json::object({{"min_lat", box.min_lat},
                                      {"max_lat", box.max_lat},
                                      {"min_lon", box.min_lon},
                                      {"max_lon", box.max_lon}}));
  }
  if (!shard.up()) {
    if (!shard.start_status().is_ok())
      block.set("error", shard.start_status().to_string());
    return block;
  }
  const ingest::SnapshotPtr snapshot = shard.snapshot();
  const ingest::IngestStats stats = shard.worker().stats();
  block.set("epoch", static_cast<std::int64_t>(stats.current_epoch));
  if (snapshot != nullptr) {
    block.set("corpus",
              json::object(
                  {{"checkins", static_cast<std::int64_t>(snapshot->dataset.checkin_count())},
                   {"users", static_cast<std::int64_t>(snapshot->dataset.user_count())},
                   {"venues", static_cast<std::int64_t>(snapshot->dataset.venue_count())}}));
  }
  block.set("live_checkins", static_cast<std::int64_t>(stats.live_checkins));
  block.set("queue", json::object({{"depth", static_cast<std::int64_t>(stats.queue_depth)},
                                   {"capacity",
                                    static_cast<std::int64_t>(stats.queue_capacity)}}));
  block.set("last_rebuild_ms", stats.last_rebuild_ms);
  return block;
}

Response status_handler(ShardRouter& router, const ShardApiOptions& options) {
  const MergedPtr view = router.merged();

  json::Value shards = json::Value(json::Array{});
  for (std::size_t id = 0; id < router.shard_count(); ++id)
    shards.push_back(shard_block(router.shard(id)));
  json::Value epochs = json::Value(json::Array{});
  for (const std::uint64_t epoch : view->epochs)
    epochs.push_back(static_cast<std::int64_t>(epoch));
  json::Value missing = json::Value(json::Array{});
  for (const std::size_t id : view->missing)
    missing.push_back(static_cast<std::int64_t>(id));

  json::Value payload = json::object(
      {{"shards", std::move(shards)},
       {"epoch_vector", std::move(epochs)},
       // The splitmix64 mixdown of the vector — the response-cache key.
       // Emitted as a string: it is an opaque 64-bit id, not a counter.
       {"epoch_tag", view->epoch_tag},
       {"combined_epoch", std::to_string(view->combined_epoch)},
       {"degraded", view->degraded},
       {"missing_shards", std::move(missing)},
       {"experiment",
        json::object({{"checkins", static_cast<std::int64_t>(view->total_checkins)}})}});
  if (view->crowd.has_value()) {
    payload.set("windows", view->crowd->window_count());
    payload.set("placements", static_cast<std::int64_t>(view->crowd->total_placements()));
  }
  if (view->grid != nullptr) {
    payload.set("grid",
                json::object({{"rows", static_cast<std::int64_t>(view->grid->rows())},
                              {"cols", static_cast<std::int64_t>(view->grid->cols())},
                              {"cell_meters", view->grid->cell_size_meters()}}));
  }
  // Mining block, same shape as the single-process API: the configured
  // miner + serving mode, with the pattern-set footprint aggregated
  // across every shard epoch this view pins.
  const mining::MiningOptions& mining_config = router.platform().config().mining;
  const mining::IMiningAlgorithm* miner = mining::find_miner(mining_config.algorithm);
  const bool closed_mode =
      miner != nullptr && miner->closed_output() && !mining_config.expand_closed;
  patterns::MobilityStats set_stats;
  for (const ingest::SnapshotPtr& pin : view->pins)
    if (pin != nullptr) set_stats.merge(pin->mobility.stats());
  payload.set(
      "mining",
      json::object(
          {{"algorithm", mining_config.algorithm},
           {"min_support", mining_config.min_support},
           {"expand_closed", mining_config.expand_closed},
           {"max_patterns", static_cast<std::int64_t>(mining_config.max_patterns)},
           {"mode", closed_mode ? "closed" : "expanded"},
           {"pattern_set",
            json::object({{"entries", static_cast<std::int64_t>(set_stats.entries)},
                          {"compact_entries",
                           static_cast<std::int64_t>(set_stats.compact_entries)},
                          {"patterns", static_cast<std::int64_t>(set_stats.patterns)},
                          {"placement_candidates",
                           static_cast<std::int64_t>(set_stats.placement_candidates)},
                          {"bytes", static_cast<std::int64_t>(set_stats.bytes)}})}}));

  // Aggregate ingest block, same shape as the single-process API so
  // existing dashboards (examples/live_monitor) keep working; the epoch
  // is the max shard epoch (the vector above is the precise answer).
  const ingest::IngestStats stats = router.aggregated_stats();
  payload.set("ingest",
              json::object({{"epoch", static_cast<std::int64_t>(stats.current_epoch)},
                            {"live_checkins", static_cast<std::int64_t>(stats.live_checkins)},
                            {"queue_depth", static_cast<std::int64_t>(stats.queue_depth)}}));
  if (options.server_stats != nullptr && *options.server_stats) {
    const http::ServerStats server = (*options.server_stats)();
    payload.set(
        "server",
        json::object(
            {{"requests", static_cast<std::int64_t>(server.requests)},
             {"bad_requests", static_cast<std::int64_t>(server.bad_requests)},
             {"connections", static_cast<std::int64_t>(server.connections)},
             {"responses", json::object({{"2xx", static_cast<std::int64_t>(server.responses_2xx)},
                                         {"4xx", static_cast<std::int64_t>(server.responses_4xx)},
                                         {"5xx", static_cast<std::int64_t>(server.responses_5xx)}})},
             {"bytes_written", static_cast<std::int64_t>(server.bytes_written)}}));
  }
  if (options.cache != nullptr || options.http_workers != 0) {
    json::Value http_block =
        json::object({{"workers", static_cast<std::int64_t>(options.http_workers)}});
    if (options.cache != nullptr) {
      const http::ResponseCacheStats cache = options.cache->stats();
      http_block.set(
          "cache",
          json::object({{"epoch", static_cast<std::int64_t>(cache.epoch)},
                        {"hits", static_cast<std::int64_t>(cache.hits)},
                        {"misses", static_cast<std::int64_t>(cache.misses)},
                        {"evictions", static_cast<std::int64_t>(cache.evictions)},
                        {"not_modified", static_cast<std::int64_t>(cache.not_modified)},
                        {"entries", static_cast<std::int64_t>(cache.entries)},
                        {"bytes", static_cast<std::int64_t>(cache.bytes)},
                        {"byte_budget", static_cast<std::int64_t>(cache.byte_budget)}}));
    }
    payload.set("http", std::move(http_block));
  }
  if (options.metrics != nullptr)
    payload.set("telemetry", telemetry::render_json(*options.metrics));
  return Response::json(200, json::dump(payload));
}

Response ingest_stats_handler(const ShardRouter& router) {
  const ingest::IngestStats stats = router.aggregated_stats();
  json::Value per_shard = json::Value(json::Array{});
  for (std::size_t id = 0; id < router.shard_count(); ++id) {
    const Shard& shard = router.shard(id);
    const ingest::IngestStats s = shard.worker().stats();
    per_shard.push_back(json::object(
        {{"shard", static_cast<std::int64_t>(id)},
         {"up", shard.up()},
         {"accepted", static_cast<std::int64_t>(s.accepted)},
         {"epoch", static_cast<std::int64_t>(s.current_epoch)},
         {"queue_depth", static_cast<std::int64_t>(s.queue_depth)},
         {"live_checkins", static_cast<std::int64_t>(s.live_checkins)}}));
  }
  return Response::json(
      200,
      json::dump(json::object(
          {{"submitted", static_cast<std::int64_t>(stats.submitted)},
           {"accepted", static_cast<std::int64_t>(stats.accepted)},
           {"rejected", static_cast<std::int64_t>(stats.rejected)},
           {"invalid", static_cast<std::int64_t>(stats.invalid)},
           {"queue", json::object({{"depth", static_cast<std::int64_t>(stats.queue_depth)},
                                   {"capacity",
                                    static_cast<std::int64_t>(stats.queue_capacity)}})},
           {"epochs_published", static_cast<std::int64_t>(stats.epochs_published)},
           {"live_checkins", static_cast<std::int64_t>(stats.live_checkins)},
           {"shards", std::move(per_shard)}})));
}

Response ingest_handler(ShardRouter& router, const Request& request) {
  const auto parsed = transport::parse_ingest_csv(
      request, router.taxonomy(), [&router] { return router.allocate_guest_id(); });
  if (!parsed) return transport::bad_ingest_request(parsed.status());
  if (parsed->invalid > 0) router.note_invalid(parsed->invalid);
  const ingest::SubmitResult result = router.submit(parsed->events);
  // aggregated_stats' epoch is the max shard epoch — a small monotonic
  // number like the single-process response, not the opaque cache key.
  // Shard submits partition across queues rather than filling a suffix,
  // so the sharded route stays spool-less (PipelineOutcome.spooled = 0).
  return transport::ingest_response(*parsed, {result.accepted, result.rejected, 0},
                                    router.aggregated_stats(),
                                    router.config().worker.rebuild_interval);
}

Response checkpoint_handler(ShardRouter& router) {
  const Status status = router.checkpoint_all(std::chrono::seconds(10));
  if (!status.is_ok())
    return Response::json(503, json::dump(json::object(
                                   {{"ok", false}, {"error", status.to_string()}})));
  return Response::json(200, json::dump(json::object({{"ok", true}})));
}

}  // namespace

http::Router make_shard_api_router(ShardRouter& router, ShardApiOptions options) {
  http::Router api;
  ShardRouter* r = &router;

  api.get_cached("/", [](const Request&, const PathParams&) {
    return Response::html(200, std::string(core::handlers::viewer_html()));
  });
  api.get("/api/status", [r, options](const Request&, const PathParams&) {
    return status_handler(*r, options);
  });
  api.get("/api/shards", [r](const Request&, const PathParams&) {
    json::Value shards = json::Value(json::Array{});
    for (std::size_t id = 0; id < r->shard_count(); ++id)
      shards.push_back(shard_block(r->shard(id)));
    return Response::json(200, json::dump(json::object({{"shards", std::move(shards)}})));
  });
  api.get_cached("/api/users",
                 [r](const Request&, const PathParams&) { return users_handler(*r); });
  api.get_cached("/api/user/:id/patterns", [r](const Request&, const PathParams& params) {
    return user_patterns_handler(*r, params);
  });
  api.get_cached("/api/crowd/:window", [r](const Request&, const PathParams& params) {
    return with_merged(*r, [&](const CrowdView& view) {
      return core::handlers::crowd_handler(view, params);
    });
  });
  api.get_cached("/api/crowd/:window/map.svg", [r](const Request&, const PathParams& params) {
    return with_merged(*r, [&](const CrowdView& view) {
      return core::handlers::crowd_map_handler(view, params);
    });
  });
  api.get_cached("/api/crowd/:window/geojson", [r](const Request&, const PathParams& params) {
    return with_merged(*r, [&](const CrowdView& view) {
      return core::handlers::crowd_geojson_handler(view, params);
    });
  });
  api.get_cached("/api/groups/:window", [r](const Request&, const PathParams& params) {
    return with_merged(*r, [&](const CrowdView& view) {
      return core::handlers::groups_handler(view, params);
    });
  });
  api.get_cached("/api/flow/:from/:to", [r](const Request&, const PathParams& params) {
    return with_merged(*r, [&](const CrowdView& view) {
      return core::handlers::flow_handler(view, params, /*as_map=*/false);
    });
  });
  api.get_cached("/api/flow/:from/:to/map.svg", [r](const Request&, const PathParams& params) {
    return with_merged(*r, [&](const CrowdView& view) {
      return core::handlers::flow_handler(view, params, /*as_map=*/true);
    });
  });
  api.get_cached("/api/animation.svg", [r](const Request& request, const PathParams&) {
    return with_merged(*r, [&](const CrowdView& view) {
      return core::handlers::animation_handler(view, request);
    });
  });
  api.get_cached("/api/rhythm.svg", [r](const Request&, const PathParams&) {
    return with_merged(
        *r, [&](const CrowdView& view) { return core::handlers::rhythm_handler(view); });
  });
  api.post("/api/ingest", [r](const Request& request, const PathParams&) {
    return ingest_handler(*r, request);
  });
  api.get("/api/ingest/stats", [r](const Request&, const PathParams&) {
    return ingest_stats_handler(*r);
  });
  api.post("/api/admin/checkpoint", [r](const Request&, const PathParams&) {
    return checkpoint_handler(*r);
  });
  if (telemetry::Registry* metrics = options.metrics; metrics != nullptr) {
    api.get("/metrics", [metrics](const Request&, const PathParams&) {
      return Response::text(200, telemetry::render_prometheus(*metrics),
                            telemetry::kPrometheusContentType);
    });
  }
  return api;
}

}  // namespace crowdweb::shard
