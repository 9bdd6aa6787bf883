#include "core/api.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "core/handlers.hpp"
#include "crowd/communities.hpp"
#include "data/csv.hpp"
#include "ingest/queue.hpp"
#include "ingest/snapshot.hpp"
#include "mining/registry.hpp"
#include "predict/predictor.hpp"
#include "transport/csv_source.hpp"
#include "transport/sse.hpp"
#include "json/json.hpp"
#include "telemetry/exposition.hpp"
#include "util/civil_time.hpp"
#include "util/format.hpp"
#include "util/strings.hpp"
#include "viz/layout.hpp"
#include "viz/timeline.hpp"

namespace crowdweb::core {

namespace {

using handlers::bad_user_id;
using handlers::CrowdView;
using handlers::int_param;
using http::PathParams;
using http::Request;
using http::Response;

json::Value pattern_json(const patterns::MobilityPattern& pattern, const Platform& platform) {
  return handlers::pattern_json(pattern, platform.config().sequences.mode,
                                platform.taxonomy(), platform.experiment_dataset());
}

Response status_handler(const Platform& platform, const ApiOptions& options) {
  const data::DatasetStats full = platform.full_dataset().stats();
  const data::DatasetStats experiment = platform.experiment_dataset().stats();

  // The mining block: active miner + the serving mode, plus the resident
  // pattern-set footprint of the epoch this process is serving (the live
  // worker's published epoch when one is attached, the batch build
  // otherwise). "closed" means compact tables + placement indexes are
  // what the crowd layer reads.
  const mining::IMiningAlgorithm* miner =
      mining::find_miner(platform.config().mining.algorithm);
  const bool closed_mode = miner != nullptr && miner->closed_output() &&
                           !platform.config().mining.expand_closed;
  patterns::MobilityStats set_stats;
  bool have_stats = false;
  if (options.ingest != nullptr) {
    if (const ingest::SnapshotPtr snapshot = options.ingest->hub().current()) {
      set_stats = snapshot->mobility.stats();
      have_stats = true;
    }
  }
  if (!have_stats) {
    for (const patterns::UserMobility& entry : platform.mobility()) set_stats.add(entry);
  }
  json::Value mining_block =
      json::object({{"algorithm", platform.config().mining.algorithm},
                    {"min_support", platform.config().mining.min_support},
                    {"expand_closed", platform.config().mining.expand_closed},
                    {"max_patterns",
                     static_cast<std::int64_t>(platform.config().mining.max_patterns)},
                    {"mode", closed_mode ? "closed" : "expanded"},
                    {"pattern_set",
                     json::object({{"entries", static_cast<std::int64_t>(set_stats.entries)},
                                   {"compact_entries",
                                    static_cast<std::int64_t>(set_stats.compact_entries)},
                                   {"patterns", static_cast<std::int64_t>(set_stats.patterns)},
                                   {"placement_candidates",
                                    static_cast<std::int64_t>(set_stats.placement_candidates)},
                                   {"bytes", static_cast<std::int64_t>(set_stats.bytes)}})}});

  json::Value payload = json::object(
      {{"full",
        json::object({{"checkins", static_cast<std::int64_t>(full.checkin_count)},
                      {"users", static_cast<std::int64_t>(full.user_count)},
                      {"venues", static_cast<std::int64_t>(full.venue_count)},
                      {"mean_records_per_user", full.mean_records_per_user},
                      {"median_records_per_user", full.median_records_per_user}})},
       {"experiment",
        json::object({{"checkins", static_cast<std::int64_t>(experiment.checkin_count)},
                      {"users", static_cast<std::int64_t>(experiment.user_count)}})},
       {"windows", platform.crowd_model().window_count()},
       {"grid", json::object({{"rows", static_cast<std::int64_t>(platform.grid().rows())},
                              {"cols", static_cast<std::int64_t>(platform.grid().cols())},
                              {"cell_meters", platform.grid().cell_size_meters()}})},
       {"placements", static_cast<std::int64_t>(platform.crowd_model().total_placements())},
       {"timings_ms", json::object({{"acquisition", platform.timings().acquisition_ms},
                                    {"mining", platform.timings().mining_ms},
                                    {"crowd", platform.timings().crowd_ms}})},
       {"mining", std::move(mining_block)}});
  if (options.server_stats != nullptr && *options.server_stats) {
    const http::ServerStats stats = (*options.server_stats)();
    payload.set(
        "server",
        json::object(
            {{"requests", static_cast<std::int64_t>(stats.requests)},
             {"bad_requests", static_cast<std::int64_t>(stats.bad_requests)},
             {"connections", static_cast<std::int64_t>(stats.connections)},
             {"responses", json::object({{"2xx", static_cast<std::int64_t>(stats.responses_2xx)},
                                         {"4xx", static_cast<std::int64_t>(stats.responses_4xx)},
                                         {"5xx", static_cast<std::int64_t>(stats.responses_5xx)}})},
             {"bytes_written", static_cast<std::int64_t>(stats.bytes_written)}}));
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
  if (options.ingest != nullptr) {
    const ingest::IngestStats stats = options.ingest->stats();
    payload.set("ingest",
                json::object({{"epoch", static_cast<std::int64_t>(stats.current_epoch)},
                              {"live_checkins", static_cast<std::int64_t>(stats.live_checkins)},
                              {"queue_depth", static_cast<std::int64_t>(stats.queue_depth)}}));
  }
  if (options.metrics != nullptr)
    payload.set("telemetry", telemetry::render_json(*options.metrics));
  return Response::json(200, json::dump(payload));
}

Response users_handler(const Platform& platform) {
  json::Value users = json::Value(json::Array{});
  for (const patterns::UserMobility& mobility : platform.mobility()) {
    // served_pattern_count keeps the reported count equal to expanded
    // mode's even when the entry stores only the closed set.
    users.push_back(json::object(
        {{"id", static_cast<std::int64_t>(mobility.user)},
         {"recorded_days", static_cast<std::int64_t>(mobility.recorded_days)},
         {"patterns", static_cast<std::int64_t>(mobility.served_pattern_count())}}));
  }
  return Response::json(200, json::dump(json::object({{"users", std::move(users)}})));
}

Response user_patterns_handler(const Platform& platform, const PathParams& params) {
  const auto id = int_param(params, "id");
  if (!id || *id < 0) return bad_user_id(params);
  const patterns::UserMobility* mobility =
      platform.user_mobility(static_cast<data::UserId>(*id));
  if (mobility == nullptr) return Response::not_found_404();
  // The route's wire contract is the full frequent set; compact entries
  // expand lazily per request (the response cache absorbs repeats), so
  // the body is byte-identical to expanded mode's.
  const std::vector<patterns::MobilityPattern> expanded = patterns::expand_user_patterns(
      *mobility, platform.experiment_dataset(), platform.taxonomy(),
      {platform.config().sequences, platform.config().mining});
  json::Value list = json::Value(json::Array{});
  for (const patterns::MobilityPattern& pattern : expanded)
    list.push_back(pattern_json(pattern, platform));
  return Response::json(
      200, json::dump(json::object(
               {{"user", static_cast<std::int64_t>(mobility->user)},
                {"recorded_days", static_cast<std::int64_t>(mobility->recorded_days)},
                {"patterns", std::move(list)}})));
}

Response user_graph_handler(const Platform& platform, const PathParams& params) {
  const auto id = int_param(params, "id");
  if (!id || *id < 0) return bad_user_id(params);
  if (platform.user_mobility(static_cast<data::UserId>(*id)) == nullptr)
    return Response::not_found_404();
  const patterns::PlaceGraph graph = platform.place_graph(static_cast<data::UserId>(*id));
  viz::PlaceGraphRender render;
  render.title = crowdweb::format("User {} - visited places", *id);
  return Response::svg(200, viz::render_place_graph(graph, render));
}

Response user_timeline_handler(const Platform& platform, const PathParams& params) {
  const auto id = int_param(params, "id");
  if (!id || *id < 0) return bad_user_id(params);
  if (platform.user_mobility(static_cast<data::UserId>(*id)) == nullptr)
    return Response::not_found_404();
  const mining::UserSequences sequences =
      platform.sequences_for(static_cast<data::UserId>(*id));
  viz::TimelineOptions options;
  options.title = crowdweb::format("User {} - visit timeline", *id);
  return Response::svg(
      200, viz::render_timeline(sequences, platform.taxonomy(),
                                platform.experiment_dataset(),
                                platform.config().sequences.mode, options));
}

Response communities_handler(const Platform& platform) {
  const crowd::UserGraph graph =
      crowd::build_co_occurrence_graph(platform.crowd_model());
  const auto communities = crowd::label_propagation(graph);
  json::Value list = json::Value(json::Array{});
  for (const crowd::Community& community : communities) {
    json::Value members = json::Value(json::Array{});
    for (const data::UserId user : community.members)
      members.push_back(static_cast<std::int64_t>(user));
    list.push_back(json::object({{"size", static_cast<std::int64_t>(community.members.size())},
                                 {"members", std::move(members)}}));
  }
  return Response::json(
      200, json::dump(json::object(
               {{"graph", json::object({{"users", static_cast<std::int64_t>(graph.users.size())},
                                        {"edges", static_cast<std::int64_t>(graph.edges.size())}})},
                {"communities", std::move(list)}})));
}

/// Next-place prediction for a user: trains the pattern predictor on
/// their history and ranks their likely next place at the given time.
/// Training is per-request (a user's history is tiny), keeping the
/// platform immutable.
Response predict_handler(const Platform& platform, const Request& request,
                         const PathParams& params) {
  const auto id = int_param(params, "id");
  if (!id || *id < 0) return bad_user_id(params);
  if (platform.user_mobility(static_cast<data::UserId>(*id)) == nullptr)
    return Response::not_found_404();
  int minute = 9 * 60;
  if (const auto minute_param = request.query_param("minute")) {
    const auto parsed = parse_int(*minute_param);
    if (!parsed || *parsed < 0 || *parsed >= 24 * 60)
      return Response::bad_request_400("minute must be in [0, 1440)");
    minute = static_cast<int>(*parsed);
  }

  const mining::UserSequences history =
      platform.sequences_for(static_cast<data::UserId>(*id));
  const auto predictor = predict::make_ensemble_predictor();
  predictor->train(history);
  predict::Query query;
  query.minute = minute;
  // "Today" context: visits of the user's last recorded day before `minute`.
  std::vector<mining::Item> today;
  if (!history.empty()) {
    const auto last_day = history.day(history.day_count() - 1);
    const auto last_minutes = history.minutes_of(history.day_count() - 1);
    for (std::size_t i = 0; i < last_day.size(); ++i) {
      if (last_minutes[i] < minute) today.push_back(last_day[i]);
    }
  }
  query.today = today;
  const auto ranked = predictor->predict(query);

  json::Value predictions = json::Value(json::Array{});
  for (std::size_t i = 0; i < ranked.size() && i < 5; ++i) {
    predictions.push_back(json::object(
        {{"label", mining::label_name(ranked[i].label, platform.config().sequences.mode,
                                      platform.taxonomy(), platform.experiment_dataset())},
         {"score", ranked[i].score}}));
  }
  return Response::json(
      200, json::dump(json::object({{"user", *id},
                                    {"minute", minute},
                                    {"predictor", predictor->name()},
                                    {"predictions", std::move(predictions)}})));
}

/// The booth feature: a visitor uploads their check-in history as CSV
/// (category,lat,lon,timestamp) and gets their mined, time-annotated
/// mobility patterns back. Purely functional — the platform is not
/// mutated.
Response analyze_handler(const Platform& platform, const Request& request) {
  double min_support = 0.25;
  if (const auto support = request.query_param("support")) {
    const auto parsed = parse_double(*support);
    if (!parsed || *parsed <= 0.0 || *parsed > 1.0)
      return Response::bad_request_400("support must be in (0, 1]");
    min_support = *parsed;
  }
  std::string algorithm = platform.config().mining.algorithm;
  if (const auto requested = request.query_param("algorithm")) {
    if (const auto miner = mining::resolve_miner(*requested); !miner)
      return Response::bad_request_400(miner.status().message());
    algorithm = std::string(*requested);
  }

  const auto rows = data::parse_csv(request.body);
  if (!rows) return Response::bad_request_400(rows.status().to_string());
  if (rows->empty() || (*rows)[0] != data::CsvRow{"category", "lat", "lon", "timestamp"})
    return Response::bad_request_400(
        "expected header: category,lat,lon,timestamp");

  // Parse the visitor's records into (root label, timestamp) events.
  struct Event {
    mining::Item label;
    std::int64_t timestamp;
  };
  std::vector<Event> events;
  const data::Taxonomy& taxonomy = platform.taxonomy();
  for (std::size_t i = 1; i < rows->size(); ++i) {
    const data::CsvRow& row = (*rows)[i];
    if (row.size() != 4)
      return Response::bad_request_400(
          crowdweb::format("row {} has {} fields, expected 4", i + 1, row.size()));
    const auto category = taxonomy.find(row[0]);
    const auto lat = parse_double(row[1]);
    const auto lon = parse_double(row[2]);
    const auto timestamp = parse_timestamp(row[3]);
    if (!category)
      return Response::bad_request_400(
          crowdweb::format("row {}: unknown category '{}'", i + 1, row[0]));
    if (!lat || !lon || !geo::is_valid({*lat, *lon}))
      return Response::bad_request_400(crowdweb::format("row {}: bad position", i + 1));
    if (!timestamp)
      return Response::bad_request_400(
          crowdweb::format("row {}: bad timestamp '{}'", i + 1, row[3]));
    events.push_back({taxonomy.root_of(*category), *timestamp});
  }
  if (events.empty()) return Response::bad_request_400("no check-in rows");
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.timestamp < b.timestamp; });

  // Build per-day sequences (same abstraction pipeline as phase 2).
  mining::UserSequences sequences;
  std::vector<mining::Item> day_items;
  std::vector<int> day_minutes;
  std::int64_t current_day = 0;
  bool have_day = false;
  const auto flush_day = [&] {
    if (have_day) sequences.append_day(day_items, day_minutes);
    day_items.clear();
    day_minutes.clear();
  };
  for (const Event& event : events) {
    const std::int64_t day = day_index(event.timestamp);
    if (!have_day || day != current_day) {
      flush_day();
      current_day = day;
      have_day = true;
    }
    if (!day_items.empty() && day_items.back() == event.label)
      continue;  // collapse repeats
    day_items.push_back(event.label);
    const CivilTime civil = to_civil(event.timestamp);
    day_minutes.push_back(civil.hour * 60 + civil.minute);
  }
  flush_day();

  mining::MiningOptions mining_options = platform.config().mining;
  mining_options.min_support = min_support;
  mining_options.algorithm = algorithm;
  const mining::MiningResult mined = mining::mine_with(sequences.columns(), mining_options);

  json::Value list = json::Value(json::Array{});
  for (const mining::Pattern& pattern : mined.patterns) {
    const patterns::MobilityPattern annotated =
        patterns::annotate_pattern(pattern, sequences);
    list.push_back(pattern_json(annotated, platform));
  }
  return Response::json(
      200, json::dump(json::object(
               {{"records", static_cast<std::int64_t>(events.size())},
                {"recorded_days", static_cast<std::int64_t>(sequences.day_count())},
                {"min_support", min_support},
                {"algorithm", algorithm},
                {"truncated", mined.stats.truncated},
                {"closed", mined.closed},
                {"patterns", std::move(list)}})));
}

/// Runs `fn` against the crowd state this route should serve: the batch
/// platform's phase-3 output in static mode, or — when an IngestWorker
/// is attached — the latest published epoch. The snapshot shared_ptr
/// lives on this frame for the whole call, pinning the epoch until the
/// response is built even if the worker publishes a newer one meanwhile.
template <typename Fn>
Response with_crowd_view(const Platform& platform, ingest::IngestWorker* worker,
                         Fn&& fn) {
  if (worker == nullptr) {
    return fn(CrowdView{platform.experiment_dataset(), platform.grid(),
                        platform.crowd_model(), platform.config().sequences.mode,
                        platform.taxonomy(), /*degraded=*/false,
                        /*missing_shards=*/{}});
  }
  const ingest::SnapshotPtr snapshot = worker->hub().current();
  if (snapshot == nullptr)
    return Response::text(503, "no epoch published yet; retry shortly\n");
  return fn(CrowdView{snapshot->dataset, snapshot->grid, snapshot->crowd,
                      platform.config().sequences.mode, worker->taxonomy(),
                      /*degraded=*/false, /*missing_shards=*/{}});
}

}  // namespace

http::Router make_api_router(const Platform& platform, ApiOptions options) {
  http::Router router;
  const Platform* p = &platform;
  ingest::IngestWorker* w = options.ingest;

  router.get_cached("/", [](const Request&, const PathParams&) {
    return Response::html(200, std::string(handlers::viewer_html()));
  });
  router.get("/api/status", [p, options](const Request&, const PathParams&) {
    return status_handler(*p, options);
  });
  router.get_cached("/api/users",
             [p](const Request&, const PathParams&) { return users_handler(*p); });
  router.get_cached("/api/user/:id/patterns", [p](const Request&, const PathParams& params) {
    return user_patterns_handler(*p, params);
  });
  router.get_cached("/api/user/:id/graph.svg", [p](const Request&, const PathParams& params) {
    return user_graph_handler(*p, params);
  });
  router.get_cached("/api/user/:id/timeline.svg", [p](const Request&, const PathParams& params) {
    return user_timeline_handler(*p, params);
  });
  router.get_cached("/api/crowd/:window", [p, w](const Request&, const PathParams& params) {
    return with_crowd_view(*p, w, [&](const CrowdView& view) {
      return handlers::crowd_handler(view, params);
    });
  });
  router.get_cached("/api/crowd/:window/map.svg", [p, w](const Request&, const PathParams& params) {
    return with_crowd_view(*p, w, [&](const CrowdView& view) {
      return handlers::crowd_map_handler(view, params);
    });
  });
  router.get_cached("/api/crowd/:window/geojson", [p, w](const Request&, const PathParams& params) {
    return with_crowd_view(*p, w, [&](const CrowdView& view) {
      return handlers::crowd_geojson_handler(view, params);
    });
  });
  router.get_cached("/api/groups/:window", [p, w](const Request&, const PathParams& params) {
    return with_crowd_view(*p, w, [&](const CrowdView& view) {
      return handlers::groups_handler(view, params);
    });
  });
  router.get_cached("/api/flow/:from/:to", [p, w](const Request&, const PathParams& params) {
    return with_crowd_view(*p, w, [&](const CrowdView& view) {
      return handlers::flow_handler(view, params, /*as_map=*/false);
    });
  });
  router.get_cached("/api/flow/:from/:to/map.svg", [p, w](const Request&, const PathParams& params) {
    return with_crowd_view(*p, w, [&](const CrowdView& view) {
      return handlers::flow_handler(view, params, /*as_map=*/true);
    });
  });
  router.get_cached("/api/animation.svg", [p, w](const Request& request, const PathParams&) {
    return with_crowd_view(*p, w, [&](const CrowdView& view) {
      return handlers::animation_handler(view, request);
    });
  });
  router.get_cached("/api/communities", [p](const Request&, const PathParams&) {
    return communities_handler(*p);
  });
  router.post("/api/analyze", [p](const Request& request, const PathParams&) {
    return analyze_handler(*p, request);
  });
  router.get_cached("/api/rhythm.svg", [p, w](const Request&, const PathParams&) {
    return with_crowd_view(*p, w, [&](const CrowdView& view) {
      return handlers::rhythm_handler(view);
    });
  });
  router.get_cached("/api/predict/:id", [p](const Request& request, const PathParams& params) {
    return predict_handler(*p, request, params);
  });
  if (w != nullptr) {
    if (options.pipeline != nullptr) {
      // Spool-backed route: the shared pipeline absorbs rejected
      // suffixes onto disk, and the route's accounting lands on the
      // crowdweb_transport_* families alongside the binary listeners.
      transport::HttpCsvSource::Config source_config;
      source_config.taxonomy = &w->taxonomy();
      source_config.allocate_guest = [w] { return w->allocate_guest_id(); };
      source_config.stats = [w] { return w->stats(); };
      source_config.rebuild_interval = w->config().rebuild_interval;
      auto source = std::make_shared<transport::HttpCsvSource>(
          *options.pipeline, std::move(source_config));
      (void)source->start();
      router.post("/api/ingest", [source](const Request& request, const PathParams&) {
        return source->handle(request);
      });
    } else {
      router.post("/api/ingest", [w](const Request& request, const PathParams&) {
        return handlers::ingest_handler(*w, request);
      });
    }
    if (options.stream) {
      // The SSE subscribe routes. They only open the stream (the server
      // subscribes the connection when it flushes the response); events
      // arrive once attach_stream_publisher() hooks the snapshot hub.
      router.get("/api/stream/epochs", [w](const Request&, const PathParams&) {
        std::string initial = "retry: 2000\n\n";
        initial += transport::sse_comment("subscribed epochs");
        if (const ingest::SnapshotPtr snapshot = w->hub().current()) {
          initial += transport::sse_event(
              "epoch", transport::EpochStreamPublisher::epoch_event_json(*snapshot));
        }
        return transport::sse_response(std::string(transport::kEpochChannel),
                                       std::move(initial));
      });
      router.get("/api/stream/crowd/:window",
                 [p, w](const Request&, const PathParams& params) {
        return with_crowd_view(*p, w, [&](const CrowdView& view) {
          const auto window = int_param(params, "window");
          if (!window || !handlers::valid_window(view, *window))
            return handlers::bad_window(params, "window", view.crowd.window_count());
          std::string initial = "retry: 2000\n\n";
          initial += transport::sse_comment("subscribed crowd window");
          // Seed the stream with the current state so a consumer needs
          // no separate GET before the next epoch arrives.
          http::Response current = handlers::crowd_handler(view, params);
          if (current.status == 200)
            initial += transport::sse_event("crowd", current.body);
          return transport::sse_response(
              transport::crowd_channel(static_cast<int>(*window)), std::move(initial));
        });
      });
    }
    router.get("/api/ingest/stats", [w](const Request&, const PathParams&) {
      return handlers::ingest_stats_handler(*w);
    });
    router.get("/api/store/stats", [w](const Request&, const PathParams&) {
      return handlers::store_stats_handler(*w);
    });
    router.post("/api/admin/checkpoint", [w](const Request&, const PathParams&) {
      return handlers::checkpoint_handler(*w);
    });
  }
  if (telemetry::Registry* metrics = options.metrics; metrics != nullptr) {
    router.get("/metrics", [metrics](const Request&, const PathParams&) {
      return Response::text(200, telemetry::render_prometheus(*metrics),
                            telemetry::kPrometheusContentType);
    });
  }
  return router;
}

std::unique_ptr<transport::EpochStreamPublisher> attach_stream_publisher(
    http::Server& server, const Platform& platform, ingest::IngestWorker& worker,
    http::ResponseCache* cache) {
  const Platform* p = &platform;
  ingest::IngestWorker* w = &worker;
  transport::EpochStreamOptions options;
  options.cache = cache;
  return std::make_unique<transport::EpochStreamPublisher>(
      server, worker.hub(),
      [p, w](const ingest::PlatformSnapshot& snapshot, int window) {
        // Same render as GET /api/crowd/:window over the same snapshot,
        // so the streamed bytes match what a poller would fetch.
        const CrowdView view{snapshot.dataset, snapshot.grid, snapshot.crowd,
                             p->config().sequences.mode, w->taxonomy(),
                             /*degraded=*/false, /*missing_shards=*/{}};
        PathParams params;
        params.emplace("window", std::to_string(window));
        return handlers::crowd_handler(view, params);
      },
      options);
}

std::unique_ptr<ingest::IngestWorker> make_ingest_worker(const Platform& platform,
                                                         ingest::IngestWorkerConfig config) {
  ingest::IngestPipelineConfig pipeline;
  pipeline.grid_cell_meters = platform.config().grid_cell_meters;
  pipeline.crowd = platform.config().crowd;
  pipeline.sequences = platform.config().sequences;
  pipeline.mining = platform.config().mining;
  pipeline.mining_threads = platform.config().mining_threads;
  // Inherit the platform's registry so one scrape covers the batch build
  // and the live worker, unless the caller picked a registry explicitly.
  if (config.metrics == nullptr) config.metrics = platform.config().metrics;
  // Same for durability: the platform-level store config applies unless
  // the worker config already names a directory.
  if (config.store.dir.empty()) config.store = platform.config().store;
  return std::make_unique<ingest::IngestWorker>(platform.experiment_dataset(),
                                                platform.mobility(), platform.taxonomy(),
                                                pipeline, config);
}

}  // namespace crowdweb::core
