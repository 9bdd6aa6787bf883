// The CrowdWeb HTTP API — every interaction of the demo UI as a route.
//
//   GET /                           embedded single-page viewer
//   GET /api/status                 corpus + pipeline summary
//   GET /metrics                    Prometheus text exposition (with
//                                   ApiOptions::metrics attached)
//   GET /api/users                  users with pattern counts
//   GET /api/user/:id/patterns      a user's mined mobility patterns
//   GET /api/user/:id/graph.svg     the user's place graph (iMAP view)
//   GET /api/user/:id/timeline.svg  the user's day-by-day visit timeline
//   GET /api/crowd/:window          crowd distribution of a time window
//   GET /api/crowd/:window/map.svg  the smart-city map (Figures 3/4)
//   GET /api/crowd/:window/geojson  the distribution as GeoJSON
//   GET /api/groups/:window         user groups per (cell, label)
//   GET /api/flow/:from/:to         movements between two windows
//   GET /api/flow/:from/:to/map.svg flow arrows over the city
//   GET /api/animation.svg          animated crowd movement (full day);
//                                   ?seconds=S scales playback speed
//   GET /api/communities            co-occurrence communities of the crowd
//   POST /api/analyze               mine an uploaded check-in history (the
//                                   demo's "share your check-ins" booth
//                                   feature); body = CSV with header
//                                   category,lat,lon,timestamp and
//                                   ?support=S sets min_support
//
// With an IngestWorker attached (ApiOptions::ingest) the API turns live:
//
//   POST /api/ingest                submit check-ins to the live corpus;
//                                   body = CSV with header
//                                   [user,]category,lat,lon,timestamp;
//                                   429 when the queue rejects everything
//   GET /api/ingest/stats           queue depth, accept/reject/invalid
//                                   counts, epochs, rebuild latency
//
// and with ApiOptions::stream the push routes (SSE; transport/sse.hpp):
//
//   GET /api/stream/epochs          one "epoch" event per published epoch
//   GET /api/stream/crowd/:window   that window's crowd distribution,
//                                   re-sent on every epoch
//
// and every crowd-facing route (crowd/groups/flow/animation/rhythm)
// reads the worker's latest published snapshot instead of the batch
// platform: handlers copy the hub's shared_ptr once per request and
// keep that epoch alive until the response is built.
//
// The router holds a pointer to the Platform, which must outlive any
// server using the router. Platform state is immutable after
// construction and snapshots are immutable once published, so handlers
// are safe to run concurrently on the server's worker pool without
// locks. Routes whose responses are a pure function of (target, epoch)
// are registered with Router::get_cached so a ResponseCache may serve
// them (see http/cache.hpp); /api/status, /metrics, and the ingest
// routes are deliberately uncached.
#pragma once

#include <functional>
#include <memory>

#include "core/platform.hpp"
#include "http/router.hpp"
#include "http/server.hpp"
#include "ingest/worker.hpp"
#include "telemetry/metrics.hpp"
#include "transport/pipeline.hpp"
#include "transport/sse.hpp"

namespace crowdweb::core {

struct ApiOptions {
  /// Live mode: serve crowd routes from this worker's snapshot hub and
  /// register the /api/ingest* routes. The worker must outlive the
  /// router. Null = static batch platform only.
  ingest::IngestWorker* ingest = nullptr;
  /// Late-bound source of http::ServerStats for /api/status. The router
  /// is built before the server that owns it exists, so the example
  /// fills the inner function in after constructing the Server.
  std::shared_ptr<std::function<http::ServerStats()>> server_stats;
  /// Registers `GET /metrics` (Prometheus text exposition) over this
  /// registry and mirrors it as a "telemetry" block in /api/status. The
  /// registry must outlive the router. Null disables both (no /metrics
  /// route). Share the same registry with ServerConfig::metrics,
  /// IngestWorkerConfig::metrics, and PlatformConfig::metrics so one
  /// scrape covers every subsystem.
  telemetry::Registry* metrics = nullptr;
  /// The response cache the server serves cacheable routes from (the
  /// same object as ServerConfig::cache). Surfaces hit/miss/byte
  /// counters and the current epoch as an "http.cache" block in
  /// /api/status. Must outlive the router. Null = no cache block.
  const http::ResponseCache* cache = nullptr;
  /// Resolved ServerConfig::worker_threads, reported as "http.workers"
  /// in /api/status (0 = inline handlers on the event loop).
  int http_workers = 0;
  /// Transport pipeline for POST /api/ingest (live mode only). When set,
  /// the route is served through a transport::HttpCsvSource, so bursts
  /// the queue rejects spill to the pipeline's disk spool instead of
  /// bouncing back as 429s, and the route shares the
  /// crowdweb_transport_* accounting with the binary listeners. Must
  /// outlive the router. Null = direct worker submit (no spool).
  transport::IngestPipeline* pipeline = nullptr;
  /// Registers the SSE routes GET /api/stream/epochs and
  /// GET /api/stream/crowd/:window (live mode only). The routes only
  /// subscribe connections; pair with attach_stream_publisher() once the
  /// Server exists so published epochs actually fan out.
  bool stream = false;
};

/// Builds the full API router over a platform.
[[nodiscard]] http::Router make_api_router(const Platform& platform,
                                           ApiOptions options = {});

/// Hooks the worker's snapshot hub and fans one "epoch" event (plus a
/// "crowd" event per subscribed window channel) into the server's SSE
/// streams on every publication. Call after constructing the Server
/// whose router was built with ApiOptions::stream; destroy the returned
/// publisher before the server. With `cache` (the same object as
/// ServerConfig::cache), crowd payloads are rendered through it, so the
/// SSE event and the GET /api/crowd/:window body are one render —
/// register the cache's set_epoch hook before calling this.
[[nodiscard]] std::unique_ptr<transport::EpochStreamPublisher> attach_stream_publisher(
    http::Server& server, const Platform& platform, ingest::IngestWorker& worker,
    http::ResponseCache* cache = nullptr);

/// Builds an ingestion worker seeded with the platform's experiment
/// corpus and mined mobility (copied), inheriting its phase-2/3
/// configuration. The worker keeps a reference to the platform's
/// taxonomy, so the platform must outlive the worker.
[[nodiscard]] std::unique_ptr<ingest::IngestWorker> make_ingest_worker(
    const Platform& platform, ingest::IngestWorkerConfig config = {});

}  // namespace crowdweb::core
