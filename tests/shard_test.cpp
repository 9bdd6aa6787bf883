// Sharding suite: deterministic user→shard assignment, scatter-gather
// equivalence (an N-shard deployment must answer crowd/flow/pattern
// queries exactly like a single-process worker over the same corpus,
// across interleaved ingest and a kill-and-restart of the store), and
// the degraded-read contract when a shard is down.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <initializer_list>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/api.hpp"
#include "core/platform.hpp"
#include "http/cache.hpp"
#include "http/client.hpp"
#include "http/router.hpp"
#include "http/server.hpp"
#include "ingest/worker.hpp"
#include "json/json.hpp"
#include "shard/api.hpp"
#include "shard/hash.hpp"
#include "shard/router.hpp"
#include "telemetry/exposition.hpp"
#include "telemetry/metrics.hpp"
#include "util/format.hpp"
#include "util/log.hpp"

namespace crowdweb {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

class QuietLogs : public ::testing::Environment {
 public:
  void SetUp() override { set_log_level(LogLevel::kError); }
};
const auto* const kQuietLogs =
    ::testing::AddGlobalTestEnvironment(new QuietLogs);  // NOLINT(cert-err58-cpp)

class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_(fs::temp_directory_path() / ("crowdweb_shard_test_" + tag)) {
    fs::remove_all(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

/// One platform for every test — phases 1-3 run once per binary.
const core::Platform& test_platform() {
  static const core::Platform* platform = [] {
    core::PlatformConfig config;
    config.small_corpus = true;
    config.min_active_days = 20;
    auto result = core::Platform::create(config);
    if (!result.is_ok()) std::abort();
    return new core::Platform(std::move(result).value());
  }();
  return *platform;
}

/// The pipeline every shard runs — and the single-worker baseline must
/// run the *same* one (grid pinned to the full corpus bounds) for
/// byte-level comparisons to be meaningful.
ingest::IngestPipelineConfig pinned_pipeline() {
  const core::Platform& platform = test_platform();
  ingest::IngestPipelineConfig pipeline;
  pipeline.grid_cell_meters = platform.config().grid_cell_meters;
  pipeline.crowd = platform.config().crowd;
  pipeline.sequences = platform.config().sequences;
  pipeline.mining = platform.config().mining;
  pipeline.mining_threads = 1;
  pipeline.fixed_grid_bounds = platform.experiment_dataset().bounds();
  return pipeline;
}

ingest::IngestWorkerConfig worker_config() {
  ingest::IngestWorkerConfig config;
  config.rebuild_interval = 20ms;
  return config;
}

shard::ShardRouterConfig router_config(std::size_t shards) {
  shard::ShardRouterConfig config;
  config.shard_count = shards;
  config.worker = worker_config();
  return config;
}

/// Live traffic at *existing* venues (position + category of a venue
/// already in the corpus), so every shard and the baseline resolve the
/// event to the same venue id and no shard-local venues are minted —
/// the precondition for exact N-vs-1 equivalence. Users alternate
/// between corpus users and fresh ids so re-mining and new-user paths
/// are both exercised.
std::vector<ingest::IngestEvent> venue_traffic(std::size_t count, std::size_t start = 0) {
  const data::Dataset& dataset = test_platform().experiment_dataset();
  const auto venues = dataset.venues();
  const auto users = dataset.users();
  std::vector<ingest::IngestEvent> events;
  events.reserve(count);
  for (std::size_t i = start; i < start + count; ++i) {
    const data::Venue& venue = venues[(i * 7) % venues.size()];
    ingest::IngestEvent event;
    event.user = (i % 3 == 0) ? static_cast<data::UserId>(50'000 + i % 5)
                              : users[(i * 13) % users.size()];
    event.category = venue.category;
    event.position = venue.position;
    event.timestamp = static_cast<std::int64_t>(1'334'000'000 + i * 300);
    events.push_back(event);
  }
  return events;
}

void feed_and_settle(ingest::IngestWorker& worker,
                     std::span<const ingest::IngestEvent> events,
                     std::uint64_t expected_live) {
  ASSERT_EQ(worker.submit(events).accepted, events.size());
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (std::chrono::steady_clock::now() < deadline) {
    const ingest::SnapshotPtr snapshot = worker.hub().current();
    if (snapshot != nullptr && snapshot->live_checkins >= expected_live) return;
    std::this_thread::sleep_for(5ms);
  }
  FAIL() << "live corpus never reached " << expected_live << " check-ins";
}

void feed_and_settle(shard::ShardRouter& router,
                     std::span<const ingest::IngestEvent> events,
                     std::size_t expected_live) {
  ASSERT_EQ(router.submit(events).accepted, events.size());
  ASSERT_TRUE(router.wait_for_live(expected_live, 10s))
      << "sharded live corpus never reached " << expected_live << " check-ins";
}

http::Request get_request(std::string path) {
  http::Request request;
  request.method = "GET";
  request.path = std::move(path);
  return request;
}

std::string body_of(const http::Router& router, const std::string& path) {
  const http::Response response = router.dispatch(get_request(path));
  EXPECT_EQ(response.status, 200) << path << ": " << response.body;
  return response.body;
}

void expect_crowd_eq(const crowd::CrowdModel& a, const crowd::CrowdModel& b) {
  ASSERT_EQ(a.window_count(), b.window_count());
  ASSERT_EQ(a.total_placements(), b.total_placements());
  for (int w = 0; w < a.window_count(); ++w) {
    const auto pa = a.placements(w);
    const auto pb = b.placements(w);
    ASSERT_EQ(pa.size(), pb.size()) << "window " << w;
    for (std::size_t i = 0; i < pa.size(); ++i) {
      ASSERT_EQ(pa[i].user, pb[i].user) << "window " << w << " slot " << i;
      ASSERT_EQ(pa[i].label, pb[i].label);
      ASSERT_EQ(pa[i].venue, pb[i].venue);
      ASSERT_EQ(pa[i].cell, pb[i].cell);
      ASSERT_EQ(pa[i].pattern_support, pb[i].pattern_support);
    }
  }
}

/// Merged per-shard mobility must equal the baseline's table: same
/// users in the same order, same mined patterns.
void expect_merged_mobility_eq(const shard::MergedView& view,
                               const patterns::MobilityTable& reference) {
  std::vector<const patterns::UserMobility*> merged;
  {
    std::vector<const patterns::MobilityTable*> parts;
    for (const ingest::SnapshotPtr& pin : view.pins)
      if (pin != nullptr) parts.push_back(&pin->mobility);
    std::vector<std::size_t> cursor(parts.size(), 0);
    while (true) {
      std::size_t pick = parts.size();
      for (std::size_t i = 0; i < parts.size(); ++i) {
        if (cursor[i] >= parts[i]->size()) continue;
        if (pick == parts.size() ||
            (*parts[i])[cursor[i]].user < (*parts[pick])[cursor[pick]].user)
          pick = i;
      }
      if (pick == parts.size()) break;
      merged.push_back(&(*parts[pick])[cursor[pick]++]);
    }
  }
  ASSERT_EQ(merged.size(), reference.size());
  std::size_t i = 0;
  for (const patterns::UserMobility& expected : reference) {
    const patterns::UserMobility& actual = *merged[i++];
    ASSERT_EQ(actual.user, expected.user);
    ASSERT_EQ(actual.recorded_days, expected.recorded_days);
    ASSERT_EQ(actual.patterns.size(), expected.patterns.size()) << "user " << actual.user;
  }
}

double metric_value(const std::string& text, const std::string& name) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line))
    if (line.rfind(name + " ", 0) == 0) return std::stod(line.substr(name.size() + 1));
  return -1.0;
}

// ------------------------------------------------------------ hashing

TEST(ShardHash, PinnedSplitmix64Values) {
  // These constants pin the documented splitmix64 assignment. If this
  // test fails, the hash function changed — which silently reassigns
  // every user to a different shard and corrupts recovered deployments.
  EXPECT_EQ(shard::stable_hash64(0), 0xe220a8397b1dcdafull);
  EXPECT_EQ(shard::stable_hash64(1), 0x910a2dec89025cc1ull);
  EXPECT_EQ(shard::stable_hash64(2), 0x975835de1c9756ceull);
  EXPECT_EQ(shard::stable_hash64(42), 0xbdd732262feb6e95ull);
  EXPECT_EQ(shard::stable_hash64(2'999'999'999ull), 0xf92bc4e74dded745ull);
}

TEST(ShardHash, PinnedAssignments) {
  EXPECT_EQ(shard::shard_of_user(0, 4), 3u);
  EXPECT_EQ(shard::shard_of_user(1, 4), 1u);
  EXPECT_EQ(shard::shard_of_user(2, 4), 2u);
  EXPECT_EQ(shard::shard_of_user(3, 4), 1u);
  EXPECT_EQ(shard::shard_of_user(1234, 4), 3u);
  EXPECT_EQ(shard::shard_of_user(5000, 8), 2u);
  // Degenerate layouts: everything on shard 0.
  EXPECT_EQ(shard::shard_of_user(1234, 1), 0u);
  EXPECT_EQ(shard::shard_of_user(1234, 0), 0u);
}

TEST(ShardHash, EpochVectorMixing) {
  const std::vector<std::uint64_t> a{3, 5, 2};
  const std::vector<std::uint64_t> b{5, 3, 2};  // permutation
  const std::vector<std::uint64_t> c{3, 5, 3};  // one shard advanced
  EXPECT_NE(shard::mix_epoch_vector(a), shard::mix_epoch_vector(b));
  EXPECT_NE(shard::mix_epoch_vector(a), shard::mix_epoch_vector(c));
  EXPECT_EQ(shard::mix_epoch_vector(a), shard::mix_epoch_vector(a));
}

// ------------------------------------------------------ layout / routing

TEST(ShardRouter, HashLayoutPartitionsAllUsers) {
  auto router = shard::ShardRouter::create(test_platform(), router_config(4));
  ASSERT_TRUE(router.is_ok()) << router.status().to_string();
  const data::Dataset& experiment = test_platform().experiment_dataset();
  std::size_t seeded_users = 0;
  std::size_t seeded_checkins = 0;
  ASSERT_TRUE((*router)->start().is_ok());
  for (std::size_t id = 0; id < (*router)->shard_count(); ++id) {
    const ingest::SnapshotPtr snapshot = (*router)->shard(id).snapshot();
    ASSERT_NE(snapshot, nullptr);
    seeded_users += snapshot->dataset.user_count();
    seeded_checkins += snapshot->dataset.checkin_count();
    for (const data::UserId user : snapshot->dataset.users())
      EXPECT_EQ(shard::shard_of_user(user, 4), id) << "user " << user;
  }
  EXPECT_EQ(seeded_users, experiment.user_count());
  EXPECT_EQ(seeded_checkins, experiment.checkin_count());
  (*router)->stop();
}

TEST(ShardRouter, RegionRoutingFallsBackToHash) {
  shard::ShardRouterConfig config = router_config(2);
  config.regions = {{"south", {40.0, 40.5, -75.0, -73.0}},
                    {"north", {40.5, 41.0, -75.0, -73.0}}};
  auto router = shard::ShardRouter::create(test_platform(), std::move(config));
  ASSERT_TRUE(router.is_ok()) << router.status().to_string();
  ingest::IngestEvent south;
  south.user = 7;
  south.position = {40.2, -74.0};
  ingest::IngestEvent north = south;
  north.position = {40.8, -74.0};
  ingest::IngestEvent outside = south;
  outside.position = {10.0, 10.0};
  EXPECT_EQ((*router)->owner_of(south), 0u);
  EXPECT_EQ((*router)->owner_of(north), 1u);
  EXPECT_EQ((*router)->owner_of(outside), shard::shard_of_user(7, 2));
}

// ------------------------------------------------- N-vs-1 equivalence

/// The heart of the PR: a 4-shard deployment and a single worker fed
/// the same interleaved live stream must be indistinguishable — same
/// merged crowd model, same mobility, and byte-identical JSON/SVG on
/// every scatter-gather route.
TEST(ShardEquivalence, FourShardsMatchSingleWorkerAcrossInterleavedIngest) {
  const core::Platform& platform = test_platform();

  auto router_result = shard::ShardRouter::create(platform, router_config(4));
  ASSERT_TRUE(router_result.is_ok()) << router_result.status().to_string();
  shard::ShardRouter& router = **router_result;
  ASSERT_TRUE(router.start().is_ok());

  ingest::IngestWorker single(platform.experiment_dataset(), platform.mobility(),
                              platform.taxonomy(), pinned_pipeline(), worker_config());
  ASSERT_TRUE(single.start().is_ok());

  core::ApiOptions single_options;
  single_options.ingest = &single;
  const http::Router single_api = core::make_api_router(platform, single_options);
  const http::Router shard_api = shard::make_shard_api_router(router);

  // Seed state (epoch 1 everywhere): the batch-backed routes must
  // already agree, including /api/users (live tables == batch mining).
  EXPECT_EQ(body_of(shard_api, "/api/users"), body_of(single_api, "/api/users"));
  const data::UserId probe = platform.experiment_dataset().users()[0];
  EXPECT_EQ(body_of(shard_api, crowdweb::format("/api/user/{}/patterns", probe)),
            body_of(single_api, crowdweb::format("/api/user/{}/patterns", probe)));

  // Interleave three live chunks through both deployments.
  std::size_t live = 0;
  for (const std::size_t chunk : {40u, 25u, 35u}) {
    const auto events = venue_traffic(chunk, live);
    feed_and_settle(router, events, live + chunk);
    feed_and_settle(single, events, live + chunk);
    live += chunk;
  }

  const ingest::SnapshotPtr baseline = single.hub().current();
  ASSERT_NE(baseline, nullptr);
  const shard::MergedPtr merged = router.merged();
  ASSERT_FALSE(merged->degraded);
  ASSERT_TRUE(merged->crowd.has_value());
  EXPECT_EQ(merged->live_checkins, baseline->live_checkins);
  expect_crowd_eq(*merged->crowd, baseline->crowd);
  expect_merged_mobility_eq(*merged, baseline->mobility);

  // Byte-identical wire responses on every crowd-facing route.
  const int windows = baseline->crowd.window_count();
  ASSERT_GT(windows, 1);
  const int w = windows / 2;
  for (const std::string& path :
       {crowdweb::format("/api/crowd/{}", w),
        crowdweb::format("/api/crowd/{}/geojson", w),
        crowdweb::format("/api/crowd/{}/map.svg", w),
        crowdweb::format("/api/groups/{}", w),
        crowdweb::format("/api/flow/{}/{}", w - 1, w),
        crowdweb::format("/api/flow/{}/{}/map.svg", w - 1, w),
        std::string("/api/rhythm.svg")}) {
    EXPECT_EQ(body_of(shard_api, path), body_of(single_api, path)) << path;
  }

  single.stop();
  router.stop();
}

TEST(ShardEquivalence, SurvivesKillAndRestartOfStore) {
  const core::Platform& platform = test_platform();
  ScratchDir dir("restart");

  shard::ShardRouterConfig config = router_config(3);
  config.worker.store.dir = dir.str();

  const auto chunk1 = venue_traffic(30);
  const auto chunk2 = venue_traffic(30, 30);

  {
    auto before = shard::ShardRouter::create(platform, config);
    ASSERT_TRUE(before.is_ok()) << before.status().to_string();
    ASSERT_TRUE((*before)->start().is_ok());
    feed_and_settle(**before, chunk1, chunk1.size());
    (*before)->stop();  // hard stop: all shards go down together
  }

  // Restart over the same store root: every shard recovers its WAL.
  auto after = shard::ShardRouter::create(platform, config);
  ASSERT_TRUE(after.is_ok()) << after.status().to_string();
  ASSERT_TRUE((*after)->start().is_ok());
  ASSERT_TRUE((*after)->wait_for_live(chunk1.size(), 10s));
  feed_and_settle(**after, chunk2, chunk1.size() + chunk2.size());

  // Baseline: one worker, no crash, same stream.
  ingest::IngestWorker single(platform.experiment_dataset(), platform.mobility(),
                              platform.taxonomy(), pinned_pipeline(), worker_config());
  ASSERT_TRUE(single.start().is_ok());
  feed_and_settle(single, chunk1, chunk1.size());
  feed_and_settle(single, chunk2, chunk1.size() + chunk2.size());

  const ingest::SnapshotPtr baseline = single.hub().current();
  const shard::MergedPtr merged = (*after)->merged();
  ASSERT_TRUE(merged->crowd.has_value());
  expect_crowd_eq(*merged->crowd, baseline->crowd);
  expect_merged_mobility_eq(*merged, baseline->mobility);

  single.stop();
  (*after)->stop();
}

// ------------------------------------------------------ degraded reads

TEST(ShardDegraded, DownShardYields200WithMarkerAndCounter) {
  telemetry::Registry metrics;
  shard::ShardRouterConfig config = router_config(4);
  config.metrics = &metrics;
  config.disabled_shards = {2};

  auto router_result = shard::ShardRouter::create(test_platform(), std::move(config));
  ASSERT_TRUE(router_result.is_ok()) << router_result.status().to_string();
  shard::ShardRouter& router = **router_result;
  ASSERT_TRUE(router.start().is_ok());
  EXPECT_EQ(router.up_count(), 3u);

  shard::ShardApiOptions options;
  options.metrics = &metrics;
  const http::Router api = shard::make_shard_api_router(router, options);

  const shard::MergedPtr merged = router.merged();
  ASSERT_TRUE(merged->degraded);
  ASSERT_EQ(merged->missing, std::vector<std::size_t>{2});
  const int w = merged->crowd->window_count() / 2;

  // Crowd reads answer 200 with an explicit marker, not a 500.
  const http::Response crowd = api.dispatch(get_request(crowdweb::format("/api/crowd/{}", w)));
  EXPECT_EQ(crowd.status, 200);
  EXPECT_NE(crowd.body.find("\"degraded\":true"), std::string::npos);
  EXPECT_NE(crowd.body.find("\"missing_shards\":[2]"), std::string::npos);
  const http::Response users = api.dispatch(get_request("/api/users"));
  EXPECT_EQ(users.status, 200);
  EXPECT_NE(users.body.find("\"degraded\":true"), std::string::npos);

  // Status reports the hole: epoch 0 in the vector, shard marked down.
  const auto status = json::parse(api.dispatch(get_request("/api/status")).body);
  ASSERT_TRUE(status.is_ok());
  EXPECT_TRUE(status->find("degraded")->as_bool());
  EXPECT_EQ(status->find("epoch_vector")->as_array()[2].as_int(), 0);
  EXPECT_FALSE(status->find("shards")->as_array()[2].find("up")->as_bool());
  EXPECT_TRUE(status->find("shards")->as_array()[0].find("up")->as_bool());
  EXPECT_GT(status->find("shards")->as_array()[0].find("corpus")->find("checkins")->as_int(),
            0);

  // Writes routed to the dead shard are refused, not dropped.
  std::vector<ingest::IngestEvent> doomed;
  for (data::UserId user = 0; doomed.empty(); ++user) {
    if (shard::shard_of_user(user, 4) == 2) {
      ingest::IngestEvent event;
      event.user = user;
      event.category = 1;
      event.position = test_platform().experiment_dataset().venues()[0].position;
      event.timestamp = 1'334'000'000;
      doomed.push_back(event);
    }
  }
  const ingest::SubmitResult result = router.submit(doomed);
  EXPECT_EQ(result.accepted, 0u);
  EXPECT_EQ(result.rejected, 1u);

  // The degraded-read counter moved.
  const std::string scrape = telemetry::render_prometheus(metrics);
  EXPECT_GE(metric_value(scrape, "crowdweb_shard_degraded_reads_total"), 2.0);
  EXPECT_EQ(metric_value(scrape, "crowdweb_shard_count"), 4.0);

  router.stop();
}

// --------------------------------------------- epoch vector / caching

TEST(ShardEpochs, EtagEmbedsDottedVectorAndRekeysOnPublish) {
  const core::Platform& platform = test_platform();
  http::ResponseCache cache;

  auto router_result = shard::ShardRouter::create(platform, router_config(2));
  ASSERT_TRUE(router_result.is_ok()) << router_result.status().to_string();
  shard::ShardRouter& router = **router_result;
  router.rekey_cache_on_publish(&cache);
  ASSERT_TRUE(router.start().is_ok());

  EXPECT_EQ(router.epoch_tag(), "1.1");
  EXPECT_EQ(cache.epoch(), router.combined_epoch());

  http::Response response = http::Response::json(200, "{\"x\":1}");
  const auto entry = cache.insert("GET", "/api/crowd/9", response);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->etag.rfind("\"1.1-", 0), 0u) << entry->etag;

  // Advance exactly one shard; the vector, the tag, and the cache key
  // must all move.
  const std::uint64_t old_epoch = cache.epoch();
  data::UserId user = 0;
  while (shard::shard_of_user(user, 2) != 0) ++user;
  const data::Venue& venue = platform.experiment_dataset().venues()[0];
  ingest::IngestEvent event;
  event.user = user;
  event.category = venue.category;
  event.position = venue.position;
  event.timestamp = 1'334'000'000;
  ASSERT_EQ(router.submit({&event, 1}).accepted, 1u);
  ASSERT_TRUE(router.shard(0).worker().wait_for_epoch(2, 10s));

  EXPECT_EQ(router.epoch_vector(), (std::vector<std::uint64_t>{2, 1}));
  EXPECT_EQ(router.epoch_tag(), "2.1");
  EXPECT_NE(cache.epoch(), old_epoch);
  EXPECT_EQ(cache.epoch(), router.combined_epoch());
  const auto entry2 = cache.insert("GET", "/api/crowd/9", response);
  EXPECT_EQ(entry2->etag.rfind("\"2.1-", 0), 0u) << entry2->etag;
  // The old entry is unreachable at the new epoch key.
  EXPECT_EQ(cache.lookup("GET", "/api/crowd/9")->etag, entry2->etag);

  router.stop();
}

// A merged read whose render straddles a shard publish: served once to
// its own request under the vector it was rendered from, never cached.
TEST(ShardEpochs, RenderStraddlingAShardPublishIsNeverCached) {
  const core::Platform& platform = test_platform();
  http::ResponseCache cache;
  auto router_result = shard::ShardRouter::create(platform, router_config(2));
  ASSERT_TRUE(router_result.is_ok()) << router_result.status().to_string();
  shard::ShardRouter& router = **router_result;
  router.rekey_cache_on_publish(&cache);
  ASSERT_TRUE(router.start().is_ok());
  const http::Router api = shard::make_shard_api_router(router);

  data::UserId user = 0;
  while (shard::shard_of_user(user, 2) != 0) ++user;
  const data::Venue& venue = platform.experiment_dataset().venues()[0];
  ingest::IngestEvent event{user, venue.category, venue.position, 1'334'000'000};
  std::atomic<bool> publish_during_render{true};
  http::Router routes;
  routes.get_cached("/api/crowd/:window", [&](const http::Request& request,
                                              const http::PathParams&) {
    http::Response rendered = api.dispatch(get_request(request.path));
    if (publish_during_render.exchange(false)) {
      EXPECT_EQ(router.submit({&event, 1}).accepted, 1u);
      EXPECT_TRUE(router.shard(0).worker().wait_for_epoch(2, 10s));
    }
    return rendered;
  });
  http::ServerConfig server_config;
  server_config.worker_threads = 1;
  server_config.cache = &cache;
  http::Server server(std::move(routes), server_config);
  ASSERT_TRUE(server.start().is_ok());

  const auto straddled = http::get("127.0.0.1", server.port(), "/api/crowd/9");
  ASSERT_TRUE(straddled.is_ok());
  EXPECT_EQ(straddled->headers.at("x-cache"), "miss");
  EXPECT_EQ(straddled->headers.at("etag").rfind("\"1.1-", 0), 0u)
      << straddled->headers.at("etag");
  EXPECT_EQ(cache.stats().entries, 0u) << "the straddling render was cached";

  // The re-key published the new vector's key and tag as one value.
  const auto state = cache.epoch_state();
  EXPECT_EQ(state->tag, "2.1");
  EXPECT_EQ(state->key, shard::mix_epoch_vector(std::vector<std::uint64_t>{2, 1}));
  EXPECT_EQ(cache.epoch(), state->key);

  const auto fresh = http::get("127.0.0.1", server.port(), "/api/crowd/9");
  ASSERT_TRUE(fresh.is_ok());
  EXPECT_EQ(fresh->headers.at("x-cache"), "miss");
  EXPECT_EQ(fresh->headers.at("etag").rfind("\"2.1-", 0), 0u) << fresh->headers.at("etag");
  const auto hit = http::get("127.0.0.1", server.port(), "/api/crowd/9");
  ASSERT_TRUE(hit.is_ok());
  EXPECT_EQ(hit->headers.at("x-cache"), "hit");
  EXPECT_EQ(hit->body, fresh->body);
  server.stop();
  router.stop();
}

TEST(ShardStatus, ReportsPerShardBlocksAndAggregates) {
  auto router_result = shard::ShardRouter::create(test_platform(), router_config(2));
  ASSERT_TRUE(router_result.is_ok()) << router_result.status().to_string();
  shard::ShardRouter& router = **router_result;
  ASSERT_TRUE(router.start().is_ok());
  const http::Router api = shard::make_shard_api_router(router);

  const auto status = json::parse(body_of(api, "/api/status"));
  ASSERT_TRUE(status.is_ok());
  const auto& shards = status->find("shards")->as_array();
  ASSERT_EQ(shards.size(), 2u);
  std::size_t users = 0;
  for (const auto& block : shards) {
    EXPECT_TRUE(block.find("up")->as_bool());
    EXPECT_EQ(block.find("epoch")->as_int(), 1);
    users += static_cast<std::size_t>(block.find("corpus")->find("users")->as_int());
    EXPECT_GE(block.find("queue")->find("capacity")->as_int(), 1);
  }
  EXPECT_EQ(users, test_platform().experiment_dataset().user_count());
  EXPECT_EQ(status->find("epoch_vector")->as_array().size(), 2u);
  EXPECT_EQ(status->find("epoch_tag")->as_string(), "1.1");
  EXPECT_FALSE(status->find("degraded")->as_bool());
  EXPECT_NE(status->find("ingest"), nullptr);

  router.stop();
}

}  // namespace
}  // namespace crowdweb
