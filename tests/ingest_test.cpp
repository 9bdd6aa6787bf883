// Live ingestion subsystem tests: the bounded MPSC queue under
// concurrent producers, the worker's validation and epoch publication,
// and the /api/ingest routes end to end over a real socket.

#include <gtest/gtest.h>

#include <time.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/api.hpp"
#include "core/platform.hpp"
#include "http/client.hpp"
#include "http/server.hpp"
#include "ingest/queue.hpp"
#include "ingest/replay.hpp"
#include "ingest/snapshot.hpp"
#include "ingest/worker.hpp"
#include "json/json.hpp"
#include "transport/csv_source.hpp"
#include "transport/frame.hpp"
#include "util/log.hpp"

namespace crowdweb {
namespace {

using namespace std::chrono_literals;

class QuietLogs : public ::testing::Environment {
 public:
  void SetUp() override { set_log_level(LogLevel::kError); }
};
const auto* const kQuietLogs =
    ::testing::AddGlobalTestEnvironment(new QuietLogs);  // NOLINT(cert-err58-cpp)

/// One platform for every worker test — phases 1-3 run once per binary.
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

ingest::IngestEvent valid_event(data::UserId user = 7, std::int64_t timestamp = 1'000) {
  ingest::IngestEvent event;
  event.user = user;
  event.category = 0;
  event.position = {40.75, -73.98};
  event.timestamp = timestamp;
  return event;
}

// ------------------------------------------------------------------ Queue

TEST(IngestQueueTest, FullQueueRejectsAndCounts) {
  ingest::IngestQueue queue(4);
  EXPECT_EQ(queue.capacity(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(queue.try_push(valid_event()));
  EXPECT_FALSE(queue.try_push(valid_event()));
  EXPECT_FALSE(queue.try_push(valid_event()));
  EXPECT_EQ(queue.size(), 4u);
  EXPECT_EQ(queue.rejected(), 2u);
}

TEST(IngestQueueTest, PushBatchAcceptsPrefixUpToRoom) {
  ingest::IngestQueue queue(4);
  std::vector<ingest::IngestEvent> batch(6, valid_event());
  EXPECT_EQ(queue.push_batch(batch), 4u);
  EXPECT_EQ(queue.rejected(), 2u);
  std::vector<ingest::IngestEvent> drained;
  EXPECT_EQ(queue.drain(drained, 100, 0ms), 4u);
  EXPECT_EQ(queue.push_batch(batch), 4u);  // room again after drain
}

TEST(IngestQueueTest, DrainRespectsBatchLimitAndOrder) {
  ingest::IngestQueue queue(16);
  for (data::UserId user = 0; user < 10; ++user)
    ASSERT_TRUE(queue.try_push(valid_event(user)));
  std::vector<ingest::IngestEvent> drained;
  EXPECT_EQ(queue.drain(drained, 3, 0ms), 3u);
  EXPECT_EQ(queue.drain(drained, 100, 0ms), 7u);
  ASSERT_EQ(drained.size(), 10u);
  for (data::UserId user = 0; user < 10; ++user) EXPECT_EQ(drained[user].user, user);
}

TEST(IngestQueueTest, DrainTimesOutOnEmptyQueue) {
  ingest::IngestQueue queue(4);
  std::vector<ingest::IngestEvent> drained;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(queue.drain(drained, 10, 20ms), 0u);
  EXPECT_GE(std::chrono::steady_clock::now() - start, 15ms);
}

TEST(IngestQueueTest, CloseWakesBlockedConsumerAndRejectsProducers) {
  ingest::IngestQueue queue(4);
  std::vector<ingest::IngestEvent> drained;
  std::thread consumer([&] { queue.drain(drained, 10, 10s); });
  std::this_thread::sleep_for(20ms);
  queue.close();
  consumer.join();  // woke well before the 10 s timeout
  EXPECT_TRUE(queue.closed());
  EXPECT_FALSE(queue.try_push(valid_event()));
  EXPECT_EQ(queue.rejected(), 1u);
}

TEST(IngestQueueTest, WakeEndsAnUnboundedWaitWithoutAnEvent) {
  ingest::IngestQueue queue(4);
  std::vector<ingest::IngestEvent> drained;
  std::size_t count = 1;
  std::thread consumer(
      [&] { count = queue.drain(drained, 10, ingest::IngestQueue::kNoTimeout); });
  std::this_thread::sleep_for(20ms);
  queue.wake();
  consumer.join();
  EXPECT_EQ(count, 0u);
  EXPECT_FALSE(queue.closed());
  // The wake is consumed: the next wait times out normally.
  EXPECT_EQ(queue.drain(drained, 10, 10ms), 0u);
}

TEST(IngestQueueTest, QueuedEventsRemainDrainableAfterClose) {
  ingest::IngestQueue queue(4);
  ASSERT_TRUE(queue.try_push(valid_event()));
  queue.close();
  std::vector<ingest::IngestEvent> drained;
  EXPECT_EQ(queue.drain(drained, 10, 0ms), 1u);
  EXPECT_EQ(queue.drain(drained, 10, 0ms), 0u);  // closed and empty: no wait
}

TEST(IngestQueueTest, MultiProducerTotalsAreAccountedFor) {
  // 4 producers race a slow consumer through a small queue; every event
  // must end up either drained or counted as rejected — none lost, none
  // duplicated.
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2'000;
  ingest::IngestQueue queue(64);
  std::atomic<std::size_t> pushed{0};
  std::atomic<bool> done{false};
  std::size_t drained_total = 0;
  std::thread consumer([&] {
    std::vector<ingest::IngestEvent> batch;
    while (!done.load() || queue.size() > 0) {
      batch.clear();
      drained_total += queue.drain(batch, 32, 1ms);
    }
  });
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      for (int i = 0; i < kPerProducer; ++i) {
        if (queue.try_push(valid_event(static_cast<data::UserId>(t)))) ++pushed;
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  done.store(true);
  consumer.join();
  EXPECT_EQ(pushed.load() + queue.rejected(),
            static_cast<std::size_t>(kProducers) * kPerProducer);
  EXPECT_EQ(drained_total, pushed.load());
}

// ----------------------------------------------------------------- Worker

TEST(IngestWorkerTest, StartPublishesBaseCorpusAsEpochOne) {
  const core::Platform& platform = test_platform();
  auto worker = core::make_ingest_worker(platform);
  EXPECT_EQ(worker->hub().epoch(), 0u);  // nothing published yet
  ASSERT_TRUE(worker->start().is_ok());
  EXPECT_TRUE(worker->running());
  EXPECT_FALSE(worker->start().is_ok());  // already running
  const ingest::SnapshotPtr snapshot = worker->hub().current();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->epoch, 1u);
  EXPECT_EQ(snapshot->live_checkins, 0u);
  EXPECT_EQ(snapshot->dataset.checkin_count(),
            platform.experiment_dataset().checkin_count());
  EXPECT_EQ(snapshot->crowd.window_count(), platform.crowd_model().window_count());
  worker->stop();
  EXPECT_FALSE(worker->running());
}

TEST(IngestWorkerTest, AcceptedEventsAdvanceTheEpoch) {
  const core::Platform& platform = test_platform();
  ingest::IngestWorkerConfig config;
  config.rebuild_interval = 20ms;
  auto worker = core::make_ingest_worker(platform, config);
  ASSERT_TRUE(worker->start().is_ok());

  // Replay a slice of the corpus through the worker sink — same shape as
  // real traffic, known-valid events.
  const auto base = platform.experiment_dataset().checkins();
  ASSERT_GE(base.size(), 10u);
  std::vector<data::CheckIn> slice(base.begin(), base.begin() + 10);
  ingest::ReplayOptions options;
  options.events_per_second = 0;  // full speed
  const auto report = ingest::replay(slice, options, ingest::worker_sink(*worker));
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report->accepted, 10u);
  EXPECT_EQ(report->rejected, 0u);

  ASSERT_TRUE(worker->wait_for_epoch(2, 5s));
  const ingest::SnapshotPtr snapshot = worker->hub().current();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_GE(snapshot->epoch, 2u);
  EXPECT_EQ(snapshot->live_checkins, 10u);
  EXPECT_EQ(snapshot->dataset.checkin_count(),
            platform.experiment_dataset().checkin_count() + 10);
  const ingest::IngestStats stats = worker->stats();
  EXPECT_EQ(stats.accepted, 10u);
  EXPECT_EQ(stats.invalid, 0u);
  EXPECT_GE(stats.epochs_published, 2u);
  EXPECT_GT(stats.last_rebuild_ms, 0.0);
  worker->stop();
}

TEST(IngestWorkerTest, InvalidEventsAreCountedNotMerged) {
  const core::Platform& platform = test_platform();
  ingest::IngestWorkerConfig config;
  config.rebuild_interval = 20ms;
  auto worker = core::make_ingest_worker(platform, config);
  ASSERT_TRUE(worker->start().is_ok());

  ingest::IngestEvent bad_category = valid_event();
  bad_category.category = static_cast<data::CategoryId>(worker->taxonomy().size());
  ingest::IngestEvent bad_position = valid_event();
  bad_position.position = {1234.0, 0.0};
  ingest::IngestEvent bad_timestamp = valid_event();
  bad_timestamp.timestamp = 0;
  const std::vector<ingest::IngestEvent> events{bad_category, bad_position,
                                                bad_timestamp, valid_event()};
  const ingest::SubmitResult result = worker->submit(events);
  EXPECT_EQ(result.accepted, 4u);  // the queue takes them; validation is the worker's
  ASSERT_TRUE(worker->wait_for_epoch(2, 5s));
  const ingest::IngestStats stats = worker->stats();
  EXPECT_EQ(stats.invalid, 3u);
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(worker->hub().current()->live_checkins, 1u);
  worker->stop();
}

TEST(IngestWorkerTest, StopMergesPendingEventsIntoFinalEpoch) {
  const core::Platform& platform = test_platform();
  ingest::IngestWorkerConfig config;
  config.rebuild_interval = 10min;  // never rebuild on cadence
  auto worker = core::make_ingest_worker(platform, config);
  ASSERT_TRUE(worker->start().is_ok());
  const std::vector<ingest::IngestEvent> events{valid_event(1), valid_event(2)};
  EXPECT_EQ(worker->submit(events).accepted, 2u);
  worker->stop();  // drains and publishes the final epoch on the way out
  const ingest::SnapshotPtr snapshot = worker->hub().current();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_GE(snapshot->epoch, 2u);
  EXPECT_EQ(snapshot->live_checkins, 2u);
}

double process_cpu_ms() {
  timespec now{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) * 1e3 + static_cast<double>(now.tv_nsec) / 1e6;
}

// With a zero rebuild interval an idle worker blocks on its queue
// instead of polling it, yet still publishes events and stops promptly.
TEST(IngestWorkerTest, IdleWorkerWithZeroIntervalDoesNotSpin) {
  ingest::IngestWorkerConfig config;
  config.rebuild_interval = 0ms;
  auto worker = core::make_ingest_worker(test_platform(), config);
  ASSERT_TRUE(worker->start().is_ok());
  const std::vector<ingest::IngestEvent> first{valid_event(1)};
  ASSERT_EQ(worker->submit(first).accepted, 1u);
  ASSERT_TRUE(worker->wait_for_epoch(2, 5s));

  const double cpu_before = process_cpu_ms();
  std::this_thread::sleep_for(300ms);
  const double idle_cpu_ms = process_cpu_ms() - cpu_before;
  EXPECT_LT(idle_cpu_ms, 30.0) << "the idle worker burned CPU waiting for events";

  const std::vector<ingest::IngestEvent> second{valid_event(2)};
  ASSERT_EQ(worker->submit(second).accepted, 1u);
  ASSERT_TRUE(worker->wait_for_epoch(3, 5s));
  const auto stop_start = std::chrono::steady_clock::now();
  worker->stop();
  EXPECT_LT(std::chrono::steady_clock::now() - stop_start, 1s);
  EXPECT_EQ(worker->hub().current()->live_checkins, 2u);
}

TEST(IngestWorkerTest, GuestIdsAreDistinctAndOutsideCorpusRange) {
  auto worker = core::make_ingest_worker(test_platform());
  const data::UserId a = worker->allocate_guest_id();
  const data::UserId b = worker->allocate_guest_id();
  EXPECT_NE(a, b);
  EXPECT_GE(a, 3'000'000'000u);
}

// ------------------------------------------------------------ CSV bodies

/// Events at the corpus venues' own positions and categories: every one
/// resolves to an existing venue unless its coordinates change in transit.
std::vector<ingest::IngestEvent> venue_events(const data::Dataset& dataset) {
  std::vector<ingest::IngestEvent> events;
  for (const data::Venue& venue : dataset.venues()) {
    events.push_back({static_cast<data::UserId>(1 + events.size() % 50), venue.category,
                      venue.position,
                      1'334'000'000 + static_cast<std::int64_t>(events.size()) * 60});
  }
  return events;
}

transport::ParsedIngest parse_csv_body(std::string body) {
  http::Request request;
  request.method = "POST";
  request.path = "/api/ingest";
  request.body = std::move(body);
  auto parsed = transport::parse_ingest_csv(request, data::Taxonomy::foursquare(),
                                            [] { return data::UserId{0}; });
  EXPECT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  return parsed.is_ok() ? std::move(parsed).value() : transport::ParsedIngest{};
}

TEST(IngestCsvTest, CoordinatesRoundTripBitExactly) {
  std::vector<ingest::IngestEvent> events;
  for (int i = 0; i < 500; ++i) {
    const double step = static_cast<double>(i) * 1.234567891e-7;
    events.push_back({7, 0, {40.71234567890123 + step, -73.98765432109876 - 3 * step},
                      1'334'000'000 + i});
  }
  events.push_back({7, 0, {1e-9, -0.0}, 1'334'000'000});
  events.push_back({7, 0, {-89.99999999999999, 179.99999999999997}, 1'334'000'000});
  const transport::ParsedIngest parsed =
      parse_csv_body(ingest::events_csv(events, data::Taxonomy::foursquare()));
  ASSERT_EQ(parsed.events.size(), events.size());
  EXPECT_EQ(parsed.invalid, 0u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed.events[i].position.lat),
              std::bit_cast<std::uint64_t>(events[i].position.lat))
        << "event " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed.events[i].position.lon),
              std::bit_cast<std::uint64_t>(events[i].position.lon))
        << "event " << i;
  }
}

/// Venues in the worker's latest epoch after `events` merged.
std::size_t venues_after(const std::vector<ingest::IngestEvent>& events) {
  ingest::IngestWorkerConfig config;
  config.rebuild_interval = 10min;  // one final epoch, on stop()
  auto worker = core::make_ingest_worker(test_platform(), config);
  EXPECT_TRUE(worker->start().is_ok());
  EXPECT_EQ(worker->submit(events).accepted, events.size());
  worker->stop();
  EXPECT_EQ(worker->hub().current()->live_checkins, events.size());
  return worker->hub().current()->dataset.venue_count();
}

TEST(IngestCsvTest, CsvReplayMintsNoVenueThatFramesDoNot) {
  const data::Dataset& dataset = test_platform().experiment_dataset();
  const std::vector<ingest::IngestEvent> events = venue_events(dataset);
  const transport::FrameDecodeResult framed =
      transport::decode_frame(transport::encode_data_frame(1, events));
  ASSERT_EQ(framed.state, transport::FrameState::kComplete) << framed.error;
  const transport::ParsedIngest csv =
      parse_csv_body(ingest::events_csv(events, data::Taxonomy::foursquare()));
  ASSERT_EQ(csv.events.size(), events.size());

  EXPECT_EQ(venues_after(framed.frame.events), dataset.venue_count());
  EXPECT_EQ(venues_after(csv.events), dataset.venue_count()) << "CSV minted live venues";
}

// ------------------------------------------------------------ HTTP routes

TEST(IngestApiTest, StaticRouterHasNoIngestRoutes) {
  const http::Router router = core::make_api_router(test_platform());
  http::Request request;
  request.method = "POST";
  request.path = "/api/ingest";
  request.version = "HTTP/1.1";
  EXPECT_EQ(router.dispatch(request).status, 404);
}

TEST(IngestApiTest, PostIngestAdvancesEpochOverTheSocket) {
  const core::Platform& platform = test_platform();
  ingest::IngestWorkerConfig config;
  config.rebuild_interval = 20ms;
  auto worker = core::make_ingest_worker(platform, config);
  ASSERT_TRUE(worker->start().is_ok());
  core::ApiOptions options;
  options.ingest = worker.get();
  options.server_stats = std::make_shared<std::function<http::ServerStats()>>();
  http::Server server(core::make_api_router(platform, options));
  ASSERT_TRUE(server.start().is_ok());
  *options.server_stats = [&server] { return server.stats(); };

  // Baseline: epoch 1 (the base corpus) is already visible.
  auto stats_response = http::get("127.0.0.1", server.port(), "/api/ingest/stats");
  ASSERT_TRUE(stats_response.is_ok());
  ASSERT_EQ(stats_response->status, 200);
  auto payload = json::parse(stats_response->body);
  ASSERT_TRUE(payload.is_ok());
  EXPECT_EQ(payload->find("epoch")->as_int(), 1);

  // Two valid rows, one with an unknown category (counted invalid).
  const std::string body =
      "user,category,lat,lon,timestamp\n"
      "3000,Eatery,40.75,-73.98,2012-04-10 12:00:00\n"
      "3001,Nightlife Spot,40.74,-73.99,2012-04-10 13:00:00\n"
      "3002,No Such Category,40.73,-73.97,2012-04-10 14:00:00\n";
  const auto response = http::fetch("127.0.0.1", server.port(), "POST", "/api/ingest", body);
  ASSERT_TRUE(response.is_ok());
  ASSERT_EQ(response->status, 200) << response->body;
  payload = json::parse(response->body);
  ASSERT_TRUE(payload.is_ok());
  EXPECT_EQ(payload->find("received")->as_int(), 3);
  EXPECT_EQ(payload->find("accepted")->as_int(), 2);
  EXPECT_EQ(payload->find("invalid")->as_int(), 1);

  // The new epoch becomes observable through the stats route.
  ASSERT_TRUE(worker->wait_for_epoch(2, 5s));
  stats_response = http::get("127.0.0.1", server.port(), "/api/ingest/stats");
  ASSERT_TRUE(stats_response.is_ok());
  payload = json::parse(stats_response->body);
  ASSERT_TRUE(payload.is_ok());
  EXPECT_GE(payload->find("epoch")->as_int(), 2);
  EXPECT_EQ(payload->find("accepted")->as_int(), 2);
  EXPECT_EQ(payload->find("invalid")->as_int(), 1);
  EXPECT_EQ(payload->find("live_checkins")->as_int(), 2);

  // Crowd routes serve the live snapshot, and /api/status reports both
  // the ingest epoch and the server's response-class counters.
  const auto crowd = http::get("127.0.0.1", server.port(), "/api/crowd/12");
  ASSERT_TRUE(crowd.is_ok());
  EXPECT_EQ(crowd->status, 200);
  const auto status = http::get("127.0.0.1", server.port(), "/api/status");
  ASSERT_TRUE(status.is_ok());
  payload = json::parse(status->body);
  ASSERT_TRUE(payload.is_ok());
  ASSERT_NE(payload->find("ingest"), nullptr);
  EXPECT_GE(payload->find("ingest")->find("epoch")->as_int(), 2);
  ASSERT_NE(payload->find("server"), nullptr);
  EXPECT_GE(payload->find("server")->find("responses")->find("2xx")->as_int(), 1);

  server.stop();
  worker->stop();
}

TEST(IngestApiTest, AnonymousSchemaBooksRowsUnderOneGuest) {
  const core::Platform& platform = test_platform();
  ingest::IngestWorkerConfig config;
  config.rebuild_interval = 20ms;
  auto worker = core::make_ingest_worker(platform, config);
  ASSERT_TRUE(worker->start().is_ok());
  http::Server server(core::make_api_router(platform, {worker.get(), nullptr}));
  ASSERT_TRUE(server.start().is_ok());

  const std::string body =
      "category,lat,lon,timestamp\n"
      "Eatery,40.75,-73.98,2012-04-10 12:00:00\n"
      "Eatery,40.75,-73.98,2012-04-10 18:30:00\n";
  const auto response = http::fetch("127.0.0.1", server.port(), "POST", "/api/ingest", body);
  ASSERT_TRUE(response.is_ok());
  ASSERT_EQ(response->status, 200) << response->body;
  ASSERT_TRUE(worker->wait_for_epoch(2, 5s));
  // Both rows landed on the same fresh guest user.
  const ingest::SnapshotPtr snapshot = worker->hub().current();
  EXPECT_EQ(snapshot->live_checkins, 2u);
  EXPECT_EQ(snapshot->live_users, 1u);
  server.stop();
  worker->stop();
}

TEST(IngestApiTest, BadHeaderAndBodyAre400) {
  const core::Platform& platform = test_platform();
  auto worker = core::make_ingest_worker(platform);
  http::Server server(core::make_api_router(platform, {worker.get(), nullptr}));
  ASSERT_TRUE(server.start().is_ok());
  const auto response = http::fetch("127.0.0.1", server.port(), "POST", "/api/ingest",
                                    "wrong,header\n1,2\n");
  ASSERT_TRUE(response.is_ok());
  EXPECT_EQ(response->status, 400);
  server.stop();
}

TEST(IngestApiTest, FullQueueAnswers429) {
  const core::Platform& platform = test_platform();
  ingest::IngestWorkerConfig config;
  config.queue_capacity = 1;
  config.rebuild_interval = std::chrono::milliseconds(1'500);
  // Worker intentionally not started: nothing drains the queue.
  auto worker = core::make_ingest_worker(platform, config);
  http::Server server(core::make_api_router(platform, {worker.get(), nullptr}));
  ASSERT_TRUE(server.start().is_ok());

  const std::string row = "user,category,lat,lon,timestamp\n3000,Eatery,40.75,-73.98,1000\n";
  auto response = http::fetch("127.0.0.1", server.port(), "POST", "/api/ingest", row);
  ASSERT_TRUE(response.is_ok());
  EXPECT_EQ(response->status, 200);  // fills the queue

  response = http::fetch("127.0.0.1", server.port(), "POST", "/api/ingest", row);
  ASSERT_TRUE(response.is_ok());
  EXPECT_EQ(response->status, 429);
  const auto payload = json::parse(response->body);
  ASSERT_TRUE(payload.is_ok());
  EXPECT_EQ(payload->find("accepted")->as_int(), 0);
  EXPECT_EQ(payload->find("rejected")->as_int(), 1);
  // Retry-After mirrors the rebuild interval (1.5 s rounds up to 2):
  // one interval from now the worker will have drained the queue.
  ASSERT_TRUE(response->headers.contains("retry-after"));
  EXPECT_EQ(response->headers.at("retry-after"), "2");
  server.stop();
}

}  // namespace
}  // namespace crowdweb
