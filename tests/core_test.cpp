#include <gtest/gtest.h>

#include <algorithm>

#include "core/api.hpp"
#include "core/snapshot.hpp"
#include "data/dataset_io.hpp"

#include <filesystem>
#include "core/platform.hpp"
#include "http/client.hpp"
#include "http/server.hpp"
#include "json/json.hpp"
#include "util/log.hpp"

namespace crowdweb::core {
namespace {

class QuietLogs : public ::testing::Environment {
 public:
  void SetUp() override { set_log_level(LogLevel::kWarn); }
};
const auto* const kQuietLogs =
    ::testing::AddGlobalTestEnvironment(new QuietLogs);  // NOLINT(cert-err58-cpp)

PlatformConfig small_config() {
  PlatformConfig config;
  config.small_corpus = true;
  config.min_active_days = 20;
  config.mining.min_support = 0.25;
  return config;
}

/// The platform is expensive to build; share one across tests.
const Platform& platform() {
  static const Platform* instance = [] {
    auto p = Platform::create(small_config());
    EXPECT_TRUE(p.is_ok()) << p.status().to_string();
    return new Platform(std::move(p).value());
  }();
  return *instance;
}

// --------------------------------------------------------------- Platform

TEST(PlatformTest, PipelinePhasesRan) {
  const Platform& p = platform();
  EXPECT_GT(p.full_dataset().checkin_count(), 0u);
  EXPECT_GT(p.experiment_dataset().user_count(), 0u);
  EXPECT_LE(p.experiment_dataset().user_count(), p.full_dataset().user_count());
  EXPECT_EQ(p.mobility().size(), p.experiment_dataset().user_count());
  EXPECT_GT(p.crowd_model().total_placements(), 0u);
  EXPECT_GE(p.timings().acquisition_ms, 0.0);
  EXPECT_GT(p.timings().mining_ms, 0.0);
}

TEST(PlatformTest, ExperimentWindowRespected) {
  const Platform& p = platform();
  for (const data::CheckIn& c : p.experiment_dataset().checkins()) {
    EXPECT_GE(c.timestamp, p.config().experiment_start);
    EXPECT_LT(c.timestamp, p.config().experiment_end);
  }
}

TEST(PlatformTest, UserMobilityLookup) {
  const Platform& p = platform();
  const data::UserId known = p.experiment_dataset().users()[0];
  const patterns::UserMobility* mobility = p.user_mobility(known);
  ASSERT_NE(mobility, nullptr);
  EXPECT_EQ(mobility->user, known);
  EXPECT_EQ(p.user_mobility(999'999), nullptr);
}

TEST(PlatformTest, SequencesMatchMobilityDayCount) {
  const Platform& p = platform();
  const data::UserId user = p.experiment_dataset().users()[0];
  const auto sequences = p.sequences_for(user);
  EXPECT_EQ(sequences.day_count(), p.user_mobility(user)->recorded_days);
}

TEST(PlatformTest, PlaceGraphForPatternUser) {
  const Platform& p = platform();
  // Find a user with patterns.
  const auto it =
      std::find_if(p.mobility().begin(), p.mobility().end(),
                   [](const patterns::UserMobility& m) { return !m.patterns.empty(); });
  ASSERT_NE(it, p.mobility().end());
  const patterns::PlaceGraph graph = p.place_graph(it->user);
  EXPECT_FALSE(graph.nodes.empty());
}

TEST(PlatformTest, FromDatasetRunsPipeline) {
  const Platform& p = platform();
  auto again = Platform::from_dataset(p.full_dataset(), small_config());
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(again->experiment_dataset().user_count(),
            p.experiment_dataset().user_count());
}

TEST(PlatformTest, EmptyDatasetFails) {
  EXPECT_FALSE(Platform::from_dataset(data::Dataset{}, small_config()).is_ok());
}

TEST(PlatformTest, ImpossibleCriteriaFail) {
  PlatformConfig config = small_config();
  config.min_active_days = 10'000;  // nobody qualifies
  EXPECT_FALSE(Platform::create(config).is_ok());
}

TEST(PlatformTest, FromCsvFilesRoundTrip) {
  const Platform& p = platform();
  const std::string dir = ::testing::TempDir() + "/crowdweb_csv_platform";
  std::filesystem::create_directories(dir);
  const data::Taxonomy& tax = p.taxonomy();
  ASSERT_TRUE(data::write_file(dir + "/venues.csv",
                               data::venues_to_csv(p.full_dataset(), tax))
                  .is_ok());
  ASSERT_TRUE(data::write_file(dir + "/checkins.csv",
                               data::checkins_to_csv(p.full_dataset(), tax))
                  .is_ok());
  auto reloaded =
      Platform::from_csv_files(dir + "/venues.csv", dir + "/checkins.csv", small_config());
  ASSERT_TRUE(reloaded.is_ok()) << reloaded.status().to_string();
  EXPECT_EQ(reloaded->experiment_dataset().user_count(),
            p.experiment_dataset().user_count());
  EXPECT_EQ(reloaded->crowd_model().total_placements(),
            p.crowd_model().total_placements());
  EXPECT_FALSE(
      Platform::from_csv_files("/no/venues.csv", "/no/checkins.csv", small_config())
          .is_ok());
}

// -------------------------------------------------------------- Snapshots

TEST(SnapshotTest, MobilityJsonRoundTrip) {
  const Platform& p = platform();
  const json::Value doc = mobility_to_json(p.mobility());
  // Survives a serialize/parse cycle.
  const auto reparsed = json::parse(json::dump(doc));
  ASSERT_TRUE(reparsed.is_ok());
  const auto restored = mobility_from_json(*reparsed);
  ASSERT_TRUE(restored.is_ok()) << restored.status().to_string();
  ASSERT_EQ(restored->size(), p.mobility().size());
  for (std::size_t i = 0; i < restored->size(); ++i) {
    const auto& a = (*restored)[i];
    const auto& b = p.mobility()[i];
    EXPECT_EQ(a.user, b.user);
    EXPECT_EQ(a.recorded_days, b.recorded_days);
    ASSERT_EQ(a.patterns.size(), b.patterns.size());
    for (std::size_t j = 0; j < a.patterns.size(); ++j) {
      EXPECT_EQ(a.patterns[j].support_count, b.patterns[j].support_count);
      ASSERT_EQ(a.patterns[j].elements.size(), b.patterns[j].elements.size());
      for (std::size_t k = 0; k < a.patterns[j].elements.size(); ++k) {
        EXPECT_EQ(a.patterns[j].elements[k].label, b.patterns[j].elements[k].label);
        EXPECT_DOUBLE_EQ(a.patterns[j].elements[k].mean_minute,
                         b.patterns[j].elements[k].mean_minute);
      }
    }
  }
}

TEST(SnapshotTest, ConfigJsonRoundTrip) {
  PlatformConfig config = small_config();
  config.seed = 77;
  config.mining.min_support = 0.4;
  config.crowd.window_minutes = 30;
  config.sequences.mode = mining::LabelMode::kLeafCategory;
  const auto restored = config_from_json(config_to_json(config));
  ASSERT_TRUE(restored.is_ok()) << restored.status().to_string();
  EXPECT_EQ(restored->seed, 77u);
  EXPECT_DOUBLE_EQ(restored->mining.min_support, 0.4);
  EXPECT_EQ(restored->crowd.window_minutes, 30);
  EXPECT_EQ(restored->sequences.mode, mining::LabelMode::kLeafCategory);
  EXPECT_EQ(restored->min_active_days, config.min_active_days);
}

TEST(SnapshotTest, SaveAndLoadRebuildsIdenticalPlatform) {
  const Platform& original = platform();
  const std::string dir = ::testing::TempDir() + "/crowdweb_snapshot";
  ASSERT_TRUE(save_snapshot(original, dir).is_ok());

  auto restored = load_snapshot(dir);
  ASSERT_TRUE(restored.is_ok()) << restored.status().to_string();
  EXPECT_EQ(restored->experiment_dataset().user_count(),
            original.experiment_dataset().user_count());
  EXPECT_EQ(restored->mobility().size(), original.mobility().size());
  EXPECT_EQ(restored->crowd_model().total_placements(),
            original.crowd_model().total_placements());
  // Crowd distributions are bit-identical.
  for (const int window : {9, 12, 20}) {
    const auto a = original.crowd_model().distribution(window);
    const auto b = restored->crowd_model().distribution(window);
    EXPECT_EQ(a.total(), b.total());
    EXPECT_EQ(a.cells(), b.cells());
  }
  // Restore skipped mining entirely.
  EXPECT_LT(restored->timings().mining_ms, original.timings().mining_ms + 1.0);
}

TEST(SnapshotTest, CompactMobilityEntriesRoundTripWithTheirSidecar) {
  // A closed-mode platform's snapshot carries the compact sidecar
  // (closed flag, frequent-set size, placement index) and restores it
  // exactly; default-mode snapshots never emit those fields.
  PlatformConfig config = small_config();
  config.mining.algorithm = "bide";
  config.mining.expand_closed = false;
  const auto compact = Platform::create(config);
  ASSERT_TRUE(compact.is_ok()) << compact.status().to_string();
  const json::Value doc = mobility_to_json(compact->mobility());
  const auto reparsed = json::parse(json::dump(doc));
  ASSERT_TRUE(reparsed.is_ok());
  const auto restored = mobility_from_json(*reparsed);
  ASSERT_TRUE(restored.is_ok()) << restored.status().to_string();
  ASSERT_EQ(restored->size(), compact->mobility().size());
  for (std::size_t i = 0; i < restored->size(); ++i) {
    const patterns::UserMobility& a = (*restored)[i];
    const patterns::UserMobility& b = compact->mobility()[i];
    EXPECT_TRUE(a.closed_only);
    EXPECT_EQ(a.frequent_patterns, b.frequent_patterns);
    ASSERT_EQ(a.placement_index.size(), b.placement_index.size());
    for (std::size_t j = 0; j < a.placement_index.size(); ++j)
      EXPECT_EQ(a.placement_index[j], b.placement_index[j]);
  }

  // The default-mode document is untouched by the new fields.
  const json::Value plain = mobility_to_json(platform().mobility());
  EXPECT_EQ(json::dump(plain).find("placement_index"), std::string::npos);
  EXPECT_EQ(json::dump(plain).find("\"closed\""), std::string::npos);

  // A save/load cycle of the compact platform restores compact serving
  // with an identical crowd model.
  const std::string dir = ::testing::TempDir() + "/crowdweb_snapshot_compact";
  ASSERT_TRUE(save_snapshot(*compact, dir).is_ok());
  auto reloaded = load_snapshot(dir);
  ASSERT_TRUE(reloaded.is_ok()) << reloaded.status().to_string();
  EXPECT_EQ(reloaded->crowd_model().total_placements(),
            compact->crowd_model().total_placements());
  for (const patterns::UserMobility& entry : reloaded->mobility())
    EXPECT_TRUE(entry.closed_only);
}

TEST(SnapshotTest, DefaultModeLoadRebuildsEveryPlacementIndex) {
  // Expanded entries persist no index; the loader re-derives it from the
  // stored patterns, equal to the one built at mine time.
  const Platform& original = platform();
  const std::string dir = ::testing::TempDir() + "/crowdweb_snapshot_index";
  ASSERT_TRUE(save_snapshot(original, dir).is_ok());
  const auto restored = load_snapshot(dir);
  ASSERT_TRUE(restored.is_ok()) << restored.status().to_string();
  ASSERT_EQ(restored->mobility().size(), original.mobility().size());
  std::size_t candidates = 0;
  for (std::size_t i = 0; i < original.mobility().size(); ++i) {
    EXPECT_FALSE(restored->mobility()[i].closed_only);
    EXPECT_EQ(restored->mobility()[i].placement_index, original.mobility()[i].placement_index)
        << "user " << original.mobility()[i].user;
    candidates += original.mobility()[i].placement_index.size();
  }
  EXPECT_GT(candidates, 0u);
}

/// A one-user compact mobility document over 4 recorded days whose index
/// holds a valid candidate followed by `candidate`.
json::Value compact_document(json::Value candidate) {
  json::Value index = json::Value(json::Array{});
  index.push_back(json::object(
      {{"label", 1}, {"minute", 540}, {"rank", 0}, {"support_count", 2}, {"support", 0.5}}));
  index.push_back(std::move(candidate));
  json::Value users = json::Value(json::Array{});
  users.push_back(json::object({{"user", 3},
                                {"recorded_days", 4},
                                {"patterns", json::Value(json::Array{})},
                                {"closed", true},
                                {"frequent_patterns", 2},
                                {"placement_index", std::move(index)}}));
  return json::object({{"version", 1}, {"users", std::move(users)}});
}

json::Value candidate(std::int64_t minute, std::int64_t rank, std::int64_t count,
                      double support) {
  return json::object({{"label", 2},
                       {"minute", minute},
                       {"rank", rank},
                       {"support_count", count},
                       {"support", support}});
}

TEST(SnapshotTest, CompactCandidateInRangeLoads) {
  const auto loaded = mobility_from_json(compact_document(candidate(1439, 5, 4, 1.0)));
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  ASSERT_EQ(loaded->front().placement_index.size(), 2u);
  EXPECT_EQ(loaded->front().placement_index[1],
            (patterns::PlacementCandidate{2, 1439, 5, 4}));
}

TEST(SnapshotTest, RejectsCandidateMinuteOutsideTheDay) {
  EXPECT_FALSE(mobility_from_json(compact_document(candidate(1440, 5, 3, 0.75))).is_ok());
  EXPECT_FALSE(mobility_from_json(compact_document(candidate(-1, 5, 3, 0.75))).is_ok());
}

TEST(SnapshotTest, RejectsCandidateWithZeroSupportCount) {
  EXPECT_FALSE(mobility_from_json(compact_document(candidate(600, 5, 0, 0.0))).is_ok());
}

TEST(SnapshotTest, RejectsCandidateSupportCountAboveRecordedDays) {
  EXPECT_FALSE(mobility_from_json(compact_document(candidate(600, 5, 5, 1.25))).is_ok());
}

TEST(SnapshotTest, RejectsCandidateRankThatDoesNotAscend) {
  EXPECT_FALSE(mobility_from_json(compact_document(candidate(600, 0, 3, 0.75))).is_ok());
}

TEST(SnapshotTest, RejectsCandidateSupportNotDerivedFromItsCount) {
  EXPECT_FALSE(mobility_from_json(compact_document(candidate(600, 5, 3, 0.7))).is_ok());
}

TEST(SnapshotTest, RejectsExpandedPatternOverZeroRecordedDays) {
  // Expanded entries derive their index support the same way, so a
  // pattern claiming days the entry never recorded is refused too.
  json::Value elements = json::Value(json::Array{});
  elements.push_back(
      json::object({{"label", 1}, {"mean_minute", 540.0}, {"stddev_minute", 0.0}}));
  json::Value pattern_list = json::Value(json::Array{});
  pattern_list.push_back(json::object(
      {{"elements", std::move(elements)}, {"support_count", 1}, {"support", 1.0}}));
  json::Value users = json::Value(json::Array{});
  users.push_back(json::object(
      {{"user", 3}, {"recorded_days", 0}, {"patterns", std::move(pattern_list)}}));
  EXPECT_FALSE(
      mobility_from_json(json::object({{"version", 1}, {"users", std::move(users)}})).is_ok());
}

TEST(SnapshotTest, LoadRejectsMissingDirectory) {
  EXPECT_FALSE(load_snapshot("/nonexistent/snapshot/dir").is_ok());
}

TEST(SnapshotTest, RestoreRejectsMismatchedMobility) {
  const Platform& original = platform();
  std::vector<patterns::UserMobility> wrong(original.mobility().begin(),
                                            original.mobility().end());
  wrong.pop_back();  // user set no longer matches
  EXPECT_FALSE(
      Platform::restore(original.full_dataset(), std::move(wrong), small_config()).is_ok());
}

TEST(SnapshotTest, MobilityFromJsonRejectsGarbage) {
  EXPECT_FALSE(mobility_from_json(json::Value(42)).is_ok());
  EXPECT_FALSE(mobility_from_json(json::object({{"version", 2}})).is_ok());
  EXPECT_FALSE(
      mobility_from_json(json::object({{"version", 1}, {"users", "nope"}})).is_ok());
  EXPECT_FALSE(config_from_json(json::object({{"version", 1}})).is_ok());
}

// ------------------------------------------------------------ API routing

json::Value get_json(std::uint16_t port, const std::string& target, int expect = 200) {
  const auto response = http::get("127.0.0.1", port, target);
  EXPECT_TRUE(response.is_ok()) << target << ": " << response.status().to_string();
  EXPECT_EQ(response->status, expect) << target << " body: " << response->body;
  auto parsed = json::parse(response->body);
  EXPECT_TRUE(parsed.is_ok()) << target;
  return parsed.is_ok() ? std::move(parsed).value() : json::Value{};
}

class ApiFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<http::Server>(make_api_router(platform()));
    ASSERT_TRUE(server_->start().is_ok());
  }
  void TearDown() override { server_->stop(); }

  std::unique_ptr<http::Server> server_;
};

TEST_F(ApiFixture, ViewerPageServed) {
  const auto response = http::get("127.0.0.1", server_->port(), "/");
  ASSERT_TRUE(response.is_ok());
  EXPECT_EQ(response->status, 200);
  EXPECT_NE(response->body.find("CrowdWeb"), std::string::npos);
  EXPECT_NE(response->body.find("<html"), std::string::npos);
}

TEST_F(ApiFixture, StatusEndpoint) {
  const json::Value status = get_json(server_->port(), "/api/status");
  EXPECT_EQ(status.find("full")->find("users")->as_int(),
            static_cast<std::int64_t>(platform().full_dataset().user_count()));
  EXPECT_EQ(status.find("windows")->as_int(), 24);
  EXPECT_GT(status.find("placements")->as_int(), 0);
}

TEST_F(ApiFixture, UsersEndpoint) {
  const json::Value users = get_json(server_->port(), "/api/users");
  const auto& list = users.find("users")->as_array();
  EXPECT_EQ(list.size(), platform().mobility().size());
  EXPECT_TRUE(list[0].find("id") != nullptr);
  EXPECT_TRUE(list[0].find("patterns") != nullptr);
}

TEST_F(ApiFixture, UserPatternsEndpoint) {
  // Pick a user with patterns.
  const auto it = std::find_if(
      platform().mobility().begin(), platform().mobility().end(),
      [](const patterns::UserMobility& m) { return !m.patterns.empty(); });
  ASSERT_NE(it, platform().mobility().end());
  const json::Value doc = get_json(
      server_->port(), "/api/user/" + std::to_string(it->user) + "/patterns");
  EXPECT_EQ(doc.find("user")->as_int(), static_cast<std::int64_t>(it->user));
  const auto& patterns = doc.find("patterns")->as_array();
  EXPECT_EQ(patterns.size(), it->patterns.size());
  EXPECT_TRUE(patterns[0].find("elements")->as_array()[0].find("label")->is_string());
}

TEST_F(ApiFixture, UserGraphSvg) {
  const auto it = std::find_if(
      platform().mobility().begin(), platform().mobility().end(),
      [](const patterns::UserMobility& m) { return !m.patterns.empty(); });
  ASSERT_NE(it, platform().mobility().end());
  const auto response = http::get(
      "127.0.0.1", server_->port(), "/api/user/" + std::to_string(it->user) + "/graph.svg");
  ASSERT_TRUE(response.is_ok());
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(response->headers.at("content-type"), "image/svg+xml");
  EXPECT_NE(response->body.find("<svg"), std::string::npos);
}

TEST_F(ApiFixture, UserTimelineSvg) {
  const auto it = std::find_if(
      platform().mobility().begin(), platform().mobility().end(),
      [](const patterns::UserMobility& m) { return !m.patterns.empty(); });
  ASSERT_NE(it, platform().mobility().end());
  const auto response = http::get(
      "127.0.0.1", server_->port(),
      "/api/user/" + std::to_string(it->user) + "/timeline.svg");
  ASSERT_TRUE(response.is_ok());
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(response->headers.at("content-type"), "image/svg+xml");
  EXPECT_NE(response->body.find("visit timeline"), std::string::npos);
  const auto missing =
      http::get("127.0.0.1", server_->port(), "/api/user/424242/timeline.svg");
  ASSERT_TRUE(missing.is_ok());
  EXPECT_EQ(missing->status, 404);
}

TEST_F(ApiFixture, RhythmSvg) {
  const auto response = http::get("127.0.0.1", server_->port(), "/api/rhythm.svg");
  ASSERT_TRUE(response.is_ok());
  EXPECT_EQ(response->status, 200);
  EXPECT_NE(response->body.find("Crowd rhythm"), std::string::npos);
}

TEST_F(ApiFixture, CrowdEndpoints) {
  const json::Value crowd = get_json(server_->port(), "/api/crowd/9");
  EXPECT_EQ(crowd.find("window")->as_int(), 9);
  EXPECT_EQ(crowd.find("label")->as_string(), "09:00-10:00");
  EXPECT_GE(crowd.find("total")->as_int(), 0);

  const auto map = http::get("127.0.0.1", server_->port(), "/api/crowd/9/map.svg");
  ASSERT_TRUE(map.is_ok());
  EXPECT_EQ(map->status, 200);
  EXPECT_NE(map->body.find("<svg"), std::string::npos);

  const json::Value geo = get_json(server_->port(), "/api/crowd/9/geojson");
  EXPECT_EQ(geo.find("type")->as_string(), "FeatureCollection");
}

TEST_F(ApiFixture, GroupsEndpoint) {
  const json::Value groups = get_json(server_->port(), "/api/groups/9");
  ASSERT_NE(groups.find("groups"), nullptr);
  for (const json::Value& group : groups.find("groups")->as_array()) {
    EXPECT_GE(group.find("users")->as_array().size(), 2u);
    EXPECT_TRUE(group.find("label")->is_string());
  }
}

TEST_F(ApiFixture, FlowEndpoints) {
  const json::Value flow = get_json(server_->port(), "/api/flow/9/12");
  EXPECT_EQ(flow.find("from_window")->as_int(), 9);
  EXPECT_EQ(flow.find("to_window")->as_int(), 12);
  EXPECT_GE(flow.find("total")->as_int(), 0);

  const auto map = http::get("127.0.0.1", server_->port(), "/api/flow/9/12/map.svg");
  ASSERT_TRUE(map.is_ok());
  EXPECT_EQ(map->status, 200);
}

TEST_F(ApiFixture, AnimationEndpoint) {
  const auto response = http::get("127.0.0.1", server_->port(), "/api/animation.svg");
  ASSERT_TRUE(response.is_ok());
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(response->headers.at("content-type"), "image/svg+xml");
  EXPECT_NE(response->body.find("<animate "), std::string::npos);

  const auto slow =
      http::get("127.0.0.1", server_->port(), "/api/animation.svg?seconds=2");
  ASSERT_TRUE(slow.is_ok());
  EXPECT_EQ(slow->status, 200);
  EXPECT_NE(slow->body.find("dur=\"48.00s\""), std::string::npos);

  const auto bad =
      http::get("127.0.0.1", server_->port(), "/api/animation.svg?seconds=-1");
  ASSERT_TRUE(bad.is_ok());
  EXPECT_EQ(bad->status, 400);
}

TEST_F(ApiFixture, CommunitiesEndpoint) {
  const json::Value doc = get_json(server_->port(), "/api/communities");
  ASSERT_NE(doc.find("graph"), nullptr);
  EXPECT_GE(doc.find("graph")->find("users")->as_int(), 0);
  for (const json::Value& community : doc.find("communities")->as_array()) {
    EXPECT_GE(community.find("size")->as_int(), 2);
    EXPECT_EQ(community.find("size")->as_int(),
              static_cast<std::int64_t>(community.find("members")->as_array().size()));
  }
}

TEST_F(ApiFixture, AnalyzeEndpointMinesUploadedHistory) {
  // The booth scenario: a visitor's Thai-lunch week, a different venue
  // every day — only abstraction makes the pattern visible.
  std::string csv = "category,lat,lon,timestamp\n";
  for (int day = 2; day <= 8; ++day) {
    csv += "Coffee Shop,40.71,-74.00,2012-04-0" + std::to_string(day) + " 08:30:00\n";
    csv += "Thai Restaurant,40.7" + std::to_string(day % 3) +
           ",-73.99,2012-04-0" + std::to_string(day) + " 12:3" + std::to_string(day % 6) +
           ":00\n";
  }
  const auto response =
      http::fetch("127.0.0.1", server_->port(), "POST", "/api/analyze?support=0.9", csv);
  ASSERT_TRUE(response.is_ok());
  ASSERT_EQ(response->status, 200) << response->body;
  const auto doc = json::parse(response->body);
  ASSERT_TRUE(doc.is_ok());
  EXPECT_EQ(doc->find("records")->as_int(), 14);
  EXPECT_EQ(doc->find("recorded_days")->as_int(), 7);
  // Both check-ins collapse to Eatery; the daily "Eatery -> Eatery" is
  // collapsed too, so the strongest pattern is a single Eatery element
  // around the morning coffee time.
  const auto& patterns = doc->find("patterns")->as_array();
  ASSERT_FALSE(patterns.empty());
  EXPECT_EQ(patterns[0].find("elements")->as_array()[0].find("label")->as_string(),
            "Eatery");
  EXPECT_DOUBLE_EQ(patterns[0].find("support")->as_double(), 1.0);
}

TEST_F(ApiFixture, AnalyzeEndpointValidatesInput) {
  const auto bad_header =
      http::fetch("127.0.0.1", server_->port(), "POST", "/api/analyze", "a,b,c\n1,2,3\n");
  ASSERT_TRUE(bad_header.is_ok());
  EXPECT_EQ(bad_header->status, 400);

  const auto bad_category = http::fetch(
      "127.0.0.1", server_->port(), "POST", "/api/analyze",
      "category,lat,lon,timestamp\nMoon Base,40.7,-74.0,2012-04-02 09:00:00\n");
  ASSERT_TRUE(bad_category.is_ok());
  EXPECT_EQ(bad_category->status, 400);

  const auto bad_support = http::fetch(
      "127.0.0.1", server_->port(), "POST", "/api/analyze?support=7",
      "category,lat,lon,timestamp\nCoffee Shop,40.7,-74.0,2012-04-02 09:00:00\n");
  ASSERT_TRUE(bad_support.is_ok());
  EXPECT_EQ(bad_support->status, 400);

  const auto empty = http::fetch("127.0.0.1", server_->port(), "POST", "/api/analyze",
                                 "category,lat,lon,timestamp\n");
  ASSERT_TRUE(empty.is_ok());
  EXPECT_EQ(empty->status, 400);

  const auto wrong_method = http::get("127.0.0.1", server_->port(), "/api/analyze");
  ASSERT_TRUE(wrong_method.is_ok());
  EXPECT_EQ(wrong_method->status, 405);
}

TEST_F(ApiFixture, PredictEndpoint) {
  const auto it = std::find_if(
      platform().mobility().begin(), platform().mobility().end(),
      [](const patterns::UserMobility& m) { return !m.patterns.empty(); });
  ASSERT_NE(it, platform().mobility().end());
  const json::Value doc = get_json(
      server_->port(), "/api/predict/" + std::to_string(it->user) + "?minute=540");
  EXPECT_EQ(doc.find("minute")->as_int(), 540);
  EXPECT_EQ(doc.find("predictor")->as_string(), "ensemble");
  const auto& predictions = doc.find("predictions")->as_array();
  ASSERT_FALSE(predictions.empty());
  EXPECT_TRUE(predictions[0].find("label")->is_string());
  // Scores descend.
  for (std::size_t i = 1; i < predictions.size(); ++i) {
    EXPECT_LE(predictions[i].find("score")->as_double(),
              predictions[i - 1].find("score")->as_double());
  }
  const auto bad =
      http::get("127.0.0.1", server_->port(),
                "/api/predict/" + std::to_string(it->user) + "?minute=5000");
  ASSERT_TRUE(bad.is_ok());
  EXPECT_EQ(bad->status, 400);
  const auto missing = http::get("127.0.0.1", server_->port(), "/api/predict/424242");
  ASSERT_TRUE(missing.is_ok());
  EXPECT_EQ(missing->status, 404);
}

TEST_F(ApiFixture, BadInputsRejected) {
  const auto bad_window = http::get("127.0.0.1", server_->port(), "/api/crowd/99");
  ASSERT_TRUE(bad_window.is_ok());
  EXPECT_EQ(bad_window->status, 400);

  const auto junk_window = http::get("127.0.0.1", server_->port(), "/api/crowd/abc");
  ASSERT_TRUE(junk_window.is_ok());
  EXPECT_EQ(junk_window->status, 400);

  const auto unknown_user =
      http::get("127.0.0.1", server_->port(), "/api/user/424242/patterns");
  ASSERT_TRUE(unknown_user.is_ok());
  EXPECT_EQ(unknown_user->status, 404);

  const auto bad_flow = http::get("127.0.0.1", server_->port(), "/api/flow/9/99");
  ASSERT_TRUE(bad_flow.is_ok());
  EXPECT_EQ(bad_flow->status, 400);

  const auto wrong_method =
      http::fetch("127.0.0.1", server_->port(), "POST", "/api/status");
  ASSERT_TRUE(wrong_method.is_ok());
  EXPECT_EQ(wrong_method->status, 405);
}

}  // namespace
}  // namespace crowdweb::core
