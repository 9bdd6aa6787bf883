#include "checks.hpp"

#include <algorithm>
#include <thread>

#include "core/handlers.hpp"
#include "ingest/worker.hpp"
#include "json/json.hpp"
#include "mining/seqdb.hpp"
#include "stack.hpp"
#include "util/format.hpp"

namespace e2e {

using namespace crowdweb;

namespace {

/// True when `pattern` occurs in `day` as a (not necessarily contiguous)
/// subsequence.
bool contains(std::span<const mining::Item> day, const std::vector<mining::Item>& pattern) {
  std::size_t matched = 0;
  for (const mining::Item item : day)
    if (matched < pattern.size() && item == pattern[matched]) ++matched;
  return matched == pattern.size();
}

}  // namespace

void check_supports(const data::Dataset& dataset, const patterns::MobilityTable& mobility,
                    const core::Platform& platform, std::size_t max_users, Errors& errors) {
  const std::size_t stride = std::max<std::size_t>(1, (mobility.size() + max_users - 1) / max_users);
  std::size_t index = 0;
  for (const patterns::UserMobility& entry : mobility) {
    if (index++ % stride != 0) continue;
    const mining::UserSequences days = mining::build_user_sequences(
        dataset, entry.user, platform.taxonomy(), platform.config().sequences);
    if (days.day_count() != entry.recorded_days) {
      errors.push_back(crowdweb::format("user {}: {} recorded days served, {} in the corpus",
                                        entry.user, entry.recorded_days, days.day_count()));
      continue;
    }
    std::vector<mining::Item> labels;
    for (const patterns::MobilityPattern& pattern : entry.patterns) {
      labels.clear();
      for (const patterns::TimedElement& element : pattern.elements) labels.push_back(element.label);
      std::size_t support = 0;
      for (std::size_t d = 0; d < days.day_count(); ++d) support += contains(days.day(d), labels);
      if (support != pattern.support_count) {
        errors.push_back(crowdweb::format("user {}: a {}-element pattern serves support {}, "
                                          "the day sequences hold it on {} days",
                                          entry.user, labels.size(), pattern.support_count,
                                          support));
        return;
      }
    }
  }
}

void check_crowd(const crowd::CrowdModel& crowd, const geo::SpatialGrid& grid,
                 const std::vector<std::string>& served, Errors& errors) {
  if (served.size() != static_cast<std::size_t>(crowd.window_count())) {
    errors.push_back(crowdweb::format("{} crowd windows served, the model has {}", served.size(),
                                      crowd.window_count()));
    return;
  }
  std::vector<std::pair<data::UserId, mining::Item>> users;
  for (int w = 0; w < crowd.window_count(); ++w) {
    const auto placements = crowd.placements(w);
    users.clear();
    for (const crowd::CrowdPlacement& placement : placements) {
      users.emplace_back(placement.user, placement.label);
      if (placement.cell >= grid.cell_count())
        errors.push_back(crowdweb::format("window {}: cell {} outside the {}-cell grid", w,
                                          placement.cell, grid.cell_count()));
    }
    std::sort(users.begin(), users.end());
    if (std::adjacent_find(users.begin(), users.end()) != users.end())
      errors.push_back(crowdweb::format("window {}: a user is placed twice on one label", w));
    const crowd::CrowdDistribution distribution = crowd.distribution(w);
    std::size_t counted = 0;
    for (const auto& [cell, count] : distribution.cells()) counted += count;
    if (counted != placements.size() || distribution.total() != placements.size())
      errors.push_back(crowdweb::format("window {}: cell counts sum to {}, {} placements", w,
                                        counted, placements.size()));

    const auto body = json::parse(served[static_cast<std::size_t>(w)]);
    if (!body.is_ok() || body->find("total") == nullptr || body->find("top_cells") == nullptr) {
      errors.push_back(crowdweb::format("window {}: malformed crowd JSON", w));
      continue;
    }
    const std::int64_t total = body->find("total")->as_int();
    std::int64_t top_sum = 0;
    for (const json::Value& cell : body->find("top_cells")->as_array()) {
      top_sum += cell.find("count")->as_int();
      if (static_cast<std::size_t>(cell.find("cell")->as_int()) >= grid.cell_count())
        errors.push_back(crowdweb::format("window {}: served cell outside the grid", w));
    }
    const bool all_cells = body->find("occupied_cells")->as_int() <= 50;
    if (total != static_cast<std::int64_t>(placements.size()) || top_sum > total ||
        (all_cells && top_sum != total))
      errors.push_back(crowdweb::format("window {}: served total {} (top cells {}), {} placements",
                                        w, total, top_sum, placements.size()));
  }
}

std::vector<std::string> scratch_crowd_bodies(const data::Dataset& dataset,
                                              const core::Platform& platform,
                                              std::optional<geo::BoundingBox> fixed_bounds) {
  const core::PlatformConfig& config = platform.config();
  patterns::MobilityOptions options;
  options.sequences = config.sequences;
  options.mining = config.mining;
  const patterns::MobilityTable mobility = patterns::MobilityTable::from_entries(
      patterns::mine_all_mobility_parallel(dataset, platform.taxonomy(), options));
  auto grid = geo::SpatialGrid::create(fixed_bounds.value_or(dataset.bounds()).inflated(0.002),
                                       config.grid_cell_meters);
  if (!grid.is_ok()) return {};
  auto crowd = crowd::CrowdModel::build(dataset, mobility, *grid, config.crowd);
  if (!crowd.is_ok()) return {};
  const core::handlers::CrowdView view{dataset, *grid, *crowd, config.sequences.mode,
                                       platform.taxonomy(), false, {}};
  std::vector<std::string> bodies;
  for (int w = 0; w < crowd->window_count(); ++w) {
    const http::PathParams params{{"window", std::to_string(w)}};
    bodies.push_back(core::handlers::crowd_handler(view, params).body);
  }
  return bodies;
}

ingest::SnapshotPtr bulk_reference(const core::Platform& platform,
                                   std::span<const ingest::IngestEvent> events,
                                   std::optional<geo::BoundingBox> fixed_bounds, Errors& errors) {
  const core::PlatformConfig& config = platform.config();
  ingest::IngestPipelineConfig pipeline;
  pipeline.grid_cell_meters = config.grid_cell_meters;
  pipeline.crowd = config.crowd;
  pipeline.sequences = config.sequences;
  pipeline.mining = config.mining;
  pipeline.mining_threads = config.mining_threads;
  pipeline.fixed_grid_bounds = fixed_bounds;
  ingest::IngestWorkerConfig worker_config;
  worker_config.queue_capacity = std::max<std::size_t>(8192, events.size());
  worker_config.drain_batch = worker_config.queue_capacity;
  ingest::IngestWorker worker(platform.experiment_dataset(), platform.mobility(),
                              platform.taxonomy(), pipeline, worker_config);
  if (Status status = worker.start(); !status.is_ok()) {
    errors.push_back("reference worker: " + status.to_string());
    return nullptr;
  }
  if (worker.submit(events).accepted != events.size()) {
    errors.push_back("reference worker refused events");
    return nullptr;
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (std::chrono::steady_clock::now() < deadline) {
    ingest::SnapshotPtr snapshot = worker.hub().current();
    if (snapshot != nullptr && snapshot->live_checkins >= events.size()) {
      worker.stop();
      return snapshot;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  errors.push_back("reference worker never published every event");
  return nullptr;
}

std::vector<std::string> served_crowd(std::uint16_t port, const core::Platform& platform,
                                      Errors& errors) {
  KeepAlive connection(port);
  std::vector<std::string> bodies;
  const int windows = platform.crowd_model().window_count();
  for (int w = 0; w < windows; ++w) {
    const auto reply = connection.get("/api/crowd/" + std::to_string(w) + "?final");
    if (!reply || reply->status != 200) {
      errors.push_back(crowdweb::format("final GET /api/crowd/{} failed", w));
      return {};
    }
    bodies.push_back(reply->body);
  }
  return bodies;
}

void check_bytes(const std::vector<std::string>& served, const std::vector<std::string>& expected,
                 const std::string& what, Errors& errors) {
  if (served.size() != expected.size()) {
    errors.push_back(crowdweb::format("{}: {} windows served, {} expected", what, served.size(),
                                      expected.size()));
    return;
  }
  for (std::size_t w = 0; w < served.size(); ++w) {
    if (served[w] != expected[w]) {
      errors.push_back(crowdweb::format("{}: /api/crowd/{} bytes differ", what, w));
      return;
    }
  }
}

}  // namespace e2e
