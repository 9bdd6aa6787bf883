#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>

#include "crowd/distribution.hpp"
#include "crowd/model.hpp"
#include "synth/generator.hpp"
#include "util/civil_time.hpp"
#include "util/log.hpp"

namespace crowdweb::crowd {
namespace {

class QuietLogs : public ::testing::Environment {
 public:
  void SetUp() override { set_log_level(LogLevel::kWarn); }
};
const auto* const kQuietLogs =
    ::testing::AddGlobalTestEnvironment(new QuietLogs);  // NOLINT(cert-err58-cpp)

// ----------------------------------------------------- CrowdDistribution

TEST(CrowdDistributionTest, AddAndCount) {
  CrowdDistribution dist(9);
  dist.add(5);
  dist.add(5);
  dist.add(7, 3);
  EXPECT_EQ(dist.window(), 9);
  EXPECT_EQ(dist.total(), 5u);
  EXPECT_EQ(dist.count(5), 2u);
  EXPECT_EQ(dist.count(7), 3u);
  EXPECT_EQ(dist.count(99), 0u);
  EXPECT_EQ(dist.occupied_cells(), 2u);
}

TEST(CrowdDistributionTest, TopCellsOrdering) {
  CrowdDistribution dist(0);
  dist.add(1, 5);
  dist.add(2, 9);
  dist.add(3, 5);
  const auto top = dist.top_cells(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].first, 2u);   // largest count first
  EXPECT_EQ(top[1].first, 1u);   // tie broken by cell id
  EXPECT_EQ(dist.top_cells(10).size(), 3u);
  EXPECT_TRUE(CrowdDistribution(0).top_cells(3).empty());
}

// ------------------------------------------------------------ FlowMatrix

TEST(FlowMatrixTest, CountsAndMarginals) {
  FlowMatrix flow(9, 12);
  flow.add(1, 2, 4);  // 4 users move 1 -> 2
  flow.add(1, 1, 3);  // 3 stay in 1
  flow.add(3, 1, 2);  // 2 arrive from 3
  EXPECT_EQ(flow.from_window(), 9);
  EXPECT_EQ(flow.to_window(), 12);
  EXPECT_EQ(flow.total(), 9u);
  EXPECT_EQ(flow.count(1, 2), 4u);
  EXPECT_EQ(flow.count(2, 1), 0u);
  EXPECT_EQ(flow.outflow(1), 4u);
  EXPECT_EQ(flow.inflow(1), 2u);
  EXPECT_EQ(flow.stayers(1), 3u);
}

TEST(FlowMatrixTest, TopFlowsExcludesStaysByDefault) {
  FlowMatrix flow(0, 1);
  flow.add(1, 1, 100);
  flow.add(1, 2, 5);
  flow.add(2, 3, 7);
  const auto top = flow.top_flows(10);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].first, (std::pair<geo::CellId, geo::CellId>{2, 3}));
  const auto with_stays = flow.top_flows(10, /*include_stays=*/true);
  ASSERT_EQ(with_stays.size(), 3u);
  EXPECT_EQ(with_stays[0].second, 100u);
}

// ------------------------------------------------------------ CrowdModel

struct Fixture {
  synth::SyntheticCorpus corpus;
  data::Dataset active;
  std::vector<patterns::UserMobility> mobility;
  geo::SpatialGrid grid;
  CrowdModel model;
};

/// Builds a full small-corpus crowd model once; reused across tests.
const Fixture& fixture() {
  static const Fixture* instance = [] {
    auto corpus = synth::small_corpus(7);
    EXPECT_TRUE(corpus.is_ok());
    data::ActiveUserCriteria criteria;
    criteria.from = to_epoch_seconds({2012, 4, 1, 0, 0, 0});
    criteria.to = to_epoch_seconds({2012, 7, 1, 0, 0, 0});
    criteria.min_days = 20;
    criteria.max_gap_seconds = 0;
    data::Dataset active = corpus->dataset.filter_active_users(criteria);
    EXPECT_GT(active.user_count(), 5u);

    patterns::MobilityOptions options;
    options.mining.min_support = 0.25;
    auto mobility =
        patterns::mine_all_mobility(active, data::Taxonomy::foursquare(), options);
    auto grid = geo::SpatialGrid::create(active.bounds().inflated(0.002), 500.0);
    EXPECT_TRUE(grid.is_ok());
    auto model = CrowdModel::build(active, mobility, *grid, CrowdOptions{});
    EXPECT_TRUE(model.is_ok());
    return new Fixture{std::move(corpus).value(), std::move(active), std::move(mobility),
                       *grid, std::move(model).value()};
  }();
  return *instance;
}

TEST(CrowdModelTest, RejectsBadWindowSize) {
  const Fixture& f = fixture();
  CrowdOptions options;
  options.window_minutes = 7;  // does not divide 1440
  EXPECT_FALSE(CrowdModel::build(f.active, f.mobility, f.grid, options).is_ok());
  options.window_minutes = 0;
  EXPECT_FALSE(CrowdModel::build(f.active, f.mobility, f.grid, options).is_ok());
}

TEST(CrowdModelTest, HourlyWindows) {
  const Fixture& f = fixture();
  EXPECT_EQ(f.model.window_count(), 24);
  EXPECT_EQ(f.model.window_label(9), "09:00-10:00");
  EXPECT_EQ(f.model.window_label(23), "23:00-24:00");
}

TEST(CrowdModelTest, PlacementsLandInValidCells) {
  const Fixture& f = fixture();
  EXPECT_GT(f.model.total_placements(), 0u);
  for (int window = 0; window < f.model.window_count(); ++window) {
    for (const CrowdPlacement& placement : f.model.placements(window)) {
      EXPECT_LT(placement.cell, f.grid.cell_count());
      EXPECT_NE(f.active.venue(placement.venue), nullptr);
      EXPECT_GE(placement.pattern_support, f.model.options().min_pattern_support);
    }
  }
  EXPECT_TRUE(f.model.placements(-1).empty());
  EXPECT_TRUE(f.model.placements(24).empty());
}

TEST(CrowdModelTest, MassConservation) {
  // Distribution totals equal placement counts per window (no user lost).
  const Fixture& f = fixture();
  for (int window = 0; window < f.model.window_count(); ++window) {
    const CrowdDistribution dist = f.model.distribution(window);
    EXPECT_EQ(dist.total(), f.model.placements(window).size());
    std::size_t sum = 0;
    for (const auto& [cell, count] : dist.cells()) sum += count;
    EXPECT_EQ(sum, dist.total());
  }
}

TEST(CrowdModelTest, UsersAppearAtMostOncePerWindowAndLabel) {
  const Fixture& f = fixture();
  for (int window = 0; window < f.model.window_count(); ++window) {
    std::set<std::pair<data::UserId, mining::Item>> seen;
    for (const CrowdPlacement& placement : f.model.placements(window)) {
      EXPECT_TRUE(seen.insert({placement.user, placement.label}).second)
          << "duplicate placement in window " << window;
    }
  }
}

TEST(CrowdModelTest, MorningCrowdGathersAtWorkplaces) {
  const Fixture& f = fixture();
  const data::Taxonomy& tax = data::Taxonomy::foursquare();
  const mining::Item professional = *tax.find("Professional & Other Places");
  const mining::Item residence = *tax.find("Residence");
  std::size_t morning_professional = 0, morning_total = 0;
  std::size_t evening_residence = 0, evening_total = 0;
  for (const CrowdPlacement& p : f.model.placements(9)) {
    morning_professional += p.label == professional ? 1 : 0;
    ++morning_total;
  }
  for (const CrowdPlacement& p : f.model.placements(20)) {
    evening_residence += p.label == residence ? 1 : 0;
    ++evening_total;
  }
  ASSERT_GT(morning_total, 0u);
  ASSERT_GT(evening_total, 0u);
  // The 9-10 window is dominated by workplaces, the 20-21 one by homes.
  EXPECT_GT(static_cast<double>(morning_professional) / static_cast<double>(morning_total), 0.4);
  EXPECT_GT(static_cast<double>(evening_residence) / static_cast<double>(evening_total), 0.4);
}

TEST(CrowdModelTest, CrowdMovesWhenWindowChanges) {
  // The paper's Figures 3 vs 4: different windows, different distributions.
  const Fixture& f = fixture();
  const CrowdDistribution morning = f.model.distribution(9);
  const CrowdDistribution evening = f.model.distribution(20);
  ASSERT_GT(morning.total(), 0u);
  ASSERT_GT(evening.total(), 0u);
  // Top morning cell differs from top evening cell (work vs home).
  const auto top_morning = morning.top_cells(1);
  const auto top_evening = evening.top_cells(1);
  ASSERT_FALSE(top_morning.empty());
  ASSERT_FALSE(top_evening.empty());
  std::size_t overlap = 0;
  for (const auto& [cell, count] : morning.cells())
    overlap += evening.count(cell) > 0 ? 1 : 0;
  EXPECT_LT(overlap, morning.occupied_cells());  // not the same footprint
}

TEST(CrowdModelTest, FlowTracksUsersPresentInBothWindows) {
  const Fixture& f = fixture();
  const FlowMatrix flow = f.model.flow(9, 12);
  // Total tracked users cannot exceed either window's distinct users.
  std::set<data::UserId> in_nine, in_twelve;
  for (const CrowdPlacement& p : f.model.placements(9)) in_nine.insert(p.user);
  for (const CrowdPlacement& p : f.model.placements(12)) in_twelve.insert(p.user);
  EXPECT_LE(flow.total(), in_nine.size());
  EXPECT_LE(flow.total(), std::max(in_nine.size(), in_twelve.size()));
  // Flow marginals add up: every tracked user has exactly one move.
  std::size_t sum = 0;
  for (const auto& [pair, count] : flow.flows()) sum += count;
  EXPECT_EQ(sum, flow.total());
}

TEST(CrowdModelTest, GroupsPartitionPlacements) {
  const Fixture& f = fixture();
  const auto groups = f.model.groups(9, 1);  // min_size 1: full partition
  std::size_t grouped = 0;
  for (const CrowdGroup& group : groups) {
    grouped += group.users.size();
    // Users within a group are unique and sorted.
    for (std::size_t i = 1; i < group.users.size(); ++i)
      EXPECT_LT(group.users[i - 1], group.users[i]);
  }
  EXPECT_EQ(grouped, f.model.placements(9).size());
  // Largest group first.
  for (std::size_t i = 1; i < groups.size(); ++i)
    EXPECT_GE(groups[i - 1].users.size(), groups[i].users.size());
}

TEST(CrowdModelTest, GroupsRespectMinSize) {
  const Fixture& f = fixture();
  for (const CrowdGroup& group : f.model.groups(9, 3))
    EXPECT_GE(group.users.size(), 3u);
}

TEST(CrowdModelTest, HigherSupportThresholdShrinksCrowd) {
  const Fixture& f = fixture();
  CrowdOptions strict;
  strict.min_pattern_support = 0.8;
  const auto strict_model = CrowdModel::build(f.active, f.mobility, f.grid, strict);
  ASSERT_TRUE(strict_model.is_ok());
  EXPECT_LT(strict_model->total_placements(), f.model.total_placements());
}

TEST(CrowdModelTest, RhythmMatrixConservesPlacements) {
  const Fixture& f = fixture();
  const CrowdModel::Rhythm rhythm = f.model.rhythm();
  ASSERT_FALSE(rhythm.labels.empty());
  ASSERT_EQ(rhythm.counts.size(), rhythm.labels.size());
  EXPECT_TRUE(std::is_sorted(rhythm.labels.begin(), rhythm.labels.end()));
  std::size_t total = 0;
  for (const auto& row : rhythm.counts) {
    ASSERT_EQ(row.size(), static_cast<std::size_t>(f.model.window_count()));
    for (const std::size_t count : row) total += count;
  }
  EXPECT_EQ(total, f.model.total_placements());
  // Column sums match the per-window distributions.
  for (int w = 0; w < f.model.window_count(); ++w) {
    std::size_t column = 0;
    for (const auto& row : rhythm.counts) column += row[w];
    EXPECT_EQ(column, f.model.distribution(w).total());
  }
}

TEST(CrowdModelTest, HalfHourWindows) {
  const Fixture& f = fixture();
  CrowdOptions options;
  options.window_minutes = 30;
  const auto model = CrowdModel::build(f.active, f.mobility, f.grid, options);
  ASSERT_TRUE(model.is_ok());
  EXPECT_EQ(model->window_count(), 48);
  EXPECT_EQ(model->window_label(19), "09:30-10:00");
  // Finer windows can only split (window, label) dedupe buckets, never
  // merge them, so the placement count is monotone in granularity.
  EXPECT_GE(model->total_placements(), f.model.total_placements());
}


// ------------------------------------------------- Single placement path

/// The expanded-set placement loop the support-frontier index replaced,
/// kept as the reference recipe: walk the stored patterns in order, skip
/// those below min_pattern_support, and place each element at the first
/// unseen (window, label) — at the user's most-visited venue of that root
/// label in that window, else at any time, ties to the smallest venue id
/// — with the pattern's mined support.
std::vector<std::vector<CrowdPlacement>> reference_placements(
    const data::Dataset& dataset, std::span<const patterns::UserMobility> mobility,
    const geo::SpatialGrid& grid, const CrowdOptions& options) {
  const data::Taxonomy& taxonomy = data::Taxonomy::foursquare();
  const int windows = 24 * 60 / options.window_minutes;
  std::vector<std::vector<CrowdPlacement>> out(static_cast<std::size_t>(windows));
  for (const patterns::UserMobility& user : mobility) {
    std::map<std::pair<mining::Item, int>, std::map<data::VenueId, std::size_t>> in_window;
    std::map<mining::Item, std::map<data::VenueId, std::size_t>> any_time;
    const auto records = dataset.checkins_for(user.user);
    for (std::size_t i = 0; i < records.size(); ++i) {
      const data::VenueId venue = records.venue(i);
      const mining::Item label = taxonomy.root_of(dataset.venue(venue)->category);
      ++in_window[{label, minute_of_day(records.timestamp(i)) / options.window_minutes}][venue];
      ++any_time[label][venue];
    }
    const auto most_visited = [](const std::map<data::VenueId, std::size_t>& counts) {
      data::VenueId best = counts.begin()->first;
      std::size_t best_count = 0;
      for (const auto& [venue, count] : counts) {
        if (count > best_count) {
          best = venue;
          best_count = count;
        }
      }
      return best;
    };
    std::set<std::pair<int, mining::Item>> placed;
    for (const patterns::MobilityPattern& pattern : user.patterns) {
      if (pattern.support < options.min_pattern_support) continue;
      for (const patterns::TimedElement& element : pattern.elements) {
        const int window = std::clamp(
            static_cast<int>(element.mean_minute) / options.window_minutes, 0, windows - 1);
        if (!placed.insert({window, element.label}).second) continue;
        data::VenueId venue_id = 0;
        if (const auto it = in_window.find({element.label, window}); it != in_window.end())
          venue_id = most_visited(it->second);
        else if (const auto any = any_time.find(element.label); any != any_time.end())
          venue_id = most_visited(any->second);
        else
          continue;
        const data::Venue* venue = dataset.venue(venue_id);
        out[static_cast<std::size_t>(window)].push_back(
            {user.user, element.label, venue_id, venue->position,
             grid.clamped_cell_of(venue->position), pattern.support});
      }
    }
  }
  return out;
}

/// A dense routine corpus: each user repeats a personal weekday routine
/// of 6-8 distinct venues (3-4 at weekends) at jittered times, with 15%
/// irregular days — the regime where the frequent set explodes into
/// every subsequence of the routine and the frontier prunes hardest.
data::Dataset dense_routine_corpus(std::size_t users, int days) {
  std::mt19937 rng(515);
  const std::vector<data::CategoryId>& roots = data::Taxonomy::foursquare().roots();
  data::DatasetBuilder builder;
  std::vector<data::VenueSpec> venues;
  for (std::size_t v = 0; v < 10; ++v) {
    data::VenueSpec venue;
    venue.id = static_cast<data::VenueId>(v);
    venue.name = "venue-" + std::to_string(v);
    venue.category = roots[v % roots.size()];
    venue.position = {40.70 + 0.004 * static_cast<double>(v),
                      -74.00 + 0.003 * static_cast<double>(v % 4)};
    EXPECT_TRUE(builder.add_venue(venue).is_ok());
    venues.push_back(venue);
  }
  const std::int64_t first_day = to_epoch_seconds({2012, 4, 2, 0, 0, 0});
  std::uniform_int_distribution<int> jitter(-25, 25);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (std::size_t u = 0; u < users; ++u) {
    std::vector<std::size_t> deck{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
    std::shuffle(deck.begin(), deck.end(), rng);
    const std::vector<std::size_t> weekday(deck.begin(), deck.begin() + 6 + u % 3);
    const std::vector<std::size_t> weekend(deck.begin(), deck.begin() + 3 + u % 2);
    for (int d = 0; d < days; ++d) {
      std::vector<std::size_t> day = d % 7 < 5 ? weekday : weekend;
      if (coin(rng) < 0.15) {
        day.resize(2 + static_cast<std::size_t>(rng() % 4));
        for (std::size_t& stop : day) stop = rng() % venues.size();
      }
      for (std::size_t i = 0; i < day.size(); ++i) {
        const data::VenueSpec& venue = venues[day[i]];
        data::CheckIn checkin;
        checkin.user = static_cast<data::UserId>(u);
        checkin.venue = venue.id;
        checkin.category = venue.category;
        checkin.position = venue.position;
        const int minute = 420 + static_cast<int>(i) * 80 + jitter(rng);
        checkin.timestamp = first_day + static_cast<std::int64_t>(d) * 86'400 + minute * 60;
        EXPECT_TRUE(builder.add_checkin(checkin).is_ok());
      }
    }
  }
  return builder.build();
}

void expect_placements_match_reference(const data::Dataset& dataset,
                                       const std::vector<patterns::UserMobility>& mobility) {
  auto grid = geo::SpatialGrid::create(dataset.bounds().inflated(0.002), 500.0);
  ASSERT_TRUE(grid.is_ok());
  std::size_t placed = 0;
  for (const int window_minutes : {30, 60, 120}) {
    for (const double min_support : {0.0, 0.3, 0.6}) {
      SCOPED_TRACE(testing::Message() << "window " << window_minutes << " min support "
                                      << min_support);
      const CrowdOptions options{window_minutes, min_support};
      const auto model = CrowdModel::build(dataset, mobility, *grid, options);
      ASSERT_TRUE(model.is_ok());
      const auto reference = reference_placements(dataset, mobility, *grid, options);
      ASSERT_EQ(model->window_count(), static_cast<int>(reference.size()));
      for (int w = 0; w < model->window_count(); ++w) {
        const auto actual = model->placements(w);
        const auto& expected = reference[static_cast<std::size_t>(w)];
        ASSERT_EQ(actual.size(), expected.size()) << "window " << w;
        for (std::size_t i = 0; i < actual.size(); ++i) {
          EXPECT_EQ(actual[i].user, expected[i].user);
          EXPECT_EQ(actual[i].label, expected[i].label);
          EXPECT_EQ(actual[i].venue, expected[i].venue);
          EXPECT_EQ(actual[i].position.lat, expected[i].position.lat);
          EXPECT_EQ(actual[i].position.lon, expected[i].position.lon);
          EXPECT_EQ(actual[i].cell, expected[i].cell);
          EXPECT_EQ(actual[i].pattern_support, expected[i].pattern_support);
        }
      }
      placed += model->total_placements();
    }
  }
  EXPECT_GT(placed, 0u);
}

TEST(CrowdPlacementOracleTest, IndexMatchesTheExpandedLoopOnTheSmallCorpus) {
  const Fixture& f = fixture();
  for (const char* miner : {"prefixspan", "gsp"}) {
    SCOPED_TRACE(miner);
    patterns::MobilityOptions options;
    options.mining.algorithm = miner;
    options.mining.min_support = 0.25;
    expect_placements_match_reference(
        f.active, patterns::mine_all_mobility(f.active, data::Taxonomy::foursquare(), options));
  }
}

TEST(CrowdPlacementOracleTest, IndexMatchesTheExpandedLoopOnADenseRoutineCorpus) {
  const data::Dataset dense = dense_routine_corpus(12, 42);
  for (const char* miner : {"prefixspan", "gsp"}) {
    SCOPED_TRACE(miner);
    patterns::MobilityOptions options;
    options.mining.algorithm = miner;
    options.mining.min_support = 0.25;
    const auto mobility =
        patterns::mine_all_mobility(dense, data::Taxonomy::foursquare(), options);
    // The frontier must actually prune here, or the test proves little.
    std::size_t elements = 0;
    std::size_t candidates = 0;
    for (const patterns::UserMobility& entry : mobility) {
      for (const patterns::MobilityPattern& pattern : entry.patterns)
        elements += pattern.elements.size();
      candidates += entry.placement_index.size();
    }
    EXPECT_LT(candidates * 4, elements);
    expect_placements_match_reference(dense, mobility);
  }
}

}  // namespace
}  // namespace crowdweb::crowd
