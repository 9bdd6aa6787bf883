#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "data/categories.hpp"
#include "data/csv.hpp"
#include "data/dataset.hpp"
#include "data/dataset_io.hpp"
#include "synth/generator.hpp"
#include "util/civil_time.hpp"
#include "util/rng.hpp"

namespace crowdweb::data {
namespace {

// ------------------------------------------------------------- Taxonomy

TEST(TaxonomyTest, FoursquareHasNineRoots) {
  const Taxonomy& tax = Taxonomy::foursquare();
  EXPECT_EQ(tax.roots().size(), 9u);
  EXPECT_GT(tax.size(), 60u);  // roots + leaves
}

TEST(TaxonomyTest, PaperCategoriesExist) {
  const Taxonomy& tax = Taxonomy::foursquare();
  // The labels the paper uses verbatim.
  for (const std::string_view name :
       {"Eatery", "Shop & Service", "Residence", "Thai Restaurant"}) {
    EXPECT_TRUE(tax.find(name).has_value()) << name;
  }
}

TEST(TaxonomyTest, RootOfLeafIsItsParent) {
  const Taxonomy& tax = Taxonomy::foursquare();
  const auto thai = tax.find("Thai Restaurant");
  const auto eatery = tax.find("Eatery");
  ASSERT_TRUE(thai && eatery);
  EXPECT_EQ(tax.root_of(*thai), *eatery);
  EXPECT_EQ(tax.root_of(*eatery), *eatery);  // roots map to themselves
}

TEST(TaxonomyTest, ChildrenBelongToRoot) {
  const Taxonomy& tax = Taxonomy::foursquare();
  for (const CategoryId root : tax.roots()) {
    EXPECT_FALSE(tax.children(root).empty());
    for (const CategoryId child : tax.children(root)) {
      EXPECT_EQ(tax.category(child).parent, root);
      EXPECT_EQ(tax.root_of(child), root);
    }
  }
}

TEST(TaxonomyTest, FindUnknownReturnsNullopt) {
  EXPECT_FALSE(Taxonomy::foursquare().find("Space Elevator").has_value());
}

TEST(TaxonomyTest, CreateValidation) {
  // Non-dense ids.
  EXPECT_FALSE(Taxonomy::create({{5, "X", kNoCategory}}).is_ok());
  // Parent referencing a later entry.
  EXPECT_FALSE(Taxonomy::create({{0, "Leaf", 1}, {1, "Root", kNoCategory}}).is_ok());
  // Three-level nesting is rejected.
  EXPECT_FALSE(
      Taxonomy::create({{0, "Root", kNoCategory}, {1, "Mid", 0}, {2, "Deep", 1}}).is_ok());
  // Empty names are rejected.
  EXPECT_FALSE(Taxonomy::create({{0, "", kNoCategory}}).is_ok());
  // A valid two-level tree works.
  const auto tax = Taxonomy::create({{0, "Root", kNoCategory}, {1, "Leaf", 0}});
  ASSERT_TRUE(tax.is_ok());
  EXPECT_EQ(tax->roots().size(), 1u);
  EXPECT_EQ(tax->children(0).size(), 1u);
}

// -------------------------------------------------------- DatasetBuilder

VenueSpec make_venue(VenueId id, CategoryId category, double lat = 40.7,
                     double lon = -74.0) {
  VenueSpec v;
  v.id = id;
  v.name = "venue " + std::to_string(id);
  v.category = category;
  v.position = {lat, lon};
  return v;
}

CheckIn make_checkin(UserId user, VenueId venue, CategoryId category, std::int64_t t,
                     double lat = 40.7, double lon = -74.0) {
  CheckIn c;
  c.user = user;
  c.venue = venue;
  c.category = category;
  c.position = {lat, lon};
  c.timestamp = t;
  return c;
}

CategoryId thai() { return *Taxonomy::foursquare().find("Thai Restaurant"); }
CategoryId office() { return *Taxonomy::foursquare().find("Office"); }

TEST(DatasetBuilderTest, RejectsNonDenseVenueIds) {
  DatasetBuilder builder;
  EXPECT_FALSE(builder.add_venue(make_venue(3, thai())).is_ok());
  EXPECT_TRUE(builder.add_venue(make_venue(0, thai())).is_ok());
  EXPECT_FALSE(builder.add_venue(make_venue(0, thai())).is_ok());  // duplicate
}

TEST(DatasetBuilderTest, RejectsBadVenues) {
  DatasetBuilder builder;
  EXPECT_FALSE(builder.add_venue(make_venue(0, thai(), 95.0, 0.0)).is_ok());  // bad lat
  VenueSpec no_category = make_venue(0, thai());
  no_category.category = kNoCategory;
  EXPECT_FALSE(builder.add_venue(no_category).is_ok());
}

TEST(DatasetBuilderTest, RejectsBadCheckins) {
  DatasetBuilder builder;
  ASSERT_TRUE(builder.add_venue(make_venue(0, thai())).is_ok());
  EXPECT_FALSE(builder.add_checkin(make_checkin(1, 7, thai(), 1000)).is_ok());  // no venue
  EXPECT_FALSE(builder.add_checkin(make_checkin(1, 0, office(), 1000)).is_ok());  // wrong cat
  EXPECT_FALSE(
      builder.add_checkin(make_checkin(1, 0, thai(), 1000, 99.0, 0.0)).is_ok());  // bad pos
  EXPECT_TRUE(builder.add_checkin(make_checkin(1, 0, thai(), 1000)).is_ok());
}

// ---------------------------------------------------------------- Dataset

Dataset two_user_dataset() {
  DatasetBuilder builder;
  EXPECT_TRUE(builder.add_venue(make_venue(0, thai(), 40.70, -74.00)).is_ok());
  EXPECT_TRUE(builder.add_venue(make_venue(1, office(), 40.75, -73.98)).is_ok());
  const std::int64_t day1 = to_epoch_seconds({2012, 4, 2, 9, 0, 0});
  const std::int64_t day2 = to_epoch_seconds({2012, 4, 3, 9, 0, 0});
  // User 5: 3 records over 2 days; user 9: 1 record.
  EXPECT_TRUE(builder.add_checkin(make_checkin(5, 1, office(), day1)).is_ok());
  EXPECT_TRUE(builder.add_checkin(make_checkin(5, 0, thai(), day1 + 3 * 3600)).is_ok());
  EXPECT_TRUE(builder.add_checkin(make_checkin(5, 1, office(), day2)).is_ok());
  EXPECT_TRUE(builder.add_checkin(make_checkin(9, 0, thai(), day2 + 1800)).is_ok());
  return builder.build();
}

TEST(DatasetTest, CountsAndUsers) {
  const Dataset d = two_user_dataset();
  EXPECT_EQ(d.checkin_count(), 4u);
  EXPECT_EQ(d.user_count(), 2u);
  EXPECT_EQ(d.venue_count(), 2u);
  ASSERT_EQ(d.users().size(), 2u);
  EXPECT_EQ(d.users()[0], 5u);
  EXPECT_EQ(d.users()[1], 9u);
}

TEST(DatasetTest, PerUserRecordsAreTimeSorted) {
  const Dataset d = two_user_dataset();
  const auto records = d.checkins_for(5);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_LT(records[0].timestamp, records[1].timestamp);
  EXPECT_LT(records[1].timestamp, records[2].timestamp);
  EXPECT_TRUE(d.checkins_for(12345).empty());
}

TEST(DatasetTest, VenueLookup) {
  const Dataset d = two_user_dataset();
  ASSERT_NE(d.venue(0), nullptr);
  EXPECT_EQ(d.venue(0)->category, thai());
  EXPECT_EQ(d.venue(99), nullptr);
}

TEST(DatasetTest, BoundsCoverAllPositions) {
  const Dataset d = two_user_dataset();
  for (const CheckIn& c : d.checkins()) EXPECT_TRUE(d.bounds().contains(c.position));
}

TEST(DatasetTest, StatsOnKnownCorpus) {
  const Dataset d = two_user_dataset();
  const DatasetStats s = d.stats();
  EXPECT_EQ(s.checkin_count, 4u);
  EXPECT_EQ(s.user_count, 2u);
  EXPECT_DOUBLE_EQ(s.mean_records_per_user, 2.0);
  EXPECT_DOUBLE_EQ(s.median_records_per_user, 2.0);
  EXPECT_EQ(s.collection_days, 2u);
}

TEST(DatasetTest, StatsEmptyDataset) {
  const Dataset d;
  const DatasetStats s = d.stats();
  EXPECT_EQ(s.checkin_count, 0u);
  EXPECT_EQ(s.collection_days, 0u);
}

TEST(DatasetTest, MonthlyCountsOrdered) {
  DatasetBuilder builder;
  ASSERT_TRUE(builder.add_venue(make_venue(0, thai())).is_ok());
  for (const int month : {6, 4, 4, 5, 4}) {
    ASSERT_TRUE(builder
                    .add_checkin(make_checkin(1, 0, thai(),
                                              to_epoch_seconds({2012, month, 10, 12, 0, 0})))
                    .is_ok());
  }
  const auto months = builder.build().monthly_counts();
  ASSERT_EQ(months.size(), 3u);
  EXPECT_EQ(months[0], (std::pair<std::string, std::size_t>{"2012-04", 3}));
  EXPECT_EQ(months[1], (std::pair<std::string, std::size_t>{"2012-05", 1}));
  EXPECT_EQ(months[2], (std::pair<std::string, std::size_t>{"2012-06", 1}));
}

TEST(DatasetTest, ActiveDaysWindowed) {
  const Dataset d = two_user_dataset();
  EXPECT_EQ(d.active_days(5), 2u);
  EXPECT_EQ(d.active_days(9), 1u);
  const std::int64_t day2 = to_epoch_seconds({2012, 4, 3, 0, 0, 0});
  EXPECT_EQ(d.active_days(5, day2), 1u);      // only day 2 onward
  EXPECT_EQ(d.active_days(5, 0, day2), 1u);   // only day 1
}

TEST(DatasetTest, ActiveUserCriteriaDayRule) {
  const Dataset d = two_user_dataset();
  ActiveUserCriteria criteria;
  criteria.from = 0;
  criteria.to = to_epoch_seconds({2013, 1, 1, 0, 0, 0});
  criteria.max_gap_seconds = 0;  // any recorded day counts
  criteria.min_days = 1;
  EXPECT_TRUE(d.is_active_user(5, criteria));   // 2 days > 1
  EXPECT_FALSE(d.is_active_user(9, criteria));  // 1 day is not > 1
}

TEST(DatasetTest, ActiveUserCriteriaGapRule) {
  DatasetBuilder builder;
  ASSERT_TRUE(builder.add_venue(make_venue(0, thai())).is_ok());
  const std::int64_t base = to_epoch_seconds({2012, 4, 2, 9, 0, 0});
  // Day 1: two check-ins 1h apart (qualifies under 2h rule).
  ASSERT_TRUE(builder.add_checkin(make_checkin(1, 0, thai(), base)).is_ok());
  ASSERT_TRUE(builder.add_checkin(make_checkin(1, 0, thai(), base + 3600)).is_ok());
  // Day 2: two check-ins 5h apart (does not qualify).
  ASSERT_TRUE(builder.add_checkin(make_checkin(1, 0, thai(), base + 86400)).is_ok());
  ASSERT_TRUE(builder.add_checkin(make_checkin(1, 0, thai(), base + 86400 + 5 * 3600)).is_ok());
  const Dataset d = builder.build();

  ActiveUserCriteria criteria;
  criteria.from = 0;
  criteria.to = base + 10 * 86400;
  criteria.max_gap_seconds = 2 * 3600;
  criteria.min_days = 0;
  EXPECT_TRUE(d.is_active_user(1, criteria));  // day 1 qualifies -> 1 > 0
  criteria.min_days = 1;
  EXPECT_FALSE(d.is_active_user(1, criteria));  // only one qualifying day
}

TEST(DatasetTest, FilterTimeRange) {
  const Dataset d = two_user_dataset();
  const std::int64_t day2 = to_epoch_seconds({2012, 4, 3, 0, 0, 0});
  const Dataset filtered = d.filter_time_range(0, day2);
  EXPECT_EQ(filtered.checkin_count(), 2u);
  for (const CheckIn& c : filtered.checkins()) EXPECT_LT(c.timestamp, day2);
  // Venues carry over.
  EXPECT_EQ(filtered.venue_count(), 2u);
}

TEST(DatasetTest, FilterUsers) {
  const Dataset d = two_user_dataset();
  const std::vector<UserId> keep{9};
  const Dataset filtered = d.filter_users(keep);
  EXPECT_EQ(filtered.user_count(), 1u);
  EXPECT_EQ(filtered.checkin_count(), 1u);
  EXPECT_EQ(filtered.users()[0], 9u);
}

TEST(DatasetTest, FilterActiveUsers) {
  const Dataset d = two_user_dataset();
  ActiveUserCriteria criteria;
  criteria.from = 0;
  criteria.to = to_epoch_seconds({2013, 1, 1, 0, 0, 0});
  criteria.max_gap_seconds = 0;
  criteria.min_days = 1;
  const Dataset active = d.filter_active_users(criteria);
  EXPECT_EQ(active.user_count(), 1u);
  EXPECT_EQ(active.users()[0], 5u);
}

// ------------------------------------------------- Filter oracle

// The record-at-a-time recipe the columnar filters replaced, kept as
// the reference: materialize every check-in, filter, regroup per user,
// and count days through a std::set.

struct Regrouped {
  std::vector<UserId> users;
  std::vector<std::vector<CheckIn>> records;  ///< parallel to users
  geo::BoundingBox bounds;
  std::size_t count = 0;
};

Regrouped regroup(const Dataset& d, const std::function<bool(const CheckIn&)>& keep) {
  Regrouped out;
  for (const CheckIn& c : d.checkins()) {
    if (!keep(c)) continue;
    if (out.users.empty() || out.users.back() != c.user) {
      out.users.push_back(c.user);
      out.records.emplace_back();
    }
    out.records.back().push_back(c);
    out.bounds.extend(c.position);
    ++out.count;
  }
  return out;
}

std::size_t reference_active_days(const Dataset& d, UserId user, std::int64_t from,
                                  std::int64_t to) {
  std::set<std::int64_t> days;
  for (const CheckIn& c : d.checkins_for(user)) {
    if (c.timestamp < from || (to != 0 && c.timestamp >= to)) continue;
    days.insert(day_index(c.timestamp));
  }
  return days.size();
}

bool reference_is_active(const Dataset& d, UserId user, const ActiveUserCriteria& criteria) {
  std::set<std::int64_t> qualifying;
  std::int64_t prev_time = 0;
  std::int64_t prev_day = -1;
  bool have_prev = false;
  for (const CheckIn& c : d.checkins_for(user)) {
    if (c.timestamp < criteria.from || c.timestamp >= criteria.to) {
      have_prev = false;
      continue;
    }
    const std::int64_t day = day_index(c.timestamp);
    if (criteria.max_gap_seconds <= 0 ||
        (have_prev && prev_day == day && c.timestamp - prev_time <= criteria.max_gap_seconds))
      qualifying.insert(day);
    prev_time = c.timestamp;
    prev_day = day;
    have_prev = true;
  }
  return static_cast<int>(qualifying.size()) > criteria.min_days;
}

/// `got` holds exactly the reference's users, records (every column)
/// and bounds, and shares `source`'s venue table and names.
void expect_matches(const Dataset& got, const Regrouped& want, const Dataset& source) {
  ASSERT_EQ(std::vector<UserId>(got.users().begin(), got.users().end()), want.users);
  EXPECT_EQ(got.checkin_count(), want.count);
  EXPECT_EQ(got.bounds(), want.bounds);
  EXPECT_EQ(got.venue_table(), source.venue_table());
  EXPECT_EQ(got.names(), source.names());
  for (std::size_t i = 0; i < want.users.size(); ++i) {
    const auto columns = got.checkins_for(want.users[i]);
    ASSERT_EQ(columns.size(), want.records[i].size()) << "user " << want.users[i];
    for (std::size_t k = 0; k < columns.size(); ++k)
      EXPECT_EQ(columns[k], want.records[i][k]) << "user " << want.users[i] << " record " << k;
  }
  // The (user, timestamp) view walks the same records.
  std::size_t k = 0;
  for (const std::vector<CheckIn>& records : want.records) {
    for (const CheckIn& c : records) EXPECT_EQ(got.checkins()[k++], c);
  }
}

/// Random corpus of 120 users with bursts of records: a third drawn
/// inside [from, to), a third across both edges, a third after `to`.
/// Users of the middle third each have one record exactly on `from` or
/// on `to`.
Dataset random_corpus(std::int64_t from, std::int64_t to, std::uint64_t seed) {
  Rng rng(seed);
  DatasetBuilder builder;
  const auto category_of = [](VenueId venue) { return venue % 2 == 0 ? thai() : office(); };
  for (VenueId v = 0; v < 16; ++v) {
    EXPECT_TRUE(builder
                    .add_venue(make_venue(v, category_of(v), rng.uniform(40.6, 40.9),
                                          rng.uniform(-74.1, -73.8)))
                    .is_ok());
  }
  const std::int64_t span = to - from;
  for (UserId user = 1; user <= 120; ++user) {
    const bool straddles = user % 3 == 0;
    const std::int64_t lo = user % 3 == 1 ? from : straddles ? from - span : to + 1;
    const std::int64_t hi = user % 3 == 1 ? to - 1 : to + span;
    const auto records = rng.uniform_int(1, 60);
    for (std::int64_t r = 0; r < records; ++r) {
      std::int64_t t = rng.uniform_int(lo, hi);
      if (r == 0 && straddles) t = user % 2 == 0 ? from : to;
      const auto venue = static_cast<VenueId>(rng.uniform_int(0, 15));
      const double lat = 40.6 + 0.01 * static_cast<double>(venue);
      const double lon = -74.0 + 0.01 * static_cast<double>(user % 7);
      EXPECT_TRUE(builder.add_checkin(make_checkin(user, venue, category_of(venue), t, lat, lon))
                      .is_ok());
      // Bursts: a second record 10 min to 3 h later on most draws.
      if (rng.uniform() < 0.7) {
        const std::int64_t later = t + rng.uniform_int(600, 3 * 3600);
        EXPECT_TRUE(
            builder.add_checkin(make_checkin(user, venue, category_of(venue), later)).is_ok());
      }
    }
  }
  return builder.build();
}

TEST(DatasetFilterOracleTest, TimeRangeMatchesMaterializeFilterRegroup) {
  const std::int64_t from = to_epoch_seconds({2012, 4, 1, 0, 0, 0});
  const std::int64_t to = to_epoch_seconds({2012, 5, 11, 0, 0, 0});
  const Dataset d = random_corpus(from, to, 7);
  const Dataset filtered = d.filter_time_range(from, to);
  expect_matches(filtered,
                 regroup(d, [&](const CheckIn& c) { return c.timestamp >= from && c.timestamp < to; }),
                 d);
  std::size_t shared = 0;
  std::size_t sliced = 0;
  for (const UserId user : d.users()) {
    const auto timestamps = d.checkins_for(user).timestamps();
    const bool inside = timestamps.front() >= from && timestamps.back() < to;
    const bool outside = timestamps.back() < from || timestamps.front() >= to;
    if (inside) {
      EXPECT_EQ(filtered.shard_for(user), d.shard_for(user)) << "user " << user;
      ++shared;
    } else if (outside) {
      EXPECT_EQ(filtered.shard_for(user), nullptr) << "user " << user;
    } else {
      EXPECT_NE(filtered.shard_for(user), d.shard_for(user)) << "user " << user;
      ++sliced;
    }
  }
  EXPECT_GT(shared, 0u);
  EXPECT_GT(sliced, 0u);
}

TEST(DatasetFilterOracleTest, TimeRangeEdgesAreHalfOpen) {
  DatasetBuilder builder;
  ASSERT_TRUE(builder.add_venue(make_venue(0, thai())).is_ok());
  const std::int64_t from = 1'000'000;
  const std::int64_t to = 2'000'000;
  for (const std::int64_t t : {from - 1, from, from + 1, to - 1, to, to + 1})
    ASSERT_TRUE(builder.add_checkin(make_checkin(1, 0, thai(), t)).is_ok());
  ASSERT_TRUE(builder.add_checkin(make_checkin(2, 0, thai(), to)).is_ok());    // only on `to`
  ASSERT_TRUE(builder.add_checkin(make_checkin(3, 0, thai(), from)).is_ok());  // only on `from`
  const Dataset d = builder.build();
  const Dataset filtered = d.filter_time_range(from, to);
  const auto kept = filtered.checkins_for(1).timestamps();
  EXPECT_EQ(std::vector<std::int64_t>(kept.begin(), kept.end()),
            (std::vector<std::int64_t>{from, from + 1, to - 1}));
  EXPECT_EQ(filtered.shard_for(2), nullptr);
  EXPECT_EQ(filtered.shard_for(3), d.shard_for(3));
  // An empty or inverted window keeps nothing.
  EXPECT_TRUE(d.filter_time_range(to, from).empty());
  EXPECT_TRUE(d.filter_time_range(from, from).empty());
  EXPECT_EQ(d.filter_time_range(from, from).bounds(), geo::BoundingBox{});
}

TEST(DatasetFilterOracleTest, ActiveUsersMatchSetCountingForEveryRule) {
  const std::int64_t from = to_epoch_seconds({2012, 4, 1, 0, 0, 0});
  const std::int64_t to = to_epoch_seconds({2012, 5, 11, 0, 0, 0});
  const Dataset d = random_corpus(from, to, 11);
  const Dataset windowed = d.filter_time_range(from, to);
  for (const std::int64_t gap : {std::int64_t{0}, std::int64_t{3600}, std::int64_t{2 * 3600}}) {
    for (const int min_days : {0, 3, 8, 15}) {
      ActiveUserCriteria criteria;
      criteria.from = from;
      criteria.to = to;
      criteria.max_gap_seconds = gap;
      criteria.min_days = min_days;
      for (const Dataset* source : {&d, &windowed}) {
        std::size_t selected = 0;
        for (const UserId user : source->users()) {
          const bool want = reference_is_active(*source, user, criteria);
          EXPECT_EQ(source->is_active_user(user, criteria), want)
              << "user " << user << " gap " << gap << " min_days " << min_days;
          selected += want ? 1 : 0;
        }
        const Dataset active = source->filter_active_users(criteria);
        expect_matches(active,
                       regroup(*source,
                               [&](const CheckIn& c) {
                                 return reference_is_active(*source, c.user, criteria);
                               }),
                       *source);
        for (const UserId user : active.users())
          EXPECT_EQ(active.shard_for(user), source->shard_for(user));
        EXPECT_EQ(active.user_count(), selected);
      }
    }
  }
}

TEST(DatasetFilterOracleTest, MinDaysBoundaryIsStrict) {
  // Exactly N qualifying days passes min_days = N - 1 and fails N.
  DatasetBuilder builder;
  ASSERT_TRUE(builder.add_venue(make_venue(0, thai())).is_ok());
  const std::int64_t start = to_epoch_seconds({2012, 4, 2, 9, 0, 0});
  for (int day = 0; day < 5; ++day) {
    const std::int64_t t = start + day * 86400;
    ASSERT_TRUE(builder.add_checkin(make_checkin(1, 0, thai(), t)).is_ok());
    ASSERT_TRUE(builder.add_checkin(make_checkin(1, 0, thai(), t + 1800)).is_ok());
    // A third record the same day must not count the day twice; its
    // gap (1801 s) leaves the first pair as the only one that qualifies.
    ASSERT_TRUE(builder.add_checkin(make_checkin(1, 0, thai(), t + 3601)).is_ok());
  }
  const Dataset d = builder.build();
  // A gap equal to max_gap_seconds still qualifies the day.
  for (const std::int64_t gap : {std::int64_t{0}, std::int64_t{1800}}) {
    ActiveUserCriteria criteria;
    criteria.from = start - 86400;
    criteria.to = start + 10 * 86400;
    criteria.max_gap_seconds = gap;
    criteria.min_days = 4;
    EXPECT_TRUE(d.is_active_user(1, criteria)) << "gap " << gap;
    EXPECT_EQ(d.filter_active_users(criteria).shard_for(1), d.shard_for(1));
    criteria.min_days = 5;
    EXPECT_FALSE(d.is_active_user(1, criteria)) << "gap " << gap;
    EXPECT_TRUE(d.filter_active_users(criteria).empty());
  }
}

TEST(DatasetFilterOracleTest, ActiveDaysMatchSetCounting) {
  const std::int64_t from = to_epoch_seconds({2012, 4, 1, 0, 0, 0});
  const std::int64_t to = to_epoch_seconds({2012, 5, 11, 0, 0, 0});
  const Dataset d = random_corpus(from, to, 13);
  for (const UserId user : d.users()) {
    for (const auto& [lo, hi] : {std::pair<std::int64_t, std::int64_t>{0, 0},
                                 {from, 0}, {0, to}, {from, to}, {to, from}}) {
      EXPECT_EQ(d.active_days(user, lo, hi), reference_active_days(d, user, lo, hi))
          << "user " << user << " [" << lo << ", " << hi << ")";
    }
  }
}

TEST(DatasetFilterOracleTest, FilterUsersSharesShards) {
  const std::int64_t from = to_epoch_seconds({2012, 4, 1, 0, 0, 0});
  const Dataset d = random_corpus(from, from + 30 * 86400, 17);
  // Unsorted, duplicated, and one unknown id.
  const std::vector<UserId> wanted{90, 3, 47, 3, 100'000, 12};
  const Dataset filtered = d.filter_users(wanted);
  expect_matches(filtered, regroup(d, [&](const CheckIn& c) {
                   return std::find(wanted.begin(), wanted.end(), c.user) != wanted.end();
                 }),
                 d);
  for (const UserId user : filtered.users()) EXPECT_EQ(filtered.shard_for(user), d.shard_for(user));
}

TEST(DatasetFilterOracleTest, SynthCorpusPhaseOneMatchesReference) {
  const auto corpus = synth::small_corpus(42);
  ASSERT_TRUE(corpus.is_ok());
  const Dataset& d = corpus->dataset;
  ActiveUserCriteria criteria;
  criteria.from = to_epoch_seconds({2012, 4, 1, 0, 0, 0});
  criteria.to = to_epoch_seconds({2012, 7, 1, 0, 0, 0});
  criteria.min_days = 20;
  const Dataset windowed = d.filter_time_range(criteria.from, criteria.to);
  expect_matches(windowed, regroup(d, [&](const CheckIn& c) {
                   return c.timestamp >= criteria.from && c.timestamp < criteria.to;
                 }),
                 d);
  const Dataset active = windowed.filter_active_users(criteria);
  expect_matches(active, regroup(windowed, [&](const CheckIn& c) {
                   return reference_is_active(windowed, c.user, criteria);
                 }),
                 windowed);
  EXPECT_GT(active.user_count(), 0u);
  EXPECT_LT(active.user_count(), windowed.user_count());
}

// -------------------------------------------------------------------- CSV

TEST(CsvTest, SimpleRoundTrip) {
  const std::vector<CsvRow> rows{{"a", "b"}, {"1", "2"}};
  const auto parsed = parse_csv(write_csv(rows));
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(*parsed, rows);
}

TEST(CsvTest, QuotingRoundTrip) {
  const std::vector<CsvRow> rows{{"with,comma", "with\"quote", "with\nnewline", "plain"}};
  const auto parsed = parse_csv(write_csv(rows));
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(*parsed, rows);
}

TEST(CsvTest, EmptyFieldsPreserved) {
  const auto parsed = parse_csv("a,,c\n,,\n");
  ASSERT_TRUE(parsed.is_ok());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[0], (CsvRow{"a", "", "c"}));
  EXPECT_EQ((*parsed)[1], (CsvRow{"", "", ""}));
}

TEST(CsvTest, NoTrailingNewline) {
  const auto parsed = parse_csv("a,b\nc,d");
  ASSERT_TRUE(parsed.is_ok());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[1], (CsvRow{"c", "d"}));
}

TEST(CsvTest, CrlfLineEndings) {
  const auto parsed = parse_csv("a,b\r\nc,d\r\n");
  ASSERT_TRUE(parsed.is_ok());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[0], (CsvRow{"a", "b"}));
}

TEST(CsvTest, EmptyInput) {
  const auto parsed = parse_csv("");
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_TRUE(parsed->empty());
}

TEST(CsvTest, MalformedQuotesRejected) {
  EXPECT_FALSE(parse_csv("a,\"unterminated\n").is_ok());
  EXPECT_FALSE(parse_csv("a,b\"stray\n").is_ok());
}

TEST(CsvTest, TsvDelimiter) {
  CsvOptions options;
  options.delimiter = '\t';
  const auto parsed = parse_csv("a\tb\nc\td\n", options);
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ((*parsed)[0], (CsvRow{"a", "b"}));
  EXPECT_EQ(write_csv({{"x", "y"}}, options), "x\ty\n");
}

class CsvFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CsvFuzzTest, RandomTablesRoundTrip) {
  Rng rng(GetParam());
  std::vector<CsvRow> rows;
  const int n_rows = static_cast<int>(rng.uniform_int(0, 20));
  for (int r = 0; r < n_rows; ++r) {
    CsvRow row;
    const int n_fields = static_cast<int>(rng.uniform_int(1, 6));
    for (int f = 0; f < n_fields; ++f) {
      std::string field;
      const int len = static_cast<int>(rng.uniform_int(0, 12));
      for (int i = 0; i < len; ++i) {
        // Bias toward the troublesome characters.
        const char pool[] = {'a', 'b', ',', '"', '\n', '\r', ' ', '\t', 'z'};
        field += pool[rng.uniform_int(0, std::size(pool) - 1)];
      }
      row.push_back(std::move(field));
    }
    rows.push_back(std::move(row));
  }
  const auto parsed = parse_csv(write_csv(rows));
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(*parsed, rows);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

// -------------------------------------------------------------- DatasetIO

TEST(DatasetIoTest, RoundTrip) {
  const Dataset original = two_user_dataset();
  const Taxonomy& tax = Taxonomy::foursquare();
  const std::string venues = venues_to_csv(original, tax);
  const std::string checkins = checkins_to_csv(original, tax);
  const auto restored = dataset_from_csv(venues, checkins, tax);
  ASSERT_TRUE(restored.is_ok()) << restored.status().to_string();
  EXPECT_EQ(restored->checkin_count(), original.checkin_count());
  EXPECT_EQ(restored->user_count(), original.user_count());
  EXPECT_EQ(restored->venue_count(), original.venue_count());
  // Record-level equality after the same (user, time) sort.
  const auto a = original.checkins();
  const auto b = restored->checkins();
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].user, b[i].user);
    EXPECT_EQ(a[i].venue, b[i].venue);
    EXPECT_EQ(a[i].timestamp, b[i].timestamp);
    EXPECT_NEAR(a[i].position.lat, b[i].position.lat, 1e-6);
  }
}

TEST(DatasetIoTest, RejectsUnknownCategory) {
  const std::string venues = "venue_id,name,category,lat,lon\n0,X,Martian Diner,40.7,-74.0\n";
  const std::string checkins = "user_id,venue_id,category,lat,lon,timestamp\n";
  EXPECT_FALSE(dataset_from_csv(venues, checkins, Taxonomy::foursquare()).is_ok());
}

TEST(DatasetIoTest, RejectsWrongHeader) {
  const std::string venues = "id,name,category,lat,lon\n";
  const std::string checkins = "user_id,venue_id,category,lat,lon,timestamp\n";
  EXPECT_FALSE(dataset_from_csv(venues, checkins, Taxonomy::foursquare()).is_ok());
}

TEST(DatasetIoTest, RejectsMalformedRows) {
  const Taxonomy& tax = Taxonomy::foursquare();
  const std::string venues =
      "venue_id,name,category,lat,lon\n0,X,Thai Restaurant,40.7,-74.0\n";
  const std::string bad_time =
      "user_id,venue_id,category,lat,lon,timestamp\n"
      "1,0,Thai Restaurant,40.7,-74.0,yesterday\n";
  EXPECT_FALSE(dataset_from_csv(venues, bad_time, tax).is_ok());
  const std::string missing_venue =
      "user_id,venue_id,category,lat,lon,timestamp\n"
      "1,7,Thai Restaurant,40.7,-74.0,2012-04-02 09:00:00\n";
  EXPECT_FALSE(dataset_from_csv(venues, missing_venue, tax).is_ok());
  const std::string short_row =
      "user_id,venue_id,category,lat,lon,timestamp\n1,0\n";
  EXPECT_FALSE(dataset_from_csv(venues, short_row, tax).is_ok());
}

TEST(DatasetIoTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/crowdweb_io_test.csv";
  ASSERT_TRUE(write_file(path, "hello\nworld\n").is_ok());
  const auto content = read_file(path);
  ASSERT_TRUE(content.is_ok());
  EXPECT_EQ(*content, "hello\nworld\n");
  EXPECT_FALSE(read_file("/nonexistent/path/file.csv").is_ok());
}

}  // namespace
}  // namespace crowdweb::data
