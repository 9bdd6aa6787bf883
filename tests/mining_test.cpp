#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "data/dataset.hpp"
#include "mining/bide.hpp"
#include "mining/gsp.hpp"
#include "mining/naive.hpp"
#include "mining/pattern.hpp"
#include "mining/prefixspan.hpp"
#include "mining/registry.hpp"
#include "mining/seqdb.hpp"
#include "mining/spade.hpp"
#include "util/civil_time.hpp"
#include "util/rng.hpp"

namespace crowdweb::mining {
namespace {

// ---------------------------------------------------------------- Pattern

TEST(PatternTest, IsSubsequenceBasics) {
  const std::vector<Item> haystack{1, 2, 3, 2, 4};
  EXPECT_TRUE(is_subsequence(std::vector<Item>{}, haystack));
  EXPECT_TRUE(is_subsequence(std::vector<Item>{1}, haystack));
  EXPECT_TRUE(is_subsequence(std::vector<Item>{1, 3, 4}, haystack));
  EXPECT_TRUE(is_subsequence(std::vector<Item>{2, 2}, haystack));
  EXPECT_FALSE(is_subsequence(std::vector<Item>{3, 1}, haystack));  // order matters
  EXPECT_FALSE(is_subsequence(std::vector<Item>{5}, haystack));
  EXPECT_FALSE(is_subsequence(std::vector<Item>{1, 1}, haystack));  // multiplicity matters
  EXPECT_FALSE(is_subsequence(std::vector<Item>{1}, std::vector<Item>{}));
}

TEST(PatternTest, CountSupportCountsSequencesOnce) {
  const SequenceDb db{{1, 2, 1, 2}, {2, 1}, {3}};
  EXPECT_EQ(count_support(std::vector<Item>{1, 2}, db), 1u);  // only first sequence
  EXPECT_EQ(count_support(std::vector<Item>{2}, db), 2u);
  EXPECT_EQ(count_support(std::vector<Item>{3}, db), 1u);
  EXPECT_EQ(count_support(std::vector<Item>{4}, db), 0u);
}

TEST(PatternTest, SortPatternsCanonicalOrder) {
  std::vector<Pattern> patterns{{{2, 1}, 1, 0.5}, {{1}, 2, 1.0}, {{1, 2}, 1, 0.5}, {{2}, 1, 0.5}};
  sort_patterns(patterns);
  ASSERT_EQ(patterns.size(), 4u);
  EXPECT_EQ(patterns[0].items, (std::vector<Item>{1}));
  EXPECT_EQ(patterns[1].items, (std::vector<Item>{2}));
  EXPECT_EQ(patterns[2].items, (std::vector<Item>{1, 2}));
  EXPECT_EQ(patterns[3].items, (std::vector<Item>{2, 1}));
}

TEST(PatternTest, ClosedAndMaximalFilters) {
  // db: {a b} x2, {a} x1 -> patterns: a(3), b(2), ab(2).
  const SequenceDb db{{1, 2}, {1, 2}, {1}};
  MiningOptions options;
  options.min_support = 0.5;
  const auto all = prefixspan(db, options);
  ASSERT_EQ(all.size(), 3u);

  const auto closed = closed_patterns(all);
  // b(2) is subsumed by ab(2) (same support); a(3) is closed.
  ASSERT_EQ(closed.size(), 2u);
  EXPECT_EQ(closed[0].items, (std::vector<Item>{1}));
  EXPECT_EQ(closed[1].items, (std::vector<Item>{1, 2}));

  const auto maximal = maximal_patterns(all);
  // Only ab survives: a and b have the frequent super-pattern ab.
  ASSERT_EQ(maximal.size(), 1u);
  EXPECT_EQ(maximal[0].items, (std::vector<Item>{1, 2}));
}

// ------------------------------------------------------------- PrefixSpan

TEST(PrefixSpanTest, EmptyDatabase) {
  EXPECT_TRUE(prefixspan(SequenceDb{}, {}).empty());
}

TEST(PrefixSpanTest, TextbookExample) {
  // Classic PrefixSpan paper-style db (single-item elements).
  const SequenceDb db{{1, 2, 3}, {1, 3, 2}, {1, 2, 2}, {4}};
  MiningOptions options;
  options.min_support = 0.5;  // min count 2
  const auto patterns = prefixspan(db, options);

  const auto find = [&](std::vector<Item> items) -> const Pattern* {
    for (const Pattern& p : patterns)
      if (p.items == items) return &p;
    return nullptr;
  };
  ASSERT_NE(find({1}), nullptr);
  EXPECT_EQ(find({1})->support_count, 3u);
  ASSERT_NE(find({2}), nullptr);
  EXPECT_EQ(find({2})->support_count, 3u);
  ASSERT_NE(find({3}), nullptr);
  EXPECT_EQ(find({3})->support_count, 2u);
  ASSERT_NE(find({1, 2}), nullptr);
  EXPECT_EQ(find({1, 2})->support_count, 3u);
  ASSERT_NE(find({1, 3}), nullptr);
  EXPECT_EQ(find({1, 3})->support_count, 2u);
  EXPECT_EQ(find({4}), nullptr);       // support 1 < 2
  EXPECT_EQ(find({2, 3}), nullptr);    // only in sequence 0
  EXPECT_EQ(find({2, 2}), nullptr);    // only in sequence 2
}

TEST(PrefixSpanTest, SupportsAreExact) {
  Rng rng(7);
  SequenceDb db;
  for (int s = 0; s < 40; ++s) {
    std::vector<Item> sequence;
    const int length = static_cast<int>(rng.uniform_int(0, 8));
    for (int i = 0; i < length; ++i)
      sequence.push_back(static_cast<Item>(rng.uniform_int(0, 4)));
    db.push_back(std::move(sequence));
  }
  MiningOptions options;
  options.min_support = 0.2;
  for (const Pattern& pattern : prefixspan(db, options)) {
    EXPECT_EQ(pattern.support_count, count_support(pattern.items, db));
    EXPECT_DOUBLE_EQ(pattern.support,
                     static_cast<double>(pattern.support_count) / static_cast<double>(db.size()));
  }
}

TEST(PrefixSpanTest, MaxLengthCap) {
  const SequenceDb db{{1, 1, 1, 1, 1}, {1, 1, 1, 1, 1}};
  MiningOptions options;
  options.min_support = 1.0;
  options.max_pattern_length = 3;
  const auto patterns = prefixspan(db, options);
  ASSERT_EQ(patterns.size(), 3u);
  EXPECT_EQ(patterns.back().items.size(), 3u);
}

TEST(PrefixSpanTest, MaxPatternsCap) {
  SequenceDb db;
  std::vector<Item> alphabet_sequence;
  for (Item i = 0; i < 12; ++i) alphabet_sequence.push_back(i);
  db.push_back(alphabet_sequence);
  MiningOptions options;
  options.min_support = 1.0;
  options.max_patterns = 50;
  EXPECT_EQ(prefixspan(db, options).size(), 50u);
}

TEST(PrefixSpanTest, MinSupportOneRequiresAllSequences) {
  const SequenceDb db{{1, 2}, {1, 3}, {1}};
  MiningOptions options;
  options.min_support = 1.0;
  const auto patterns = prefixspan(db, options);
  ASSERT_EQ(patterns.size(), 1u);
  EXPECT_EQ(patterns[0].items, (std::vector<Item>{1}));
}

// Anti-monotonicity property: raising min_support can only shrink the
// result, and every pattern's own support obeys the threshold.
class SupportSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(SupportSweepTest, AntiMonotoneAndThresholded) {
  Rng rng(1234);
  SequenceDb db;
  for (int s = 0; s < 60; ++s) {
    std::vector<Item> sequence;
    const int length = static_cast<int>(rng.uniform_int(1, 7));
    for (int i = 0; i < length; ++i)
      sequence.push_back(static_cast<Item>(rng.uniform_int(0, 5)));
    db.push_back(std::move(sequence));
  }
  const double support = GetParam();
  MiningOptions options;
  options.min_support = support;
  const auto patterns = prefixspan(db, options);
  for (const Pattern& pattern : patterns)
    EXPECT_GE(pattern.support, support - 1e-12);

  // Tighter threshold yields a subset.
  MiningOptions tighter = options;
  tighter.min_support = std::min(1.0, support + 0.15);
  const auto fewer = prefixspan(db, tighter);
  EXPECT_LE(fewer.size(), patterns.size());
  for (const Pattern& pattern : fewer) {
    const bool present = std::any_of(patterns.begin(), patterns.end(),
                                     [&](const Pattern& p) { return p.items == pattern.items; });
    EXPECT_TRUE(present);
  }

  // Every prefix of a frequent pattern is itself frequent (and present).
  for (const Pattern& pattern : patterns) {
    if (pattern.items.size() < 2) continue;
    std::vector<Item> prefix(pattern.items.begin(), pattern.items.end() - 1);
    const bool present = std::any_of(patterns.begin(), patterns.end(),
                                     [&](const Pattern& p) { return p.items == prefix; });
    EXPECT_TRUE(present);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SupportSweepTest,
                         ::testing::Values(0.1, 0.25, 0.375, 0.5, 0.625, 0.75, 0.9));

TEST(PatternTest, ClosedMaximalPropertiesOnRandomDbs) {
  Rng rng(4242);
  for (int trial = 0; trial < 20; ++trial) {
    SequenceDb db;
    for (int s2 = 0; s2 < 25; ++s2) {
      std::vector<Item> sequence;
      const int length = static_cast<int>(rng.uniform_int(0, 6));
      for (int i = 0; i < length; ++i)
        sequence.push_back(static_cast<Item>(rng.uniform_int(0, 3)));
      db.push_back(std::move(sequence));
    }
    MiningOptions options;
    options.min_support = 0.2;
    const auto all = prefixspan(db, options);
    const auto closed = closed_patterns(all);
    const auto maximal = maximal_patterns(all);

    // maximal subset-of closed subset-of all.
    EXPECT_LE(maximal.size(), closed.size());
    EXPECT_LE(closed.size(), all.size());
    const auto contains = [](const std::vector<Pattern>& set, const Pattern& p) {
      return std::any_of(set.begin(), set.end(),
                         [&](const Pattern& q) { return q.items == p.items; });
    };
    for (const Pattern& p : maximal) EXPECT_TRUE(contains(closed, p));
    for (const Pattern& p : closed) EXPECT_TRUE(contains(all, p));

    // Definition check against brute force.
    for (const Pattern& candidate : all) {
      const bool has_equal_support_super = std::any_of(
          all.begin(), all.end(), [&](const Pattern& other) {
            return other.items.size() > candidate.items.size() &&
                   other.support_count == candidate.support_count &&
                   is_subsequence(candidate.items, other.items);
          });
      EXPECT_EQ(!has_equal_support_super, contains(closed, candidate));
      const bool has_any_super = std::any_of(
          all.begin(), all.end(), [&](const Pattern& other) {
            return other.items.size() > candidate.items.size() &&
                   is_subsequence(candidate.items, other.items);
          });
      EXPECT_EQ(!has_any_super, contains(maximal, candidate));
    }
  }
}

// ------------------------------------------------- Miner cross-validation

struct MinerCase {
  std::uint64_t seed;
  double min_support;
  int sequences;
  int alphabet;
};

class MinerEquivalenceTest : public ::testing::TestWithParam<MinerCase> {};

TEST_P(MinerEquivalenceTest, PrefixSpanGspNaiveAgree) {
  const MinerCase param = GetParam();
  Rng rng(param.seed);
  SequenceDb db;
  for (int s = 0; s < param.sequences; ++s) {
    std::vector<Item> sequence;
    const int length = static_cast<int>(rng.uniform_int(0, 9));
    for (int i = 0; i < length; ++i)
      sequence.push_back(static_cast<Item>(rng.uniform_int(0, param.alphabet - 1)));
    db.push_back(std::move(sequence));
  }
  MiningOptions options;
  options.min_support = param.min_support;

  const auto a = prefixspan(db, options);
  const auto b = gsp(db, options);
  const auto c = naive_miner(db, options);
  const auto d = spade(db, options);
  EXPECT_EQ(a, b) << "PrefixSpan vs GSP";
  EXPECT_EQ(a, c) << "PrefixSpan vs naive";
  EXPECT_EQ(a, d) << "PrefixSpan vs SPADE";
}

INSTANTIATE_TEST_SUITE_P(
    RandomDbs, MinerEquivalenceTest,
    ::testing::Values(MinerCase{1, 0.5, 20, 4}, MinerCase{2, 0.25, 30, 5},
                      MinerCase{3, 0.75, 25, 3}, MinerCase{4, 0.4, 40, 6},
                      MinerCase{5, 0.1, 15, 4}, MinerCase{6, 0.6, 50, 8},
                      MinerCase{7, 0.33, 35, 5}, MinerCase{8, 0.2, 10, 10}));

// ------------------------------------------------------------------ SPADE

TEST(SpadeTest, EmptyDatabase) { EXPECT_TRUE(spade({}, {}).empty()); }

TEST(SpadeTest, MatchesPrefixSpanOnTextbookExample) {
  const SequenceDb db{{1, 2, 3}, {1, 3, 2}, {1, 2, 2}, {4}};
  MiningOptions options;
  options.min_support = 0.5;
  EXPECT_EQ(spade(db, options), prefixspan(db, options));
}

TEST(SpadeTest, RepeatedItemsWithinSequence) {
  // The id-list join must count a sequence once however many embeddings
  // it contains.
  const SequenceDb db{{1, 1, 1}, {1, 1}, {2}};
  MiningOptions options;
  options.min_support = 0.6;  // min count 2
  const auto patterns = spade(db, options);
  ASSERT_EQ(patterns.size(), 2u);
  EXPECT_EQ(patterns[0].items, (std::vector<Item>{1}));
  EXPECT_EQ(patterns[0].support_count, 2u);
  EXPECT_EQ(patterns[1].items, (std::vector<Item>{1, 1}));
  EXPECT_EQ(patterns[1].support_count, 2u);
}

TEST(SpadeTest, RespectsCaps) {
  const SequenceDb db{{1, 1, 1, 1, 1}};
  MiningOptions options;
  options.min_support = 1.0;
  options.max_pattern_length = 2;
  const auto patterns = spade(db, options);
  ASSERT_EQ(patterns.size(), 2u);
  EXPECT_EQ(patterns.back().items.size(), 2u);
}

// ------------------------------------------------------------------ SeqDb

data::Dataset day_pattern_dataset() {
  const data::Taxonomy& tax = data::Taxonomy::foursquare();
  data::DatasetBuilder builder;
  data::VenueSpec coffee;
  coffee.id = 0;
  coffee.name = "Corner Coffee";
  coffee.category = *tax.find("Coffee Shop");
  coffee.position = {40.71, -74.00};
  EXPECT_TRUE(builder.add_venue(coffee).is_ok());
  data::VenueSpec office;
  office.id = 1;
  office.name = "HQ";
  office.category = *tax.find("Office");
  office.position = {40.75, -73.98};
  EXPECT_TRUE(builder.add_venue(office).is_ok());
  data::VenueSpec thai;
  thai.id = 2;
  thai.name = "Thai Pothong";
  thai.category = *tax.find("Thai Restaurant");
  thai.position = {40.76, -73.99};
  EXPECT_TRUE(builder.add_venue(thai).is_ok());

  const auto add = [&](int day, int hour, int minute, const data::VenueSpec& venue) {
    data::CheckIn c;
    c.user = 1;
    c.venue = venue.id;
    c.category = venue.category;
    c.position = venue.position;
    c.timestamp = to_epoch_seconds({2012, 4, day, hour, minute, 0});
    EXPECT_TRUE(builder.add_checkin(c).is_ok());
  };
  // Day 2: coffee -> office -> thai. Day 3: coffee -> office. Day 5: thai.
  add(2, 8, 30, coffee);
  add(2, 9, 5, office);
  add(2, 12, 20, thai);
  add(3, 8, 40, coffee);
  add(3, 9, 10, office);
  add(5, 12, 30, thai);
  return builder.build();
}

std::vector<Item> day_vec(const UserSequences& sequences, std::size_t d) {
  const auto day = sequences.day(d);
  return {day.begin(), day.end()};
}

TEST(SeqDbTest, RootCategoryAbstraction) {
  const data::Dataset dataset = day_pattern_dataset();
  const data::Taxonomy& tax = data::Taxonomy::foursquare();
  const UserSequences sequences = build_user_sequences(dataset, 1, tax);
  ASSERT_EQ(sequences.day_count(), 3u);
  const Item eatery = *tax.find("Eatery");
  const Item professional = *tax.find("Professional & Other Places");
  // Day 2: Eatery(coffee), Professional, Eatery(thai).
  EXPECT_EQ(day_vec(sequences, 0), (std::vector<Item>{eatery, professional, eatery}));
  // Day 3: Eatery, Professional.
  EXPECT_EQ(day_vec(sequences, 1), (std::vector<Item>{eatery, professional}));
  // Day 5: Eatery.
  EXPECT_EQ(day_vec(sequences, 2), (std::vector<Item>{eatery}));
}

TEST(SeqDbTest, MinutesParallelToItems) {
  const data::Dataset dataset = day_pattern_dataset();
  const UserSequences sequences =
      build_user_sequences(dataset, 1, data::Taxonomy::foursquare());
  ASSERT_EQ(sequences.item_minutes.size(), sequences.items.size());
  for (std::size_t d = 0; d < sequences.day_count(); ++d)
    ASSERT_EQ(sequences.minutes_of(d).size(), sequences.day(d).size());
  EXPECT_EQ(sequences.minutes_of(0)[0], 8 * 60 + 30);
  EXPECT_EQ(sequences.minutes_of(0)[1], 9 * 60 + 5);
}

TEST(SeqDbTest, VenueModeKeepsDistinctVenues) {
  const data::Dataset dataset = day_pattern_dataset();
  SequenceOptions options;
  options.mode = LabelMode::kVenue;
  const UserSequences sequences =
      build_user_sequences(dataset, 1, data::Taxonomy::foursquare(), options);
  EXPECT_EQ(day_vec(sequences, 0), (std::vector<Item>{0, 1, 2}));
}

TEST(SeqDbTest, LeafModeKeepsVenueTypes) {
  const data::Dataset dataset = day_pattern_dataset();
  const data::Taxonomy& tax = data::Taxonomy::foursquare();
  SequenceOptions options;
  options.mode = LabelMode::kLeafCategory;
  const UserSequences sequences = build_user_sequences(dataset, 1, tax, options);
  EXPECT_EQ(sequences.day(0)[0], *tax.find("Coffee Shop"));
  EXPECT_EQ(sequences.day(0)[2], *tax.find("Thai Restaurant"));
}

TEST(SeqDbTest, CollapseRepeats) {
  const data::Taxonomy& tax = data::Taxonomy::foursquare();
  data::DatasetBuilder builder;
  data::VenueSpec a;
  a.id = 0;
  a.name = "A";
  a.category = *tax.find("Coffee Shop");
  a.position = {40.7, -74.0};
  ASSERT_TRUE(builder.add_venue(a).is_ok());
  data::VenueSpec b = a;
  b.id = 1;
  b.name = "B";
  b.category = *tax.find("Pizza Place");
  ASSERT_TRUE(builder.add_venue(b).is_ok());
  // Two eateries back to back on the same day.
  for (int i = 0; i < 2; ++i) {
    data::CheckIn c;
    c.user = 1;
    c.venue = static_cast<data::VenueId>(i);
    c.category = i == 0 ? a.category : b.category;
    c.position = a.position;
    c.timestamp = to_epoch_seconds({2012, 4, 2, 12, i * 10, 0});
    ASSERT_TRUE(builder.add_checkin(c).is_ok());
  }
  const data::Dataset dataset = builder.build();
  const UserSequences collapsed = build_user_sequences(dataset, 1, tax);
  EXPECT_EQ(collapsed.day(0).size(), 1u);  // Eatery,Eatery -> Eatery
  SequenceOptions keep;
  keep.collapse_repeats = false;
  const UserSequences raw = build_user_sequences(dataset, 1, tax, keep);
  EXPECT_EQ(raw.day(0).size(), 2u);
}

TEST(SeqDbTest, MinDayLengthDropsShortDays) {
  const data::Dataset dataset = day_pattern_dataset();
  SequenceOptions options;
  options.min_day_length = 2;
  const UserSequences sequences =
      build_user_sequences(dataset, 1, data::Taxonomy::foursquare(), options);
  EXPECT_EQ(sequences.day_count(), 2u);  // the single-visit day is dropped
}

TEST(SeqDbTest, UnknownUserYieldsEmpty) {
  const data::Dataset dataset = day_pattern_dataset();
  const UserSequences sequences =
      build_user_sequences(dataset, 42, data::Taxonomy::foursquare());
  EXPECT_TRUE(sequences.empty());
}

TEST(SeqDbTest, BuildAllCoversEveryUser) {
  const data::Dataset dataset = day_pattern_dataset();
  const auto all = build_all_sequences(dataset, data::Taxonomy::foursquare());
  ASSERT_EQ(all.size(), dataset.user_count());
  EXPECT_EQ(all[0].user, dataset.users()[0]);
}

TEST(SeqDbTest, LabelNames) {
  const data::Dataset dataset = day_pattern_dataset();
  const data::Taxonomy& tax = data::Taxonomy::foursquare();
  EXPECT_EQ(label_name(*tax.find("Eatery"), LabelMode::kRootCategory, tax, dataset), "Eatery");
  EXPECT_EQ(label_name(2, LabelMode::kVenue, tax, dataset), "Thai Pothong");
  EXPECT_EQ(label_name(9999, LabelMode::kVenue, tax, dataset), "venue#9999");
  EXPECT_EQ(label_name(60000, LabelMode::kRootCategory, tax, dataset), "category#60000");
}

// The paper's motivating scenario: the Thai-lunch pattern is invisible at
// venue granularity but detected after location abstraction.
TEST(SeqDbTest, LocationAbstractionRecoversFlexiblePatterns) {
  const data::Taxonomy& tax = data::Taxonomy::foursquare();
  data::DatasetBuilder builder;
  // Three different Thai restaurants.
  for (int i = 0; i < 3; ++i) {
    data::VenueSpec v;
    v.id = static_cast<data::VenueId>(i);
    v.name = "Thai " + std::to_string(i);
    v.category = *tax.find("Thai Restaurant");
    v.position = {40.7 + 0.01 * i, -74.0};
    ASSERT_TRUE(builder.add_venue(v).is_ok());
  }
  // Lunch at a different venue each day, three days.
  for (int day = 2; day <= 4; ++day) {
    data::CheckIn c;
    c.user = 1;
    c.venue = static_cast<data::VenueId>(day - 2);
    c.category = *tax.find("Thai Restaurant");
    c.position = {40.7 + 0.01 * (day - 2), -74.0};
    c.timestamp = to_epoch_seconds({2012, 4, day, 12, 30, 0});
    ASSERT_TRUE(builder.add_checkin(c).is_ok());
  }
  const data::Dataset dataset = builder.build();

  MiningOptions mining;
  mining.min_support = 0.9;  // must appear on ~every day

  SequenceOptions venue_mode;
  venue_mode.mode = LabelMode::kVenue;
  const auto raw = build_user_sequences(dataset, 1, tax, venue_mode);
  EXPECT_TRUE(prefixspan(raw.columns(), mining).empty());  // no venue repeats

  const auto abstracted = build_user_sequences(dataset, 1, tax);  // root mode
  const auto patterns = prefixspan(abstracted.columns(), mining);
  ASSERT_EQ(patterns.size(), 1u);  // "Eatery" every day
  EXPECT_EQ(patterns[0].items, (std::vector<Item>{*tax.find("Eatery")}));
  EXPECT_EQ(patterns[0].support_count, 3u);
}

// ---------------------------------------------------- Closed miners (BIDE)

SequenceDb random_db(Rng& rng, int sequences, int alphabet, int max_length) {
  SequenceDb db;
  for (int s = 0; s < sequences; ++s) {
    std::vector<Item> sequence;
    const int length = static_cast<int>(rng.uniform_int(0, max_length));
    for (int i = 0; i < length; ++i)
      sequence.push_back(static_cast<Item>(rng.uniform_int(0, alphabet - 1)));
    db.push_back(std::move(sequence));
  }
  return db;
}

/// Owning flattened form of a SequenceDb, for the columns-only registry
/// interface.
struct OwnedColumns {
  std::vector<Item> items;
  std::vector<std::uint32_t> offsets;
  [[nodiscard]] SequenceColumns view() const noexcept { return {items, offsets}; }
};

OwnedColumns columns_of(const SequenceDb& db) {
  OwnedColumns out;
  out.offsets.push_back(0);
  for (const auto& sequence : db) {
    out.items.insert(out.items.end(), sequence.begin(), sequence.end());
    out.offsets.push_back(static_cast<std::uint32_t>(out.items.size()));
  }
  return out;
}

TEST(BideTest, EmptyDatabase) {
  EXPECT_TRUE(bide(SequenceDb{}, {}).empty());
}

TEST(BideTest, TextbookClosedSet) {
  // db: {a b} x2, {a} x1 -> frequent: a(3), b(2), ab(2); closed: a, ab.
  const SequenceDb db{{1, 2}, {1, 2}, {1}};
  MiningOptions options;
  options.min_support = 0.5;
  const auto closed = bide(db, options);
  ASSERT_EQ(closed.size(), 2u);
  EXPECT_EQ(closed[0].items, (std::vector<Item>{1}));
  EXPECT_EQ(closed[0].support_count, 3u);
  EXPECT_EQ(closed[1].items, (std::vector<Item>{1, 2}));
  EXPECT_EQ(closed[1].support_count, 2u);
}

TEST(BideTest, BackwardExtensionDetected) {
  // Every occurrence of b is preceded by a, so [b] is not closed (its
  // backward extension [a b] has the same support) — a forward-only
  // check would miss this.
  const SequenceDb db{{1, 2}, {3, 1, 2}, {1, 3, 2}};
  MiningOptions options;
  options.min_support = 1.0;
  const auto closed = bide(db, options);
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].items, (std::vector<Item>{1, 2}));
  EXPECT_EQ(closed[0].support_count, 3u);
}

TEST(BideTest, MatchesPostfilteredPrefixSpanOnRandomDbs) {
  Rng rng(31337);
  for (int trial = 0; trial < 40; ++trial) {
    const SequenceDb db = random_db(rng, 25, 4, 8);
    MiningOptions options;
    options.min_support = 0.1 + 0.2 * static_cast<double>(trial % 4);
    const auto oracle = closed_patterns(prefixspan(db, options));
    EXPECT_EQ(bide(db, options), oracle) << "trial " << trial;
  }
}

TEST(BideTest, ClosedIsSubsetOfFrequentWithEqualSupports) {
  Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    const SequenceDb db = random_db(rng, 30, 5, 9);
    MiningOptions options;
    options.min_support = 0.2;
    const auto frequent = prefixspan(db, options);
    for (const Pattern& p : bide(db, options)) {
      const auto it = std::find_if(frequent.begin(), frequent.end(),
                                   [&](const Pattern& q) { return q.items == p.items; });
      ASSERT_NE(it, frequent.end());
      EXPECT_EQ(it->support_count, p.support_count);
    }
  }
}

TEST(BideTest, ExpansionRecoversFullFrequentSetExactly) {
  Rng rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    const SequenceDb db = random_db(rng, 20, 4, 8);
    MiningOptions options;
    options.min_support = 0.15 + 0.1 * static_cast<double>(trial % 5);
    const auto full = prefixspan(db, options);
    const auto expanded = expand_closed_patterns(bide(db, options), db.size(), options);
    EXPECT_EQ(expanded, full) << "trial " << trial;  // items, supports, order
  }
}

TEST(BideTest, ExpansionHonorsMaxPatternsCap) {
  const SequenceDb db{{1, 2, 3, 4}, {1, 2, 3, 4}};
  MiningOptions options;
  options.min_support = 1.0;
  const auto closed = bide(db, options);  // just [1 2 3 4]
  ASSERT_EQ(closed.size(), 1u);
  options.max_patterns = 5;
  MiningStats stats;
  const auto expanded = expand_closed_patterns(closed, db.size(), options, &stats);
  EXPECT_EQ(expanded.size(), 5u);
  EXPECT_TRUE(stats.truncated);
  for (const Pattern& p : expanded) EXPECT_EQ(p.support_count, 2u);
}

TEST(MiningStatsTest, TruncationFlagTracksMaxPatternsCap) {
  Rng rng(7);
  const SequenceDb db = random_db(rng, 20, 3, 8);
  MiningOptions options;
  options.min_support = 0.1;
  MiningStats stats;
  const auto full = prefixspan(db, options, &stats);
  ASSERT_GT(full.size(), 3u);
  EXPECT_FALSE(stats.truncated);
  EXPECT_EQ(stats.emitted, full.size());

  options.max_patterns = 3;
  for (const auto* name : {"prefixspan", "gsp", "spade", "naive", "bide"}) {
    options.algorithm = name;
    const auto capped = mining::find_miner(name)->mine(columns_of(db).view(), options);
    EXPECT_LE(capped.patterns.size(), 3u) << name;
    EXPECT_TRUE(capped.stats.truncated) << name;
  }
}

TEST(MiningStatsTest, MergeAccumulates) {
  MiningStats a{10, 5, 2, 4, false};
  const MiningStats b{1, 2, 3, 6, true};
  a.merge(b);
  EXPECT_EQ(a.emitted, 11u);
  EXPECT_EQ(a.explored, 7u);
  EXPECT_EQ(a.pruned, 5u);
  EXPECT_EQ(a.expanded, 10u);
  EXPECT_TRUE(a.truncated);
}

// --------------------------------------------------------------- Registry

TEST(RegistryTest, NamesRoundTrip) {
  const auto names = miner_names();
  ASSERT_GE(names.size(), 5u);
  EXPECT_EQ(names.front(), "prefixspan");
  for (const std::string_view name : names) {
    const IMiningAlgorithm* miner = find_miner(name);
    ASSERT_NE(miner, nullptr) << name;
    EXPECT_EQ(miner->name(), name);
    const auto resolved = resolve_miner(name);
    ASSERT_TRUE(resolved.is_ok()) << name;
    EXPECT_EQ(*resolved, miner);
  }
  EXPECT_TRUE(find_miner("bide")->closed_output());
  EXPECT_FALSE(find_miner("prefixspan")->closed_output());
}

TEST(RegistryTest, UnknownNameIsAnError) {
  EXPECT_EQ(find_miner("apriori"), nullptr);
  const auto resolved = resolve_miner("apriori");
  ASSERT_FALSE(resolved.is_ok());
  EXPECT_EQ(resolved.status().code(), StatusCode::kInvalidArgument);
  // The message names the offender and the registered algorithms.
  EXPECT_NE(resolved.status().message().find("apriori"), std::string::npos);
  EXPECT_NE(resolved.status().message().find("prefixspan"), std::string::npos);
  EXPECT_NE(resolved.status().message().find("bide"), std::string::npos);
}

TEST(RegistryTest, AllMinersAgreeThroughTheInterface) {
  Rng rng(555);
  const SequenceDb db = random_db(rng, 30, 5, 8);
  MiningOptions options;
  options.min_support = 0.2;
  const auto full = prefixspan(db, options);
  const auto closed_oracle = closed_patterns(full);
  for (const std::string_view name : miner_names()) {
    const IMiningAlgorithm* miner = find_miner(name);
    const MiningResult result = miner->mine(columns_of(db).view(), options);
    if (miner->closed_output()) {
      EXPECT_EQ(result.patterns, closed_oracle) << name;
    } else {
      EXPECT_EQ(result.patterns, full) << name;
    }
    EXPECT_EQ(result.stats.emitted, result.patterns.size()) << name;
  }
}

TEST(RegistryTest, MineWithExpandsClosedMiners) {
  Rng rng(777);
  const SequenceDb db = random_db(rng, 25, 4, 8);
  MiningOptions options;
  options.min_support = 0.2;
  const auto full = prefixspan(db, options);

  options.algorithm = "bide";
  options.expand_closed = true;
  const MiningResult expanded = mine_with(columns_of(db).view(), options);
  EXPECT_EQ(expanded.patterns, full);
  EXPECT_FALSE(expanded.closed);
  // The stats split: `emitted` stays the miner's own (closed) output,
  // the reconstruction is accounted separately in `expanded`.
  EXPECT_EQ(expanded.stats.emitted, closed_patterns(full).size());
  EXPECT_EQ(expanded.stats.expanded, full.size());

  options.expand_closed = false;
  const MiningResult compact = mine_with(columns_of(db).view(), options);
  EXPECT_EQ(compact.patterns, closed_patterns(full));
  EXPECT_TRUE(compact.closed);
  EXPECT_EQ(compact.stats.emitted, compact.patterns.size());
  EXPECT_EQ(compact.stats.expanded, 0u);

  // Non-closed miners ignore expand_closed entirely.
  options.algorithm = "spade";
  options.expand_closed = true;
  const MiningResult spade = mine_with(columns_of(db).view(), options);
  EXPECT_EQ(spade.patterns, full);
  EXPECT_FALSE(spade.closed);
  EXPECT_EQ(spade.stats.expanded, 0u);
}

TEST(RegistryTest, SubsumedSupportAnswersExactlyFromClosedSets) {
  // Ten days of 1→2→3 plus five days of 1→2: the full frequent set has
  // seven patterns but only {1,2} (15) and {1,2,3} (10) are closed.
  SequenceDb db;
  for (int i = 0; i < 10; ++i) db.push_back({1, 2, 3});
  for (int i = 0; i < 5; ++i) db.push_back({1, 2});
  MiningOptions options;
  options.min_support = 0.2;
  const auto full = prefixspan(db, options);
  const auto closed = closed_patterns(full);
  ASSERT_EQ(full.size(), 7u);
  ASSERT_EQ(closed.size(), 2u);
  // Every frequent pattern's support is answered exactly by subsumption
  // over the closed set (closure: some closed super-pattern shares it).
  for (const Pattern& pattern : full)
    EXPECT_EQ(subsumed_support_count(pattern.items, closed), pattern.support_count)
        << "pattern of length " << pattern.items.size();
  // A full set answers via self-subsumption too.
  for (const Pattern& pattern : full)
    EXPECT_EQ(subsumed_support_count(pattern.items, full), pattern.support_count);
  // An infrequent / unknown sequence has no subsuming pattern.
  const std::vector<Item> absent{901, 902, 903, 904};
  EXPECT_EQ(subsumed_support_count(absent, closed), 0u);
}

}  // namespace
}  // namespace crowdweb::mining
