// Individual mobility patterns — the output of the paper's phase 2.
//
// A mobility pattern is a frequent sequential pattern of labeled places
// annotated with representative times of day: "Eatery ~08:20 -> Office
// ~09:05" with its support among the user's recorded days. The time
// annotation is what lets phase 3 place users on the city map for a
// selected time window.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "mining/pattern.hpp"
#include "mining/seqdb.hpp"
#include "util/status.hpp"

namespace crowdweb::patterns {

/// One element of a mobility pattern: a labeled place and its typical
/// visit time.
struct TimedElement {
  mining::Item label = 0;
  double mean_minute = 0.0;    ///< mean minute-of-day across occurrences
  double stddev_minute = 0.0;  ///< spread across occurrences

  friend bool operator==(const TimedElement&, const TimedElement&) = default;
};

/// A time-annotated frequent movement pattern of one user.
struct MobilityPattern {
  std::vector<TimedElement> elements;
  std::size_t support_count = 0;  ///< days containing the pattern
  double support = 0.0;           ///< fraction of recorded days

  [[nodiscard]] std::size_t length() const noexcept { return elements.size(); }

  friend bool operator==(const MobilityPattern&, const MobilityPattern&) = default;
};

/// One element of the support-frontier placement index every mined
/// entry carries. `rank` is the element's position in the entry's
/// full-set emission order (pattern-major over the stored patterns of an
/// expanded entry, over the canonically sorted frequent set of a compact
/// one), `minute` is the element's annotated mean minute-of-day
/// truncated to an int — the two inputs the crowd layer's
/// first-qualifying-wins placement rule consumes. The pattern's support
/// is not stored: it is support_count / recorded_days, the same double
/// every miner computes. Only the per-(label, minute) support frontier is
/// kept: a candidate whose support does not exceed every earlier-rank
/// candidate of the same key can never win a placement at any threshold
/// or window size, so it is pruned at mine time (see mobility.cpp for
/// the argument).
struct PlacementCandidate {
  mining::Item label = 0;
  std::uint16_t minute = 0;        ///< int(mean_minute), in [0, 1440)
  std::uint32_t rank = 0;          ///< full-set emission order
  std::uint32_t support_count = 0; ///< days supporting the source pattern

  friend bool operator==(const PlacementCandidate&, const PlacementCandidate&) = default;
};
static_assert(sizeof(PlacementCandidate) == 16);

/// Everything phase 2 derives for one user.
struct UserMobility {
  data::UserId user = 0;
  std::size_t recorded_days = 0;  ///< sequences in the user's database
  std::vector<MobilityPattern> patterns;
  /// What the miner did for this user (explored/pruned counts and the
  /// max_patterns truncation flag). Carried per user so the pipeline can
  /// aggregate an epoch's mining telemetry from the entries it re-mined.
  mining::MiningStats mining_stats;
  /// True when `patterns` holds only the *closed* set (closed-output
  /// miner, MiningOptions::expand_closed off). Support queries answer by
  /// subsumption; routes whose wire contract needs the full set expand
  /// lazily (see expand_user_patterns).
  bool closed_only = false;
  /// Size of the full frequent set (known at mine time even when only
  /// the closed set is stored). Meaningful only when closed_only.
  std::size_t frequent_patterns = 0;
  /// Support-frontier placement index over the full frequent set, sorted
  /// by rank — what crowd placement reads, in either storage mode.
  std::vector<PlacementCandidate> placement_index;

  /// Patterns a full-set consumer would see: the stored count in
  /// expanded mode, the expansion's size in closed mode.
  [[nodiscard]] std::size_t served_pattern_count() const noexcept {
    return closed_only ? frequent_patterns : patterns.size();
  }

  /// Exact support count of a label sequence, answered by subsumption
  /// over the stored pattern set. Over a closed set this equals the full
  /// miner's count for every frequent sequence (closure guarantees a
  /// closed super-pattern of equal support); infrequent sequences return
  /// 0. Also correct over an expanded set (a pattern subsumes itself).
  [[nodiscard]] std::size_t support_count_of(
      std::span<const mining::Item> labels) const noexcept;
  /// support_count_of divided by recorded_days (0 when no days).
  [[nodiscard]] double support_of(std::span<const mining::Item> labels) const noexcept;

  /// Heap bytes this entry keeps resident (patterns, elements, index).
  [[nodiscard]] std::size_t resident_bytes() const noexcept;
};

struct MobilityOptions {
  mining::SequenceOptions sequences;
  mining::MiningOptions mining;
};

/// Phase 2 of the framework: builds the user's day-sequence database and
/// mines it with the miner named by options.mining.algorithm (see
/// mining/registry.hpp; closed-output miners expand back to the full
/// frequent set under options.mining.expand_closed), annotating each
/// pattern with times.
[[nodiscard]] UserMobility mine_user_mobility(const data::Dataset& dataset,
                                              data::UserId user,
                                              const data::Taxonomy& taxonomy,
                                              const MobilityOptions& options = {});

/// The same, over a day-sequence database already built (the entry's
/// user is sequences.user).
[[nodiscard]] UserMobility mine_user_mobility(const mining::UserSequences& sequences,
                                              const mining::MiningOptions& mining);

/// Phase 2 over every user of the dataset (sequential).
[[nodiscard]] std::vector<UserMobility> mine_all_mobility(const data::Dataset& dataset,
                                                          const data::Taxonomy& taxonomy,
                                                          const MobilityOptions& options = {});

/// Phase 2 over every user, sharded across `threads` worker threads
/// (0 = hardware concurrency). Users are independent, so the result is
/// identical to the sequential version, in the same order.
[[nodiscard]] std::vector<UserMobility> mine_all_mobility_parallel(
    const data::Dataset& dataset, const data::Taxonomy& taxonomy,
    const MobilityOptions& options = {}, unsigned threads = 0);

/// Phase 2 for the given users only (result order matches `users`),
/// sharded across `threads` worker threads (0 = hardware concurrency).
/// This is the delta form: an epoch re-mines just the users its events
/// touched instead of the whole corpus.
[[nodiscard]] std::vector<UserMobility> mine_users_mobility_parallel(
    const data::Dataset& dataset, std::span<const data::UserId> users,
    const data::Taxonomy& taxonomy, const MobilityOptions& options = {},
    unsigned threads = 0);

/// Aggregate size of a set of mobility entries — what /api/status and
/// bench_mining report per epoch to make the closed-mode memory win
/// observable.
struct MobilityStats {
  std::size_t entries = 0;               ///< users with a mined entry
  std::size_t compact_entries = 0;       ///< entries stored closed-only
  std::size_t patterns = 0;              ///< resident annotated patterns
  std::size_t placement_candidates = 0;  ///< resident index candidates
  std::size_t bytes = 0;                 ///< resident heap bytes

  void add(const UserMobility& entry) noexcept {
    ++entries;
    if (entry.closed_only) ++compact_entries;
    patterns += entry.patterns.size();
    placement_candidates += entry.placement_index.size();
    bytes += entry.resident_bytes();
  }

  /// Folds another table's totals in (shard scatter-gather status).
  void merge(const MobilityStats& other) noexcept {
    entries += other.entries;
    compact_entries += other.compact_entries;
    patterns += other.patterns;
    placement_candidates += other.placement_candidates;
    bytes += other.bytes;
  }
};

/// Immutable per-user mobility entries in ascending user order, each
/// behind a shared_ptr so successive epochs share the entries of every
/// user the delta did not touch. `with_updates` is the maintenance
/// operation: it replaces or inserts the freshly mined entries and
/// shares everything else with the previous table by pointer.
class MobilityTable {
 public:
  using EntryPtr = std::shared_ptr<const UserMobility>;

  /// Iterates entries as `const UserMobility&` in ascending user order.
  class const_iterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = UserMobility;
    using difference_type = std::ptrdiff_t;
    using pointer = const UserMobility*;
    using reference = const UserMobility&;

    const_iterator() = default;
    [[nodiscard]] reference operator*() const noexcept { return **it_; }
    [[nodiscard]] pointer operator->() const noexcept { return it_->get(); }
    [[nodiscard]] reference operator[](difference_type n) const noexcept { return *it_[n]; }
    const_iterator& operator++() noexcept { ++it_; return *this; }
    const_iterator operator++(int) noexcept { return const_iterator{it_++}; }
    const_iterator& operator--() noexcept { --it_; return *this; }
    const_iterator operator--(int) noexcept { return const_iterator{it_--}; }
    const_iterator& operator+=(difference_type n) noexcept { it_ += n; return *this; }
    const_iterator& operator-=(difference_type n) noexcept { it_ -= n; return *this; }
    [[nodiscard]] friend const_iterator operator+(const_iterator it, difference_type n) noexcept {
      return it += n;
    }
    [[nodiscard]] friend const_iterator operator-(const_iterator it, difference_type n) noexcept {
      return it -= n;
    }
    [[nodiscard]] friend difference_type operator-(const_iterator a, const_iterator b) noexcept {
      return a.it_ - b.it_;
    }
    [[nodiscard]] friend bool operator==(const_iterator, const_iterator) = default;
    [[nodiscard]] friend auto operator<=>(const_iterator, const_iterator) = default;

   private:
    friend class MobilityTable;
    explicit const_iterator(const EntryPtr* it) noexcept : it_(it) {}
    const EntryPtr* it_ = nullptr;
  };

  MobilityTable() = default;

  /// Adopts freshly mined entries (any order; sorted by user here).
  [[nodiscard]] static MobilityTable from_entries(std::vector<UserMobility> entries);

  /// New table where each update replaces (or inserts) its user's
  /// entry; every untouched entry is shared with this table by pointer.
  [[nodiscard]] MobilityTable with_updates(std::vector<UserMobility> updates) const;

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] const UserMobility& operator[](std::size_t index) const noexcept {
    return *entries_[index];
  }
  [[nodiscard]] const_iterator begin() const noexcept {
    return const_iterator{entries_.data()};
  }
  [[nodiscard]] const_iterator end() const noexcept {
    return const_iterator{entries_.data() + entries_.size()};
  }

  /// The user's entry, or null when the user has never been mined.
  [[nodiscard]] const UserMobility* find(data::UserId user) const noexcept;

  /// The shared entry object (pointer equality across tables proves the
  /// entry was reused, not recomputed).
  [[nodiscard]] EntryPtr entry_for(data::UserId user) const noexcept;

  /// Deep copy into a flat vector, in user order.
  [[nodiscard]] std::vector<UserMobility> to_vector() const;

  /// Aggregate entry/pattern/byte counts over every entry (O(patterns)).
  [[nodiscard]] MobilityStats stats() const noexcept;

 private:
  explicit MobilityTable(std::vector<EntryPtr> entries) : entries_(std::move(entries)) {}

  std::vector<EntryPtr> entries_;  // ascending by user
};

/// The support-frontier placement index of annotated patterns in their
/// emission order: every element offers (label, int(mean_minute),
/// support_count) at the next rank, and is kept only when it strictly
/// raises its (label, minute) key's running support maximum. An expanded
/// entry's index is this over its stored patterns; a compact entry's
/// index equals this over its lazy expansion.
[[nodiscard]] std::vector<PlacementCandidate> placement_index_of(
    std::span<const MobilityPattern> patterns);

/// Annotates an already-mined pattern with per-position visit times by
/// scanning the greedy first embedding in every supporting day.
[[nodiscard]] MobilityPattern annotate_pattern(const mining::Pattern& pattern,
                                               const mining::UserSequences& sequences);

/// The full frequent pattern set of an entry, annotated — exactly what
/// the entry's `patterns` would hold had it been mined with
/// expand_closed on. Compact (closed_only) entries expand their closed
/// set lazily against the user's day-sequence database (same expansion
/// cap, same canonical order, same greedy-embedding annotation, so the
/// result is byte-identical to expanded-mode output); expanded entries
/// return a copy of `patterns` unchanged. This is the per-request path
/// behind routes whose wire contract needs the full set.
[[nodiscard]] std::vector<MobilityPattern> expand_user_patterns(
    const UserMobility& mobility, const mining::UserSequences& sequences,
    const mining::MiningOptions& mining);

/// Convenience overload that rebuilds the user's sequences from the
/// dataset first (the shard API has no Platform to ask).
[[nodiscard]] std::vector<MobilityPattern> expand_user_patterns(
    const UserMobility& mobility, const data::Dataset& dataset,
    const data::Taxonomy& taxonomy, const MobilityOptions& options);

/// Mean pattern length of a user (0 for no patterns) — the Figure 7/8
/// metric.
[[nodiscard]] double average_pattern_length(const std::vector<MobilityPattern>& patterns);

/// "Eatery@08:20 -> Office@09:05 (support 0.62)".
[[nodiscard]] std::string describe_pattern(const MobilityPattern& pattern,
                                           const data::Taxonomy& taxonomy,
                                           const data::Dataset& dataset,
                                           mining::LabelMode mode);

}  // namespace crowdweb::patterns
