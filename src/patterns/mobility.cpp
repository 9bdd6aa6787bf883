#include "patterns/mobility.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <thread>

#include "mining/registry.hpp"
#include "util/format.hpp"

namespace crowdweb::patterns {

MobilityPattern annotate_pattern(const mining::Pattern& pattern,
                                 const mining::UserSequences& sequences) {
  MobilityPattern out;
  out.support_count = pattern.support_count;
  out.support = pattern.support;
  out.elements.reserve(pattern.items.size());
  for (const mining::Item item : pattern.items) out.elements.push_back({item, 0.0, 0.0});

  // Accumulate minute-of-day per position over the greedy first embedding
  // in every day that contains the pattern.
  std::vector<double> sum(pattern.items.size(), 0.0);
  std::vector<double> sum_sq(pattern.items.size(), 0.0);
  std::vector<int> embedding(pattern.items.size(), 0);
  std::size_t matched_days = 0;
  for (std::size_t d = 0; d < sequences.day_count(); ++d) {
    const auto day = sequences.day(d);
    const auto minutes = sequences.minutes_of(d);
    std::size_t position = 0;
    for (std::size_t i = 0; i < day.size() && position < pattern.items.size(); ++i) {
      if (day[i] == pattern.items[position]) {
        embedding[position] = minutes[i];
        ++position;
      }
    }
    if (position != pattern.items.size()) continue;  // day does not support it
    ++matched_days;
    for (std::size_t p = 0; p < embedding.size(); ++p) {
      sum[p] += embedding[p];
      sum_sq[p] += static_cast<double>(embedding[p]) * embedding[p];
    }
  }
  if (matched_days > 0) {
    for (std::size_t p = 0; p < out.elements.size(); ++p) {
      const double mean = sum[p] / static_cast<double>(matched_days);
      const double variance =
          std::max(0.0, sum_sq[p] / static_cast<double>(matched_days) - mean * mean);
      out.elements[p].mean_minute = mean;
      out.elements[p].stddev_minute = std::sqrt(variance);
    }
  }
  return out;
}

namespace {

constexpr std::size_t kMinutesPerDay = 24 * 60;

/// Mean of `matched` integer minutes summing to `sum`, as annotate_pattern
/// computes it (its double sums of integer minutes are exact, so
/// accumulating in integers and dividing once gives the same double).
double mean_minute(std::int64_t sum, std::size_t matched) {
  return matched == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(matched);
}

std::uint16_t placement_minute(double mean) {
  return static_cast<std::uint16_t>(
      std::clamp(static_cast<int>(mean), 0, static_cast<int>(kMinutesPerDay) - 1));
}

/// A set of sequences on the walk's dense alphabet with a next-occurrence
/// table: next(s, i, x) is the first position >= i of sequence s holding
/// x, or the sequence's length when x does not occur there.
struct DenseSequences {
  std::vector<std::uint32_t> items;    ///< dense labels, all sequences concatenated
  std::vector<std::uint32_t> offsets;  ///< size()+1 entries into `items`
  std::vector<std::uint32_t> next;     ///< (offsets[s] + s + i) * alphabet + x

  [[nodiscard]] std::size_t size() const noexcept { return offsets.size() - 1; }
  [[nodiscard]] std::uint32_t length(std::size_t s) const noexcept {
    return offsets[s + 1] - offsets[s];
  }
  [[nodiscard]] std::uint32_t next_of(std::size_t s, std::uint32_t i, std::uint32_t x,
                                      std::size_t alphabet) const noexcept {
    return next[(offsets[s] + s + i) * alphabet + x];
  }

  void clear() {
    items.clear();
    offsets.assign(1, 0);
    next.clear();
  }
  void end_sequence() { offsets.push_back(static_cast<std::uint32_t>(items.size())); }

  /// Fills `next` once every sequence has been appended.
  void index(std::size_t alphabet) {
    next.resize((items.size() + size()) * alphabet);
    for (std::size_t s = 0; s < size(); ++s) {
      const std::uint32_t len = length(s);
      std::uint32_t* row = next.data() + (offsets[s] + s + len) * alphabet;
      std::fill(row, row + alphabet, len);
      for (std::uint32_t i = len; i-- > 0;) {
        std::uint32_t* above = row - alphabet;
        std::copy(row, row + alphabet, above);
        above[items[offsets[s] + i]] = i;
        row = above;
      }
    }
  }
};

/// A projected sequence: the suffix of `sequence` after the prefix's
/// greedy first embedding ends.
struct Hit {
  std::uint32_t sequence;
  std::uint32_t offset;
};

/// One walk's buffers, kept per thread so successive users (and the
/// worker pool's concurrent users) reuse them instead of allocating.
struct WalkScratch {
  std::vector<mining::Item> alphabet;  ///< dense id -> item, ascending
  DenseSequences closed;               ///< the closed patterns
  std::vector<std::uint32_t> closed_support;
  DenseSequences days;                 ///< the days, stripped to the alphabet
  std::vector<int> day_minutes;        ///< minute of each kept day element
  // Per depth d (prefix length d): the closed patterns and days
  // containing the prefix, its children with their supports, and the
  // minute of element d-1 of each surviving day's embedding.
  std::vector<std::vector<Hit>> closed_hits;
  std::vector<std::vector<Hit>> day_hits;
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> children;
  std::vector<int> embedding;  ///< [element * day_count + day]
  std::vector<std::uint32_t> child_support;
  std::vector<std::uint32_t> path;
  std::vector<std::int64_t> sums;
  std::vector<std::int64_t> sum_squares;
  // Index mode: per pattern length, (dense label, minute) per element in
  // walk order plus each pattern's support count; and the frontier's
  // running support maximum per (dense label, minute).
  std::vector<std::vector<std::pair<std::uint32_t, std::uint16_t>>> elements_by_length;
  std::vector<std::vector<std::uint32_t>> support_by_length;
  std::vector<std::uint32_t> frontier;
};

WalkScratch& walk_scratch() {
  thread_local WalkScratch scratch;
  return scratch;
}

std::uint32_t dense_of(const WalkScratch& scratch, mining::Item item) {
  return static_cast<std::uint32_t>(
      std::lower_bound(scratch.alphabet.begin(), scratch.alphabet.end(), item) -
      scratch.alphabet.begin());
}

/// Enumerates the frequent set a closed set stands for — every
/// subsequence of a closed pattern up to max_pattern_length, with the
/// maximum support over the closed patterns containing it, which is
/// exactly what mining::expand_closed_patterns computes — as a
/// prefix-projection walk over the closed patterns on a dense local
/// alphabet. A parallel projection over the days follows each prefix's
/// greedy first embedding (greedy embeddings are prefix-consistent, so
/// extending a prefix's embedding by the next occurrence of one label is
/// the extension's embedding), which gives every element's visit-time
/// sums over the supporting days without rescanning them.
///
/// Calls emit(path, support_count, matched_days, sums, sum_squares) once
/// per pattern, depth-first with children in ascending label order;
/// within one length that is lexicographic, i.e. canonical, order.
/// Returns false, having stopped early, when the set holds more than
/// max_patterns patterns.
template <typename Emit>
bool walk_closed_set(WalkScratch& s, std::span<const mining::Pattern> closed,
                     const mining::UserSequences& sequences,
                     const mining::MiningOptions& options, std::size_t* patterns,
                     Emit&& emit) {
  s.alphabet.clear();
  std::size_t longest = 0;
  for (const mining::Pattern& pattern : closed) {
    s.alphabet.insert(s.alphabet.end(), pattern.items.begin(), pattern.items.end());
    longest = std::max(longest, pattern.items.size());
  }
  std::sort(s.alphabet.begin(), s.alphabet.end());
  s.alphabet.erase(std::unique(s.alphabet.begin(), s.alphabet.end()), s.alphabet.end());
  const std::size_t k = s.alphabet.size();
  const std::size_t depth_cap = std::min(options.max_pattern_length, longest);

  s.closed.clear();
  s.closed_support.clear();
  for (const mining::Pattern& pattern : closed) {
    for (const mining::Item item : pattern.items) s.closed.items.push_back(dense_of(s, item));
    s.closed.end_sequence();
    s.closed_support.push_back(static_cast<std::uint32_t>(pattern.support_count));
  }
  s.closed.index(k);
  s.days.clear();
  s.day_minutes.clear();
  const std::size_t day_count = sequences.day_count();
  for (std::size_t d = 0; d < day_count; ++d) {
    const auto day = sequences.day(d);
    const auto minutes = sequences.minutes_of(d);
    for (std::size_t i = 0; i < day.size(); ++i) {
      const std::uint32_t dense = dense_of(s, day[i]);
      if (dense == k || s.alphabet[dense] != day[i]) continue;  // in no pattern
      s.days.items.push_back(dense);
      s.day_minutes.push_back(minutes[i]);
    }
    s.days.end_sequence();
  }
  s.days.index(k);

  const std::size_t levels = depth_cap + 1;
  if (s.closed_hits.size() < levels) {
    s.closed_hits.resize(levels);
    s.day_hits.resize(levels);
    s.children.resize(levels);
  }
  s.embedding.resize(depth_cap * day_count);
  s.child_support.assign(k, 0);
  s.path.resize(depth_cap);
  s.sums.resize(depth_cap);
  s.sum_squares.resize(depth_cap);
  s.closed_hits[0].clear();
  for (std::uint32_t q = 0; q < s.closed.size(); ++q) s.closed_hits[0].push_back({q, 0});
  s.day_hits[0].clear();
  for (std::uint32_t d = 0; d < day_count; ++d) s.day_hits[0].push_back({d, 0});

  std::size_t count = 0;
  const auto grow = [&](auto&& self, std::size_t depth) -> bool {
    // Children and their supports: every label left in a containing
    // closed pattern's suffix, at the max support over those patterns.
    auto& children = s.children[depth];
    children.clear();
    for (const Hit& hit : s.closed_hits[depth]) {
      const std::uint32_t support = s.closed_support[hit.sequence];
      const std::uint32_t* item = s.closed.items.data() + s.closed.offsets[hit.sequence];
      for (std::uint32_t i = hit.offset; i < s.closed.length(hit.sequence); ++i)
        s.child_support[item[i]] = std::max(s.child_support[item[i]], support);
    }
    for (std::uint32_t x = 0; x < k; ++x) {
      if (s.child_support[x] == 0) continue;
      children.push_back({x, s.child_support[x]});
      s.child_support[x] = 0;
    }

    for (const auto& [x, support] : children) {
      if (++count > options.max_patterns) return false;
      auto& closed_next = s.closed_hits[depth + 1];
      closed_next.clear();
      for (const Hit& hit : s.closed_hits[depth]) {
        const std::uint32_t at = s.closed.next_of(hit.sequence, hit.offset, x, k);
        if (at < s.closed.length(hit.sequence)) closed_next.push_back({hit.sequence, at + 1});
      }
      auto& days_next = s.day_hits[depth + 1];
      days_next.clear();
      int* minutes = s.embedding.data() + depth * day_count;
      for (const Hit& hit : s.day_hits[depth]) {
        const std::uint32_t at = s.days.next_of(hit.sequence, hit.offset, x, k);
        if (at == s.days.length(hit.sequence)) continue;
        days_next.push_back({hit.sequence, at + 1});
        minutes[hit.sequence] = s.day_minutes[s.days.offsets[hit.sequence] + at];
      }
      s.path[depth] = x;
      for (std::size_t e = 0; e <= depth; ++e) {
        const int* element = s.embedding.data() + e * day_count;
        std::int64_t sum = 0;
        std::int64_t sum_square = 0;
        for (const Hit& hit : days_next) {
          const std::int64_t minute = element[hit.sequence];
          sum += minute;
          sum_square += minute * minute;
        }
        s.sums[e] = sum;
        s.sum_squares[e] = sum_square;
      }
      const std::size_t length = depth + 1;
      emit(std::span<const std::uint32_t>(s.path.data(), length), support, days_next.size(),
           std::span<const std::int64_t>(s.sums.data(), length),
           std::span<const std::int64_t>(s.sum_squares.data(), length));
      if (length < depth_cap && !self(self, length)) return false;
    }
    return true;
  };
  const bool complete = depth_cap == 0 || grow(grow, 0);
  *patterns = count;
  return complete;
}

/// The closed set back in miner form (the stored patterns carry labels
/// and supports; their time annotations are not needed to expand).
std::vector<mining::Pattern> closed_set_of(const UserMobility& mobility) {
  std::vector<mining::Pattern> closed;
  closed.reserve(mobility.patterns.size());
  for (const MobilityPattern& pattern : mobility.patterns) {
    mining::Pattern raw;
    raw.items.reserve(pattern.elements.size());
    for (const TimedElement& element : pattern.elements) raw.items.push_back(element.label);
    raw.support_count = pattern.support_count;
    raw.support = pattern.support;
    closed.push_back(std::move(raw));
  }
  return closed;
}

/// Builds the closed-mode placement index: the elements of the exact
/// expanded frequent set in canonical (rank) order, each with its
/// annotated int(mean_minute), keeping per (label, minute) key only the
/// candidates on the support frontier.
///
/// Why the frontier suffices: the crowd layer places the first element
/// (pattern-major canonical order = ascending rank) whose pattern
/// clears min_pattern_support and whose (window, label) key is unseen.
/// Two candidates with the same (label, minute) map to the same window
/// under *every* window size, so if an earlier-rank same-key candidate
/// has support >= a later one's, the earlier qualifies whenever the
/// later does and always beats it to the dedup set — the later can
/// never be the placed element, at any threshold or window size. The
/// expanded-mode winner itself always survives pruning: any same-key
/// candidate that dominated it would have qualified first in expanded
/// mode too, contradicting the winner being placed.
///
/// The set comes from walk_closed_set, bucketed by length (walk order
/// within a length is canonical), and one sweep in rank order over a
/// running-max table per (label, minute) keeps a candidate only when it
/// strictly raises its key's maximum, so the index comes out in rank
/// order. A set past max_patterns takes expand_closed_patterns instead,
/// whose admission order under truncation the walk does not reproduce.
void build_placement_index(UserMobility& out, std::span<const mining::Pattern> closed,
                           const mining::UserSequences& sequences,
                           const mining::MiningOptions& mining) {
  WalkScratch& s = walk_scratch();
  for (auto& elements : s.elements_by_length) elements.clear();
  for (auto& supports : s.support_by_length) supports.clear();
  std::size_t patterns = 0;
  const bool complete = walk_closed_set(
      s, closed, sequences, mining, &patterns,
      [&](std::span<const std::uint32_t> path, std::uint32_t support, std::size_t matched,
          std::span<const std::int64_t> sums, std::span<const std::int64_t>) {
        if (s.elements_by_length.size() <= path.size()) {
          s.elements_by_length.resize(path.size() + 1);
          s.support_by_length.resize(path.size() + 1);
        }
        auto& elements = s.elements_by_length[path.size()];
        for (std::size_t e = 0; e < path.size(); ++e)
          elements.push_back({path[e], placement_minute(mean_minute(sums[e], matched))});
        s.support_by_length[path.size()].push_back(support);
      });

  s.frontier.resize(s.alphabet.size() * kMinutesPerDay);
  const double days = static_cast<double>(sequences.day_count());
  std::vector<PlacementCandidate> kept;
  std::uint32_t rank = 0;
  const auto offer = [&](std::uint32_t dense, std::uint16_t minute, std::uint32_t support) {
    std::uint32_t& best = s.frontier[dense * kMinutesPerDay + minute];
    if (support > best) {
      best = support;
      kept.push_back({s.alphabet[dense], minute, rank, support,
                      static_cast<double>(support) / days});
    }
    ++rank;
  };
  if (complete) {
    out.frequent_patterns = patterns;
    out.mining_stats.expanded += patterns;
    for (std::size_t length = 1; length < s.elements_by_length.size(); ++length) {
      const auto& elements = s.elements_by_length[length];
      const auto& supports = s.support_by_length[length];
      for (std::size_t p = 0; p < supports.size(); ++p)
        for (std::size_t e = 0; e < length; ++e)
          offer(elements[p * length + e].first, elements[p * length + e].second, supports[p]);
    }
  } else {
    mining::MiningStats expand_stats;
    const std::vector<mining::Pattern> full = mining::expand_closed_patterns(
        closed, sequences.day_count(), mining, &expand_stats);
    out.mining_stats.expanded += expand_stats.expanded;
    out.mining_stats.truncated = out.mining_stats.truncated || expand_stats.truncated;
    out.frequent_patterns = full.size();
    for (const mining::Pattern& pattern : full) {
      const MobilityPattern annotated = annotate_pattern(pattern, sequences);
      for (const TimedElement& element : annotated.elements)
        offer(dense_of(s, element.label), placement_minute(element.mean_minute),
              static_cast<std::uint32_t>(pattern.support_count));
    }
  }
  // Every raised maximum left a kept candidate behind: reset just those.
  for (const PlacementCandidate& candidate : kept)
    s.frontier[dense_of(s, candidate.label) * kMinutesPerDay + candidate.minute] = 0;
  kept.shrink_to_fit();
  out.placement_index = std::move(kept);
}

}  // namespace

UserMobility mine_user_mobility(const mining::UserSequences& sequences,
                                const mining::MiningOptions& mining) {
  UserMobility out;
  out.user = sequences.user;
  out.recorded_days = sequences.day_count();
  if (sequences.empty()) return out;

  const mining::MiningResult mined = mining::mine_with(sequences.columns(), mining);
  out.mining_stats = mined.stats;
  out.patterns.reserve(mined.patterns.size());
  for (const mining::Pattern& pattern : mined.patterns)
    out.patterns.push_back(annotate_pattern(pattern, sequences));
  if (mined.closed) {
    out.closed_only = true;
    build_placement_index(out, mined.patterns, sequences, mining);
  }
  return out;
}

UserMobility mine_user_mobility(const data::Dataset& dataset, data::UserId user,
                                const data::Taxonomy& taxonomy,
                                const MobilityOptions& options) {
  UserMobility out = mine_user_mobility(
      mining::build_user_sequences(dataset, user, taxonomy, options.sequences),
      options.mining);
  out.user = user;
  return out;
}

std::size_t UserMobility::support_count_of(
    std::span<const mining::Item> labels) const noexcept {
  std::size_t best = 0;
  for (const MobilityPattern& pattern : patterns) {
    if (pattern.support_count <= best) continue;  // cannot improve the max
    if (pattern.elements.size() < labels.size()) continue;
    std::size_t n = 0;
    for (const TimedElement& element : pattern.elements) {
      if (n == labels.size()) break;
      if (element.label == labels[n]) ++n;
    }
    if (n == labels.size()) best = pattern.support_count;
  }
  return best;
}

double UserMobility::support_of(std::span<const mining::Item> labels) const noexcept {
  if (recorded_days == 0) return 0.0;
  return static_cast<double>(support_count_of(labels)) /
         static_cast<double>(recorded_days);
}

std::size_t UserMobility::resident_bytes() const noexcept {
  std::size_t bytes = sizeof(UserMobility);
  bytes += patterns.size() * sizeof(MobilityPattern);
  for (const MobilityPattern& pattern : patterns)
    bytes += pattern.elements.size() * sizeof(TimedElement);
  bytes += placement_index.size() * sizeof(PlacementCandidate);
  return bytes;
}

std::vector<MobilityPattern> expand_user_patterns(const UserMobility& mobility,
                                                  const mining::UserSequences& sequences,
                                                  const mining::MiningOptions& mining) {
  if (!mobility.closed_only) return mobility.patterns;
  // The same walk the placement index is built from, annotating in full:
  // canonical order is length-major, so bucket by length and concatenate.
  const std::vector<mining::Pattern> closed = closed_set_of(mobility);
  WalkScratch& s = walk_scratch();
  const double days = static_cast<double>(sequences.day_count());
  std::vector<std::vector<MobilityPattern>> by_length;
  std::size_t patterns = 0;
  const bool complete = walk_closed_set(
      s, closed, sequences, mining, &patterns,
      [&](std::span<const std::uint32_t> path, std::uint32_t support, std::size_t matched,
          std::span<const std::int64_t> sums, std::span<const std::int64_t> sum_squares) {
        MobilityPattern pattern;
        pattern.support_count = support;
        pattern.support = static_cast<double>(support) / days;
        pattern.elements.reserve(path.size());
        for (std::size_t e = 0; e < path.size(); ++e) {
          const double mean = mean_minute(sums[e], matched);
          const double variance = std::max(
              0.0, mean_minute(sum_squares[e], matched) - mean * mean);
          pattern.elements.push_back({s.alphabet[path[e]], mean, std::sqrt(variance)});
        }
        if (by_length.size() <= path.size()) by_length.resize(path.size() + 1);
        by_length[path.size()].push_back(std::move(pattern));
      });
  std::vector<MobilityPattern> out;
  if (!complete) {
    const std::vector<mining::Pattern> full =
        mining::expand_closed_patterns(closed, sequences.day_count(), mining);
    out.reserve(full.size());
    for (const mining::Pattern& pattern : full)
      out.push_back(annotate_pattern(pattern, sequences));
    return out;
  }
  out.reserve(patterns);
  for (auto& bucket : by_length)
    for (MobilityPattern& pattern : bucket) out.push_back(std::move(pattern));
  return out;
}

std::vector<MobilityPattern> expand_user_patterns(const UserMobility& mobility,
                                                  const data::Dataset& dataset,
                                                  const data::Taxonomy& taxonomy,
                                                  const MobilityOptions& options) {
  if (!mobility.closed_only) return mobility.patterns;
  const mining::UserSequences sequences =
      mining::build_user_sequences(dataset, mobility.user, taxonomy, options.sequences);
  return expand_user_patterns(mobility, sequences, options.mining);
}

std::vector<UserMobility> mine_all_mobility(const data::Dataset& dataset,
                                            const data::Taxonomy& taxonomy,
                                            const MobilityOptions& options) {
  std::vector<UserMobility> out;
  out.reserve(dataset.user_count());
  for (const data::UserId user : dataset.users())
    out.push_back(mine_user_mobility(dataset, user, taxonomy, options));
  return out;
}

std::vector<UserMobility> mine_all_mobility_parallel(const data::Dataset& dataset,
                                                     const data::Taxonomy& taxonomy,
                                                     const MobilityOptions& options,
                                                     unsigned threads) {
  return mine_users_mobility_parallel(dataset, dataset.users(), taxonomy, options, threads);
}

std::vector<UserMobility> mine_users_mobility_parallel(const data::Dataset& dataset,
                                                       std::span<const data::UserId> users,
                                                       const data::Taxonomy& taxonomy,
                                                       const MobilityOptions& options,
                                                       unsigned threads) {
  std::vector<UserMobility> out(users.size());
  if (users.empty()) return out;
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  threads = std::min<unsigned>(threads, static_cast<unsigned>(users.size()));
  if (threads <= 1) {
    for (std::size_t i = 0; i < users.size(); ++i)
      out[i] = mine_user_mobility(dataset, users[i], taxonomy, options);
    return out;
  }

  // Users are claimed from a shared atomic counter; each result lands in
  // its own slot, so no further synchronization is needed.
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    while (true) {
      const std::size_t index = next.fetch_add(1, std::memory_order_relaxed);
      if (index >= users.size()) return;
      out[index] = mine_user_mobility(dataset, users[index], taxonomy, options);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& thread : pool) thread.join();
  return out;
}

MobilityTable MobilityTable::from_entries(std::vector<UserMobility> entries) {
  std::vector<EntryPtr> owned;
  owned.reserve(entries.size());
  for (UserMobility& entry : entries)
    owned.push_back(std::make_shared<const UserMobility>(std::move(entry)));
  std::sort(owned.begin(), owned.end(), [](const EntryPtr& a, const EntryPtr& b) {
    return a->user < b->user;
  });
  return MobilityTable(std::move(owned));
}

MobilityTable MobilityTable::with_updates(std::vector<UserMobility> updates) const {
  std::sort(updates.begin(), updates.end(),
            [](const UserMobility& a, const UserMobility& b) { return a.user < b.user; });
  std::vector<EntryPtr> merged;
  merged.reserve(entries_.size() + updates.size());
  std::size_t bi = 0;
  std::size_t ui = 0;
  while (bi < entries_.size() || ui < updates.size()) {
    if (ui == updates.size() ||
        (bi < entries_.size() && entries_[bi]->user < updates[ui].user)) {
      merged.push_back(entries_[bi]);  // untouched: share the entry
      ++bi;
      continue;
    }
    if (bi < entries_.size() && entries_[bi]->user == updates[ui].user) ++bi;
    merged.push_back(std::make_shared<const UserMobility>(std::move(updates[ui])));
    ++ui;
  }
  return MobilityTable(std::move(merged));
}

const UserMobility* MobilityTable::find(data::UserId user) const noexcept {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), user,
      [](const EntryPtr& entry, data::UserId u) { return entry->user < u; });
  if (it == entries_.end() || (*it)->user != user) return nullptr;
  return it->get();
}

MobilityTable::EntryPtr MobilityTable::entry_for(data::UserId user) const noexcept {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), user,
      [](const EntryPtr& entry, data::UserId u) { return entry->user < u; });
  if (it == entries_.end() || (*it)->user != user) return nullptr;
  return *it;
}

std::vector<UserMobility> MobilityTable::to_vector() const {
  std::vector<UserMobility> out;
  out.reserve(entries_.size());
  for (const EntryPtr& entry : entries_) out.push_back(*entry);
  return out;
}

MobilityStats MobilityTable::stats() const noexcept {
  MobilityStats stats;
  for (const EntryPtr& entry : entries_) stats.add(*entry);
  return stats;
}

double average_pattern_length(const std::vector<MobilityPattern>& patterns) {
  if (patterns.empty()) return 0.0;
  double total = 0.0;
  for (const MobilityPattern& p : patterns) total += static_cast<double>(p.length());
  return total / static_cast<double>(patterns.size());
}

std::string describe_pattern(const MobilityPattern& pattern, const data::Taxonomy& taxonomy,
                             const data::Dataset& dataset, mining::LabelMode mode) {
  std::string out;
  for (std::size_t i = 0; i < pattern.elements.size(); ++i) {
    if (i > 0) out += " -> ";
    const TimedElement& e = pattern.elements[i];
    const int minute = static_cast<int>(e.mean_minute + 0.5);
    out += crowdweb::format("{}@{:02}:{:02}", mining::label_name(e.label, mode, taxonomy, dataset),
                            minute / 60, minute % 60);
  }
  out += crowdweb::format(" (support {:.2f})", pattern.support);
  return out;
}

}  // namespace crowdweb::patterns
