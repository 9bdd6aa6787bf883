#include "crowd/model.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <set>

#include "util/civil_time.hpp"
#include "util/format.hpp"
#include "util/parallel.hpp"

namespace crowdweb::crowd {

namespace {

/// Label of every venue under the given mode, indexed by VenueId.
///
/// A check-in's label depends only on its venue (the builder guarantees
/// checkin.category == venue.category), so the per-checkin taxonomy
/// lookup of the old row-oriented path collapses into one table
/// computed per build and shared by every user.
std::vector<mining::Item> label_venues(const data::Dataset& dataset,
                                       const data::Taxonomy& taxonomy,
                                       mining::LabelMode mode) {
  const std::span<const data::Venue> venues = dataset.venues();
  std::vector<mining::Item> labels(venues.size());
  for (std::size_t v = 0; v < venues.size(); ++v) {
    switch (mode) {
      case mining::LabelMode::kRootCategory:
        labels[v] = taxonomy.root_of(venues[v].category);
        break;
      case mining::LabelMode::kLeafCategory:
        labels[v] = venues[v].category;
        break;
      case mining::LabelMode::kVenue:
        labels[v] = venues[v].id;
        break;
    }
  }
  return labels;
}

/// Loop-invariant lookup tables shared by every user of one build:
/// the per-venue label column and the minute-of-day -> window map
/// (replacing a per-record division by the runtime window size).
struct PlacementTables {
  std::vector<mining::Item> venue_labels;          ///< indexed by VenueId
  std::vector<std::uint16_t> window_of_minute;     ///< 1440 entries
};

PlacementTables make_tables(const data::Dataset& dataset, const data::Taxonomy& taxonomy,
                            mining::LabelMode mode, int window_minutes) {
  PlacementTables tables;
  tables.venue_labels = label_venues(dataset, taxonomy, mode);
  tables.window_of_minute.resize(24 * 60);
  for (int minute = 0; minute < 24 * 60; ++minute)
    tables.window_of_minute[static_cast<std::size_t>(minute)] =
        static_cast<std::uint16_t>(minute / window_minutes);
  return tables;
}

/// Picks, per (label, window), the venue the user checked into most often
/// during that window; falls back to their most-visited venue of that
/// label at any time.
///
/// Columnar and demand-driven: the constructor makes one pass over the
/// user's timestamp column to precompute each record's window, and each
/// pick() answers by scanning the venue/window columns for the queried
/// (label, window). A user is only ever asked about the few elements of
/// their qualifying patterns, so two O(records) scans per query beat
/// building any index — and replace the old per-record std::map nest.
/// Picks are identical to the old maps': highest count wins, ties break
/// toward the smallest venue id (the old map's ascending iteration
/// order with a strictly-greater comparison).
class RepresentativeVenues {
 public:
  RepresentativeVenues(const data::Dataset::UserColumns& records,
                       const PlacementTables& tables)
      : venues_(records.venues()), tables_(tables) {
    const std::span<const std::int64_t> timestamps = records.timestamps();
    windows_.resize(timestamps.size());
    for (std::size_t i = 0; i < timestamps.size(); ++i)
      windows_[i] = tables.window_of_minute[static_cast<std::size_t>(
          minute_of_day(timestamps[i]))];
  }

  [[nodiscard]] std::optional<data::VenueId> pick(mining::Item label, int window) const {
    const std::span<const mining::Item> venue_labels = tables_.venue_labels;
    // Per-venue counts of the matching records, in first-seen order;
    // users visit few distinct venues per label, so linear probing wins.
    std::vector<std::pair<data::VenueId, std::size_t>> counts;
    const auto bump = [&counts](data::VenueId venue) {
      for (auto& [seen, count] : counts) {
        if (seen == venue) {
          ++count;
          return;
        }
      }
      counts.emplace_back(venue, 1);
    };
    for (std::size_t i = 0; i < venues_.size(); ++i) {
      if (venue_labels[venues_[i]] == label && windows_[i] == window) bump(venues_[i]);
    }
    if (counts.empty()) {
      // Fallback: the user's most-visited venue of this label at any time.
      for (const data::VenueId venue : venues_) {
        if (venue_labels[venue] == label) bump(venue);
      }
    }
    if (counts.empty()) return std::nullopt;
    data::VenueId best_venue = counts.front().first;
    std::size_t best_count = 0;
    for (const auto& [venue, count] : counts) {
      if (count > best_count || (count == best_count && venue < best_venue)) {
        best_count = count;
        best_venue = venue;
      }
    }
    return best_venue;
  }

 private:
  std::span<const data::VenueId> venues_;   ///< the user's venue column
  const PlacementTables& tables_;
  std::vector<std::uint16_t> windows_;      ///< window of each record
};

/// Appends one user's placements into per-window scratch vectors. The
/// full build, the parallel chunks, and the incremental update place
/// users through this single code path, so their outputs agree
/// element-for-element.
///
/// Reads the entry's support-frontier placement index, which holds in
/// ascending rank (the full pattern set's emission order) every (label,
/// minute) candidate that can win a placement at some threshold. The
/// rule is the paper's: skip elements of patterns below
/// min_pattern_support, the first qualifying element per (window,
/// label) wins, placed at the user's representative venue for it.
void append_user_placements(const data::Dataset& dataset, const patterns::UserMobility& user,
                            const geo::SpatialGrid& grid, const CrowdOptions& options,
                            const PlacementTables& tables,
                            std::vector<std::vector<CrowdPlacement>>& out) {
  if (user.placement_index.empty()) return;
  const int windows = static_cast<int>(out.size());
  const double days = static_cast<double>(user.recorded_days);
  // Built on the first qualifying candidate: most users never clear the
  // support threshold, and skipping their index build is most of the
  // stage's win at scale.
  std::optional<RepresentativeVenues> venues;
  // A user appears at most once per (window, label): dedupe elements of
  // different patterns that land in the same window.
  std::set<std::pair<int, mining::Item>> placed;
  for (const patterns::PlacementCandidate& candidate : user.placement_index) {
    const double support = static_cast<double>(candidate.support_count) / days;
    if (support < options.min_pattern_support) continue;
    if (!venues) venues.emplace(dataset.checkins_for(user.user), tables);
    const int window = std::clamp(static_cast<int>(candidate.minute) / options.window_minutes,
                                  0, windows - 1);
    if (!placed.insert({window, candidate.label}).second) continue;
    const auto venue_id = venues->pick(candidate.label, window);
    if (!venue_id) continue;
    const data::Venue* venue = dataset.venue(*venue_id);
    if (venue == nullptr) continue;
    CrowdPlacement placement;
    placement.user = user.user;
    placement.label = candidate.label;
    placement.venue = *venue_id;
    placement.position = venue->position;
    placement.cell = grid.clamped_cell_of(venue->position);
    placement.pattern_support = support;
    out[static_cast<std::size_t>(window)].push_back(placement);
  }
}

/// Validates options and, on success, fills per-window placement
/// vectors by running every entry of `mobility` (any range of
/// UserMobility) through the shared placement path. Entries must be in
/// ascending user order — that is what makes each window's placements
/// user-sorted, which the incremental update relies on.
///
/// With threads > 1 the entries are split into contiguous chunks, each
/// placed into its own scratch windows on the worker pool, and the
/// per-window results are concatenated in chunk order — reproducing the
/// sequential output exactly.
template <typename MobilityRange>
Result<std::vector<std::vector<CrowdPlacement>>> place_all(const data::Dataset& dataset,
                                                           const MobilityRange& mobility,
                                                           const geo::SpatialGrid& grid,
                                                           const CrowdOptions& options,
                                                           unsigned threads) {
  if (options.window_minutes <= 0 || (24 * 60) % options.window_minutes != 0)
    return invalid_argument(
        crowdweb::format("window_minutes must divide a day, got {}", options.window_minutes));

  const int windows = (24 * 60) / options.window_minutes;
  std::vector<std::vector<CrowdPlacement>> scratch(static_cast<std::size_t>(windows));

  // NOTE: synchronization assumes root-category labels, the platform
  // default; the representative-venue lookup mirrors that.
  const PlacementTables tables = make_tables(dataset, data::Taxonomy::foursquare(),
                                             mining::LabelMode::kRootCategory,
                                             options.window_minutes);

  std::vector<const patterns::UserMobility*> entries;
  for (const patterns::UserMobility& user : mobility) entries.push_back(&user);

  const unsigned workers = util::effective_threads(threads, entries.size());
  if (workers <= 1) {
    for (const patterns::UserMobility* user : entries)
      append_user_placements(dataset, *user, grid, options, tables, scratch);
    return scratch;
  }

  std::vector<std::vector<std::vector<CrowdPlacement>>> chunk_scratch(
      workers, std::vector<std::vector<CrowdPlacement>>(static_cast<std::size_t>(windows)));
  util::parallel_chunks(entries.size(), workers,
                        [&](unsigned chunk, std::size_t begin, std::size_t end) {
                          for (std::size_t i = begin; i < end; ++i)
                            append_user_placements(dataset, *entries[i], grid, options,
                                                   tables, chunk_scratch[chunk]);
                        });
  for (std::size_t w = 0; w < scratch.size(); ++w) {
    std::size_t total = 0;
    for (const auto& chunk : chunk_scratch) total += chunk[w].size();
    scratch[w].reserve(total);
    for (auto& chunk : chunk_scratch)
      scratch[w].insert(scratch[w].end(), chunk[w].begin(), chunk[w].end());
  }
  return scratch;
}

}  // namespace

void CrowdModel::adopt_windows(std::vector<std::vector<CrowdPlacement>> windows) {
  placements_.clear();
  placements_.reserve(windows.size());
  for (std::vector<CrowdPlacement>& window : windows)
    placements_.push_back(std::make_shared<const std::vector<CrowdPlacement>>(std::move(window)));
}

Result<CrowdModel> CrowdModel::build(const data::Dataset& dataset,
                                     std::span<const patterns::UserMobility> mobility,
                                     const geo::SpatialGrid& grid,
                                     const CrowdOptions& options, unsigned threads) {
  auto placed = place_all(dataset, mobility, grid, options, threads);
  if (!placed) return placed.status();
  CrowdModel model(grid, options);
  model.adopt_windows(std::move(*placed));
  return model;
}

Result<CrowdModel> CrowdModel::build(const data::Dataset& dataset,
                                     const patterns::MobilityTable& mobility,
                                     const geo::SpatialGrid& grid,
                                     const CrowdOptions& options, unsigned threads) {
  auto placed = place_all(dataset, mobility, grid, options, threads);
  if (!placed) return placed.status();
  CrowdModel model(grid, options);
  model.adopt_windows(std::move(*placed));
  return model;
}

Result<CrowdModel> CrowdModel::merge(std::span<const CrowdModel* const> parts) {
  if (parts.empty()) return invalid_argument("merge needs at least one part");
  const CrowdModel& first = *parts.front();
  if (first.window_count() == 0)
    return invalid_argument("cannot merge default-constructed crowd models");
  for (const CrowdModel* part : parts) {
    if (part->window_count() != first.window_count() ||
        part->options_.window_minutes != first.options_.window_minutes ||
        part->options_.min_pattern_support != first.options_.min_pattern_support)
      return invalid_argument("crowd models disagree on windows or options");
    if (part->grid_.bounds() != first.grid_.bounds() ||
        part->grid_.rows() != first.grid_.rows() ||
        part->grid_.cols() != first.grid_.cols() ||
        part->grid_.cell_size_meters() != first.grid_.cell_size_meters())
      return invalid_argument(
          "crowd models disagree on grid geometry; merge requires a pinned grid");
  }

  CrowdModel model(first.grid_, first.options_);
  const std::size_t windows = first.placements_.size();
  model.placements_.resize(windows);
  std::vector<const WindowPtr*> live;
  for (std::size_t w = 0; w < windows; ++w) {
    live.clear();
    for (const CrowdModel* part : parts) {
      if (!part->placements_[w]->empty()) live.push_back(&part->placements_[w]);
    }
    if (live.empty()) {
      model.placements_[w] = first.placements_[w];  // any empty window serves
      continue;
    }
    if (live.size() == 1) {
      model.placements_[w] = *live.front();  // single contributor: share
      continue;
    }
    // K-way merge by user id. Each user's placements come from exactly
    // one part, so comparing the head users reproduces the global
    // user-sorted order a single build would emit.
    auto merged = std::make_shared<std::vector<CrowdPlacement>>();
    std::size_t total = 0;
    for (const WindowPtr* window : live) total += (*window)->size();
    merged->reserve(total);
    std::vector<std::size_t> cursor(live.size(), 0);
    while (merged->size() < total) {
      std::size_t pick = live.size();
      for (std::size_t i = 0; i < live.size(); ++i) {
        if (cursor[i] >= (*live[i])->size()) continue;
        if (pick == live.size() ||
            (**live[i])[cursor[i]].user < (**live[pick])[cursor[pick]].user)
          pick = i;
      }
      merged->push_back((**live[pick])[cursor[pick]++]);
    }
    model.placements_[w] = std::move(merged);
  }
  return model;
}

Result<CrowdModel> CrowdModel::update(const CrowdModel& previous,
                                      const data::Dataset& dataset,
                                      const patterns::MobilityTable& mobility,
                                      std::span<const data::UserId> changed_users) {
  CrowdModel model(previous.grid_, previous.options_);
  const int windows = previous.window_count();
  if (windows == 0)
    return invalid_argument("cannot update a default-constructed crowd model");

  // Place the changed users afresh, ascending by user id so each
  // window's fresh block is user-sorted like the full build's output.
  std::vector<data::UserId> changed(changed_users.begin(), changed_users.end());
  std::sort(changed.begin(), changed.end());
  changed.erase(std::unique(changed.begin(), changed.end()), changed.end());

  const PlacementTables tables = make_tables(dataset, data::Taxonomy::foursquare(),
                                             mining::LabelMode::kRootCategory,
                                             model.options_.window_minutes);
  std::vector<std::vector<CrowdPlacement>> fresh(static_cast<std::size_t>(windows));
  for (const data::UserId user : changed) {
    if (const patterns::UserMobility* entry = mobility.find(user))
      append_user_placements(dataset, *entry, model.grid_, model.options_, tables, fresh);
  }

  const auto is_changed = [&](data::UserId user) {
    return std::binary_search(changed.begin(), changed.end(), user);
  };
  const auto contains_changed = [&](const std::vector<CrowdPlacement>& old) {
    for (const data::UserId user : changed) {
      // Placements are user-sorted; one binary search per changed user.
      const auto it = std::lower_bound(
          old.begin(), old.end(), user,
          [](const CrowdPlacement& p, data::UserId u) { return p.user < u; });
      if (it != old.end() && it->user == user) return true;
    }
    return false;
  };

  model.placements_.resize(static_cast<std::size_t>(windows));
  for (int w = 0; w < windows; ++w) {
    const std::size_t wi = static_cast<std::size_t>(w);
    const std::vector<CrowdPlacement>& old = *previous.placements_[wi];
    if (fresh[wi].empty() && !contains_changed(old)) {
      model.placements_[wi] = previous.placements_[wi];  // untouched: share
      continue;
    }
    // Rebuild the window: retract the changed users' old placements and
    // merge the fresh blocks in by user id, preserving per-user order.
    auto rebuilt = std::make_shared<std::vector<CrowdPlacement>>();
    rebuilt->reserve(old.size() + fresh[wi].size());
    std::size_t oi = 0;
    std::size_t fi = 0;
    while (oi < old.size() || fi < fresh[wi].size()) {
      if (oi < old.size() && is_changed(old[oi].user)) {
        ++oi;  // retracted
        continue;
      }
      if (fi == fresh[wi].size()) {
        rebuilt->push_back(old[oi++]);
      } else if (oi == old.size() || fresh[wi][fi].user < old[oi].user) {
        rebuilt->push_back(fresh[wi][fi++]);
      } else {
        rebuilt->push_back(old[oi++]);
      }
    }
    model.placements_[wi] = std::move(rebuilt);
  }
  return model;
}

std::string CrowdModel::window_label(int window) const {
  const int start = window * options_.window_minutes;
  const int end = start + options_.window_minutes;
  return crowdweb::format("{:02}:{:02}-{:02}:{:02}", start / 60, start % 60,
                          (end / 60) % 25, end % 60);
}

std::span<const CrowdPlacement> CrowdModel::placements(int window) const {
  if (window < 0 || window >= window_count()) return {};
  return *placements_[static_cast<std::size_t>(window)];
}

CrowdDistribution CrowdModel::distribution(int window) const {
  CrowdDistribution dist(window);
  for (const CrowdPlacement& placement : placements(window)) dist.add(placement.cell);
  return dist;
}

FlowMatrix CrowdModel::flow(int from_window, int to_window) const {
  FlowMatrix matrix(from_window, to_window);
  // Index the destination window by user; a user may occupy several
  // labels per window — use their first placement in each.
  std::map<data::UserId, geo::CellId> destination;
  for (const CrowdPlacement& placement : placements(to_window))
    destination.try_emplace(placement.user, placement.cell);
  std::set<data::UserId> moved;
  for (const CrowdPlacement& placement : placements(from_window)) {
    if (!moved.insert(placement.user).second) continue;
    const auto it = destination.find(placement.user);
    if (it == destination.end()) continue;
    matrix.add(placement.cell, it->second);
  }
  return matrix;
}

std::vector<CrowdGroup> CrowdModel::groups(int window, std::size_t min_size) const {
  std::map<std::pair<geo::CellId, mining::Item>, std::vector<data::UserId>> buckets;
  for (const CrowdPlacement& placement : placements(window))
    buckets[{placement.cell, placement.label}].push_back(placement.user);
  std::vector<CrowdGroup> out;
  for (auto& [key, users] : buckets) {
    if (users.size() < std::max<std::size_t>(1, min_size)) continue;
    std::sort(users.begin(), users.end());
    out.push_back({key.first, key.second, std::move(users)});
  }
  std::sort(out.begin(), out.end(), [](const CrowdGroup& a, const CrowdGroup& b) {
    if (a.users.size() != b.users.size()) return a.users.size() > b.users.size();
    if (a.cell != b.cell) return a.cell < b.cell;
    return a.label < b.label;
  });
  return out;
}

std::size_t CrowdModel::total_placements() const noexcept {
  std::size_t total = 0;
  for (const auto& window : placements_) total += window->size();
  return total;
}

CrowdModel::Rhythm CrowdModel::rhythm() const {
  Rhythm out;
  std::map<mining::Item, std::size_t> index;
  for (const auto& window : placements_) {
    for (const CrowdPlacement& placement : *window) index.emplace(placement.label, 0);
  }
  std::size_t next = 0;
  for (auto& [label, slot] : index) {
    slot = next++;
    out.labels.push_back(label);
  }
  out.counts.assign(out.labels.size(),
                    std::vector<std::size_t>(placements_.size(), 0));
  for (std::size_t w = 0; w < placements_.size(); ++w) {
    for (const CrowdPlacement& placement : *placements_[w])
      ++out.counts[index[placement.label]][w];
  }
  return out;
}

}  // namespace crowdweb::crowd
