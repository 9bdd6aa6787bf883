#include "data/dataset.hpp"

#include <algorithm>
#include <utility>

#include "geo/kernels.hpp"
#include "stats/summary.hpp"
#include "util/civil_time.hpp"
#include "util/format.hpp"

namespace crowdweb::data {

void Dataset::CheckInIterator::seek(std::size_t index) noexcept {
  index_ = index;
  const auto& offsets = dataset_->offsets_;
  if (offsets.empty() || index >= offsets.back()) {
    shard_ = dataset_->shards_.size();
    local_ = 0;
    return;
  }
  // offsets_[i] <= index < offsets_[i+1] puts the record in shard i.
  const auto it = std::upper_bound(offsets.begin(), offsets.end(), index);
  shard_ = static_cast<std::size_t>(it - offsets.begin()) - 1;
  local_ = index - offsets[shard_];
}

const Venue* Dataset::venue(VenueId id) const noexcept {
  if (!venues_ || id >= venues_->size()) return nullptr;
  return &(*venues_)[id];
}

Dataset::UserColumns Dataset::checkins_for(UserId user) const noexcept {
  const auto it = std::lower_bound(users_.begin(), users_.end(), user);
  if (it == users_.end() || *it != user) return {};
  const std::size_t index = static_cast<std::size_t>(it - users_.begin());
  return UserColumns(shards_[index].get(), venues_ ? venues_.get() : nullptr);
}

Dataset::ShardPtr Dataset::shard_for(UserId user) const noexcept {
  const auto it = std::lower_bound(users_.begin(), users_.end(), user);
  if (it == users_.end() || *it != user) return nullptr;
  return shards_[static_cast<std::size_t>(it - users_.begin())];
}

VenueSpec Dataset::venue_spec(VenueId id) const {
  const Venue* v = venue(id);
  if (v == nullptr) return {};
  VenueSpec spec;
  spec.id = v->id;
  spec.name = std::string(name(v->name));
  spec.category = v->category;
  spec.position = v->position;
  return spec;
}

DatasetStats Dataset::stats() const {
  DatasetStats s;
  s.checkin_count = checkin_count();
  s.user_count = users_.size();
  s.venue_count = venue_count();
  if (s.checkin_count == 0) return s;

  std::vector<double> per_user;
  per_user.reserve(users_.size());
  for (const ShardPtr& shard : shards_)
    per_user.push_back(static_cast<double>(shard->size()));
  s.mean_records_per_user = stats::mean(per_user);
  s.median_records_per_user = stats::median(per_user);

  std::int64_t first = shards_.front()->timestamps.front();
  std::int64_t last = first;
  for (const ShardPtr& shard : shards_) {
    // Shards are time-sorted: front/back bound the user's range.
    first = std::min(first, shard->timestamps.front());
    last = std::max(last, shard->timestamps.back());
  }
  s.first_timestamp = first;
  s.last_timestamp = last;
  s.collection_days = static_cast<std::size_t>(day_index(last) - day_index(first)) + 1;
  if (s.collection_days > 0)
    s.mean_records_per_user_day =
        s.mean_records_per_user / static_cast<double>(s.collection_days);
  return s;
}

std::vector<std::pair<std::string, std::size_t>> Dataset::monthly_counts() const {
  // Month key = year * 12 + (month - 1), kept ordered. Only the
  // timestamp column matters, so walk it directly.
  std::vector<std::pair<std::int64_t, std::size_t>> keyed;
  for (const ShardPtr& shard : shards_) {
    for (const std::int64_t timestamp : shard->timestamps) {
      const CivilTime civil = to_civil(timestamp);
      const std::int64_t key = static_cast<std::int64_t>(civil.year) * 12 + civil.month - 1;
      const auto it = std::lower_bound(
          keyed.begin(), keyed.end(), key,
          [](const auto& entry, std::int64_t k) { return entry.first < k; });
      if (it != keyed.end() && it->first == key) {
        ++it->second;
      } else {
        keyed.insert(it, {key, 1});
      }
    }
  }
  std::vector<std::pair<std::string, std::size_t>> out;
  out.reserve(keyed.size());
  for (const auto& [key, count] : keyed) {
    out.emplace_back(
        crowdweb::format("{:04}-{:02}", key / 12, key % 12 + 1), count);
  }
  return out;
}

namespace {

/// The sub-span of sorted `timestamps` inside [from, to) (empty when
/// to <= from).
std::span<const std::int64_t> window(std::span<const std::int64_t> timestamps,
                                     std::int64_t from, std::int64_t to) {
  const auto begin = std::lower_bound(timestamps.begin(), timestamps.end(), from);
  const auto end = std::lower_bound(begin, timestamps.end(), to);
  return {begin, end};
}

/// Days with a record in the time-sorted `timestamps`; with `max_gap`
/// > 0, only days holding two consecutive records at most that many
/// seconds apart (the paper's richness rule). Days never decrease along
/// the column, so a day is new exactly when it differs from the last one
/// counted: one pass, no set.
std::size_t qualifying_days(std::span<const std::int64_t> timestamps, std::int64_t max_gap) {
  std::size_t days = 0;
  std::int64_t last_counted = 0;
  std::int64_t prev_day = 0;
  for (std::size_t i = 0; i < timestamps.size(); ++i) {
    const std::int64_t day = day_index(timestamps[i]);
    const bool close =
        i > 0 && day == prev_day && timestamps[i] - timestamps[i - 1] <= max_gap;
    prev_day = day;
    if (days > 0 && day == last_counted) continue;
    if (max_gap > 0 && !close) continue;
    ++days;
    last_counted = day;
  }
  return days;
}

bool qualifies(std::span<const std::int64_t> timestamps, const ActiveUserCriteria& criteria) {
  const std::size_t days = qualifying_days(window(timestamps, criteria.from, criteria.to),
                                           criteria.max_gap_seconds);
  return static_cast<int>(days) > criteria.min_days;
}

}  // namespace

std::size_t Dataset::active_days(UserId user, std::int64_t from, std::int64_t to) const {
  const auto timestamps = checkins_for(user).timestamps();
  const auto begin = std::lower_bound(timestamps.begin(), timestamps.end(), from);
  const auto end = to == 0 ? timestamps.end() : std::lower_bound(begin, timestamps.end(), to);
  return qualifying_days({begin, end}, 0);
}

bool Dataset::is_active_user(UserId user, const ActiveUserCriteria& criteria) const {
  return qualifies(checkins_for(user).timestamps(), criteria);
}

void Dataset::adopt(VenueTablePtr venues, StringPoolPtr pool, NamesPtr names,
                    std::vector<ShardPtr> shards, const geo::BoundingBox& bounds) {
  venues_ = std::move(venues);
  name_pool_ = std::move(pool);
  names_ = std::move(names);
  shards_ = std::move(shards);
  users_.clear();
  offsets_.clear();
  users_.reserve(shards_.size());
  offsets_.reserve(shards_.size() + 1);
  std::size_t total = 0;
  bounds_ = bounds;
  const bool derive_bounds = bounds_.empty();
  for (const ShardPtr& shard : shards_) {
    users_.push_back(shard->user);
    offsets_.push_back(total);
    total += shard->size();
    if (derive_bounds) geo::extend_bounds(bounds_, shard->lats, shard->lons);
  }
  offsets_.push_back(total);
}

Dataset Dataset::sharing(std::vector<ShardPtr> shards) const {
  Dataset out;
  out.adopt(venues_, name_pool_, names_, std::move(shards), geo::BoundingBox{});
  return out;
}

Dataset Dataset::filter_time_range(std::int64_t from, std::int64_t to) const {
  // Each shard's records inside [from, to) are one contiguous run of its
  // time-sorted columns: share the shard when the run is all of it,
  // slice the four columns when it is part, drop the user when empty.
  std::vector<ShardPtr> shards;
  shards.reserve(shards_.size());
  for (const ShardPtr& shard : shards_) {
    const auto in_window = window(shard->timestamps, from, to);
    if (in_window.empty()) continue;
    if (in_window.size() == shard->size()) {
      shards.push_back(shard);
      continue;
    }
    const auto begin = in_window.data() - shard->timestamps.data();
    const auto end = begin + static_cast<std::ptrdiff_t>(in_window.size());
    auto slice = std::make_shared<UserShard>();
    slice->user = shard->user;
    slice->timestamps.assign(in_window.begin(), in_window.end());
    slice->lats.assign(shard->lats.begin() + begin, shard->lats.begin() + end);
    slice->lons.assign(shard->lons.begin() + begin, shard->lons.begin() + end);
    slice->venues.assign(shard->venues.begin() + begin, shard->venues.begin() + end);
    shards.push_back(std::move(slice));
  }
  return sharing(std::move(shards));
}

Dataset Dataset::filter_active_users(const ActiveUserCriteria& criteria) const {
  std::vector<ShardPtr> shards;
  for (const ShardPtr& shard : shards_) {
    if (qualifies(shard->timestamps, criteria)) shards.push_back(shard);
  }
  return sharing(std::move(shards));
}

Dataset Dataset::filter_users(std::span<const UserId> users) const {
  std::vector<UserId> wanted(users.begin(), users.end());
  std::sort(wanted.begin(), wanted.end());
  wanted.erase(std::unique(wanted.begin(), wanted.end()), wanted.end());
  std::vector<ShardPtr> shards;
  shards.reserve(wanted.size());
  for (const UserId user : wanted) {
    if (ShardPtr shard = shard_for(user)) shards.push_back(std::move(shard));
  }
  return sharing(std::move(shards));
}

const Venue* DatasetBuilder::venue_at(VenueId id) const noexcept {
  const std::size_t base_count = base_.venue_count();
  if (id < base_count) return base_.venue(id);
  const std::size_t local = id - base_count;
  if (local >= new_venues_.size()) return nullptr;
  return &new_venues_[local];
}

void DatasetBuilder::ensure_pool() {
  if (!pool_) pool_ = std::make_shared<StringPool>();
}

Status DatasetBuilder::validate_venue(const Venue& venue, std::string_view display_name) {
  const std::size_t next_id = base_.venue_count() + new_venues_.size();
  if (venue.id != next_id)
    return invalid_argument(
        crowdweb::format("venue ids must be dense: expected {}, got {}", next_id,
                         venue.id));
  if (!geo::is_valid(venue.position))
    return invalid_argument(crowdweb::format("venue '{}' has an invalid position", display_name));
  if (venue.category == kNoCategory)
    return invalid_argument(crowdweb::format("venue '{}' has no category", display_name));
  return Status::ok();
}

Status DatasetBuilder::add_venue(const VenueSpec& spec) {
  Venue venue;
  venue.id = spec.id;
  venue.category = spec.category;
  venue.position = spec.position;
  if (Status status = validate_venue(venue, spec.name); !status.is_ok()) return status;
  ensure_pool();
  venue.name = pool_->intern(spec.name);
  new_venues_.push_back(venue);
  return Status::ok();
}

Status DatasetBuilder::add_venue(Venue venue) {
  ensure_pool();
  const std::string_view display_name =
      venue.name < pool_->size() ? pool_->snapshot()->names()[venue.name]
                                 : std::string_view{};
  if (Status status = validate_venue(venue, display_name); !status.is_ok()) return status;
  if (venue.name >= pool_->size())
    return invalid_argument(crowdweb::format(
        "venue {} references name id {} outside the pool ({} interned)", venue.id,
        venue.name, pool_->size()));
  new_venues_.push_back(venue);
  return Status::ok();
}

Status DatasetBuilder::add_checkin(CheckIn checkin) {
  const Venue* venue = venue_at(checkin.venue);
  if (venue == nullptr)
    return invalid_argument(crowdweb::format("check-in references unknown venue {}", checkin.venue));
  if (!geo::is_valid(checkin.position))
    return invalid_argument("check-in has an invalid position");
  if (checkin.category != venue->category)
    return invalid_argument(
        crowdweb::format("check-in category {} does not match venue category {}",
                         checkin.category, venue->category));
  pending_bounds_.extend(checkin.position);
  pending_[checkin.user].push_back(checkin);
  ++pending_count_;
  return Status::ok();
}

Dataset DatasetBuilder::build() {
  stats_ = {};
  ensure_pool();

  // Venue table: copy-on-write — adopt the base table untouched unless
  // this delta introduced venues.
  Dataset::VenueTablePtr venues;
  if (new_venues_.empty()) {
    venues = base_.venues_;
    stats_.venue_table_shared = venues != nullptr;
  } else {
    auto table = std::make_shared<std::vector<Venue>>();
    table->reserve(base_.venue_count() + new_venues_.size());
    if (base_.venues_)
      table->insert(table->end(), base_.venues_->begin(), base_.venues_->end());
    for (const Venue& v : new_venues_) table->push_back(v);
    venues = std::move(table);
  }

  // Touched users, ascending, each with its delta stably time-sorted so
  // same-timestamp records keep arrival order.
  std::vector<UserId> touched;
  touched.reserve(pending_.size());
  for (auto& [user, records] : pending_) {
    touched.push_back(user);
    std::stable_sort(records.begin(), records.end(),
                     [](const CheckIn& a, const CheckIn& b) {
                       return a.timestamp < b.timestamp;
                     });
  }
  std::sort(touched.begin(), touched.end());

  // Merge the base's user-sorted shards with the touched users: an
  // untouched shard is shared by pointer; a touched one is rebuilt by a
  // stable columnar time-merge of base records (first on ties) and the
  // delta.
  std::vector<Dataset::ShardPtr> shards;
  shards.reserve(base_.shards_.size() + touched.size());
  std::size_t bi = 0;
  std::size_t ti = 0;
  while (bi < base_.shards_.size() || ti < touched.size()) {
    if (ti == touched.size() ||
        (bi < base_.shards_.size() && base_.shards_[bi]->user < touched[ti])) {
      shards.push_back(base_.shards_[bi]);
      ++stats_.shards_reused;
      ++bi;
      continue;
    }
    const UserId user = touched[ti];
    std::vector<CheckIn>& delta = pending_[user];
    auto shard = std::make_shared<Dataset::UserShard>();
    shard->user = user;
    const Dataset::UserShard* existing = nullptr;
    if (bi < base_.shards_.size() && base_.shards_[bi]->user == user) {
      existing = base_.shards_[bi].get();
      ++bi;
    }
    const std::size_t base_n = existing ? existing->size() : 0;
    const std::size_t n = base_n + delta.size();
    shard->timestamps.reserve(n);
    shard->lats.reserve(n);
    shard->lons.reserve(n);
    shard->venues.reserve(n);
    std::size_t i = 0;  // base cursor
    std::size_t j = 0;  // delta cursor
    while (i < base_n || j < delta.size()) {
      // Base wins timestamp ties, matching std::merge's stable order.
      if (j == delta.size() ||
          (i < base_n && existing->timestamps[i] <= delta[j].timestamp)) {
        shard->timestamps.push_back(existing->timestamps[i]);
        shard->lats.push_back(existing->lats[i]);
        shard->lons.push_back(existing->lons[i]);
        shard->venues.push_back(existing->venues[i]);
        ++i;
      } else {
        shard->timestamps.push_back(delta[j].timestamp);
        shard->lats.push_back(delta[j].position.lat);
        shard->lons.push_back(delta[j].position.lon);
        shard->venues.push_back(delta[j].venue);
        ++j;
      }
    }
    shards.push_back(std::move(shard));
    ++stats_.shards_rebuilt;
    ++ti;
  }

  geo::BoundingBox bounds = base_.bounds_;
  bounds.extend(pending_bounds_);

  Dataset out;
  out.adopt(std::move(venues), pool_, pool_->snapshot(), std::move(shards), bounds);
  base_ = Dataset{};
  new_venues_.clear();
  pending_.clear();
  pending_count_ = 0;
  pending_bounds_ = geo::BoundingBox{};
  return out;
}

}  // namespace crowdweb::data
