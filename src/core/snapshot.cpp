#include "core/snapshot.hpp"

#include <filesystem>
#include <limits>

#include "data/dataset_io.hpp"
#include "util/format.hpp"

namespace crowdweb::core {

json::Value mobility_to_json(std::span<const patterns::UserMobility> mobility) {
  json::Value users = json::Value(json::Array{});
  for (const patterns::UserMobility& user : mobility) {
    json::Value pattern_list = json::Value(json::Array{});
    for (const patterns::MobilityPattern& pattern : user.patterns) {
      json::Value elements = json::Value(json::Array{});
      for (const patterns::TimedElement& element : pattern.elements) {
        elements.push_back(json::object({{"label", static_cast<std::int64_t>(element.label)},
                                         {"mean_minute", element.mean_minute},
                                         {"stddev_minute", element.stddev_minute}}));
      }
      pattern_list.push_back(json::object(
          {{"elements", std::move(elements)},
           {"support_count", static_cast<std::int64_t>(pattern.support_count)},
           {"support", pattern.support}}));
    }
    json::Value user_value = json::object(
        {{"user", static_cast<std::int64_t>(user.user)},
         {"recorded_days", static_cast<std::int64_t>(user.recorded_days)},
         {"patterns", std::move(pattern_list)}});
    if (user.closed_only) {
      // Compact entries persist their closed-mode sidecar (frequent-set
      // size + placement index) so a restore serves identical bytes
      // without re-expanding. Expanded entries omit the fields entirely,
      // keeping default-mode snapshots byte-identical to version 1; the
      // loader re-derives their index from the stored patterns.
      user_value.set("closed", true);
      user_value.set("frequent_patterns",
                     static_cast<std::int64_t>(user.frequent_patterns));
      json::Value index = json::Value(json::Array{});
      for (const patterns::PlacementCandidate& candidate : user.placement_index) {
        index.push_back(json::object(
            {{"label", static_cast<std::int64_t>(candidate.label)},
             {"minute", static_cast<std::int64_t>(candidate.minute)},
             {"rank", static_cast<std::int64_t>(candidate.rank)},
             {"support_count", static_cast<std::int64_t>(candidate.support_count)},
             {"support", static_cast<double>(candidate.support_count) /
                             static_cast<double>(user.recorded_days)}}));
      }
      user_value.set("placement_index", std::move(index));
    }
    users.push_back(std::move(user_value));
  }
  return json::object({{"version", 1}, {"users", std::move(users)}});
}

namespace {

/// Fetches a required member or fails.
Result<const json::Value*> member(const json::Value& value, std::string_view key) {
  const json::Value* found = value.find(key);
  if (found == nullptr)
    return parse_error(crowdweb::format("snapshot: missing field '{}'", key));
  return found;
}

/// Crowd placement derives a pattern's support as support_count /
/// recorded_days, so a stored count must lie in [1, days] and a stored
/// support must be exactly that quotient; anything else (a count over
/// zero days above all) is a hostile or corrupt file.
bool valid_support(std::int64_t count, double support, std::size_t days) {
  return count >= 1 && static_cast<std::uint64_t>(count) <= days &&
         support == static_cast<double>(count) / static_cast<double>(days);
}

/// A minute of the day; NaN fails both comparisons.
bool valid_minute(double minute) { return minute >= 0.0 && minute < 24 * 60; }

/// An integer that fits the 32-bit ids and counts the loader narrows to.
bool fits_u32(std::int64_t value) {
  return value >= 0 && value <= std::numeric_limits<std::uint32_t>::max();
}

}  // namespace

Result<std::vector<patterns::UserMobility>> mobility_from_json(const json::Value& value) {
  auto version = member(value, "version");
  if (!version) return version.status();
  if (!(*version)->is_int() || (*version)->as_int() != 1)
    return parse_error("snapshot: unsupported mobility version");
  auto users_value = member(value, "users");
  if (!users_value) return users_value.status();
  if (!(*users_value)->is_array()) return parse_error("snapshot: 'users' must be an array");

  std::vector<patterns::UserMobility> out;
  for (const json::Value& user_value : (*users_value)->as_array()) {
    patterns::UserMobility user;
    auto id = member(user_value, "user");
    auto days = member(user_value, "recorded_days");
    auto pattern_list = member(user_value, "patterns");
    if (!id || !days || !pattern_list) return parse_error("snapshot: malformed user entry");
    if (!(*id)->is_int() || !(*days)->is_int() || !(*pattern_list)->is_array() ||
        !fits_u32((*id)->as_int()) || (*days)->as_int() < 0)
      return parse_error("snapshot: malformed user entry");
    user.user = static_cast<data::UserId>((*id)->as_int());
    user.recorded_days = static_cast<std::size_t>((*days)->as_int());
    for (const json::Value& pattern_value : (*pattern_list)->as_array()) {
      patterns::MobilityPattern pattern;
      auto elements = member(pattern_value, "elements");
      auto support_count = member(pattern_value, "support_count");
      auto support = member(pattern_value, "support");
      if (!elements || !support_count || !support)
        return parse_error("snapshot: malformed pattern entry");
      if (!(*elements)->is_array() || !(*support_count)->is_int() ||
          !(*support)->is_number() ||
          !valid_support((*support_count)->as_int(), (*support)->as_double(),
                         user.recorded_days))
        return parse_error("snapshot: malformed pattern entry");
      pattern.support_count = static_cast<std::size_t>((*support_count)->as_int());
      pattern.support = (*support)->as_double();
      for (const json::Value& element_value : (*elements)->as_array()) {
        auto label = member(element_value, "label");
        auto mean = member(element_value, "mean_minute");
        auto stddev = member(element_value, "stddev_minute");
        if (!label || !mean || !stddev || !(*label)->is_int() || !(*mean)->is_number() ||
            !(*stddev)->is_number() || !fits_u32((*label)->as_int()) ||
            !valid_minute((*mean)->as_double()))
          return parse_error("snapshot: malformed element entry");
        patterns::TimedElement element;
        element.label = static_cast<mining::Item>((*label)->as_int());
        element.mean_minute = (*mean)->as_double();
        element.stddev_minute = (*stddev)->as_double();
        pattern.elements.push_back(element);
      }
      user.patterns.push_back(std::move(pattern));
    }
    if (const json::Value* closed = user_value.find("closed"); closed != nullptr) {
      if (!closed->is_bool()) return parse_error("snapshot: 'closed' must be a bool");
      user.closed_only = closed->as_bool();
    }
    if (user.closed_only) {
      auto frequent = member(user_value, "frequent_patterns");
      auto index = member(user_value, "placement_index");
      if (!frequent || !index) return parse_error("snapshot: malformed compact entry");
      if (!(*frequent)->is_int() || !(*index)->is_array() || (*frequent)->as_int() < 0)
        return parse_error("snapshot: malformed compact entry");
      user.frequent_patterns = static_cast<std::size_t>((*frequent)->as_int());
      for (const json::Value& candidate_value : (*index)->as_array()) {
        auto label = member(candidate_value, "label");
        auto minute = member(candidate_value, "minute");
        auto rank = member(candidate_value, "rank");
        auto count = member(candidate_value, "support_count");
        auto support = member(candidate_value, "support");
        if (!label || !minute || !rank || !count || !support)
          return parse_error("snapshot: malformed placement candidate");
        if (!(*label)->is_int() || !(*minute)->is_int() || !(*rank)->is_int() ||
            !(*count)->is_int() || !(*support)->is_number())
          return parse_error("snapshot: malformed placement candidate");
        const std::int64_t at = (*minute)->as_int();
        const std::int64_t order = (*rank)->as_int();
        const std::int64_t days_with = (*count)->as_int();
        const std::int64_t previous =
            user.placement_index.empty()
                ? -1
                : static_cast<std::int64_t>(user.placement_index.back().rank);
        if (at < 0 || at >= 24 * 60 || order <= previous || !fits_u32(order) ||
            !fits_u32(days_with) || !fits_u32((*label)->as_int()) ||
            !valid_support(days_with, (*support)->as_double(), user.recorded_days))
          return parse_error("snapshot: placement candidate out of range");
        user.placement_index.push_back(
            {static_cast<mining::Item>((*label)->as_int()), static_cast<std::uint16_t>(at),
             static_cast<std::uint32_t>(order), static_cast<std::uint32_t>(days_with)});
      }
    } else {
      user.placement_index = patterns::placement_index_of(user.patterns);
    }
    out.push_back(std::move(user));
  }
  return out;
}

json::Value config_to_json(const PlatformConfig& config) {
  return json::object(
      {{"version", 1},
       {"seed", static_cast<std::int64_t>(config.seed)},
       {"small_corpus", config.small_corpus},
       {"experiment_start", config.experiment_start},
       {"experiment_end", config.experiment_end},
       {"min_active_days", config.min_active_days},
       {"max_gap_seconds", config.max_gap_seconds},
       {"label_mode", static_cast<int>(config.sequences.mode)},
       {"collapse_repeats", config.sequences.collapse_repeats},
       {"min_day_length", static_cast<std::int64_t>(config.sequences.min_day_length)},
       {"min_support", config.mining.min_support},
       {"max_pattern_length", static_cast<std::int64_t>(config.mining.max_pattern_length)},
       {"grid_cell_meters", config.grid_cell_meters},
       {"window_minutes", config.crowd.window_minutes},
       {"min_pattern_support", config.crowd.min_pattern_support}});
}

Result<PlatformConfig> config_from_json(const json::Value& value) {
  PlatformConfig config;
  const auto get_int = [&](std::string_view key, auto& slot) -> Status {
    auto field = member(value, key);
    if (!field) return field.status();
    if (!(*field)->is_int())
      return parse_error(crowdweb::format("snapshot: '{}' must be an integer", key));
    slot = static_cast<std::decay_t<decltype(slot)>>((*field)->as_int());
    return Status::ok();
  };
  const auto get_double = [&](std::string_view key, double& slot) -> Status {
    auto field = member(value, key);
    if (!field) return field.status();
    if (!(*field)->is_number())
      return parse_error(crowdweb::format("snapshot: '{}' must be a number", key));
    slot = (*field)->as_double();
    return Status::ok();
  };
  const auto get_bool = [&](std::string_view key, bool& slot) -> Status {
    auto field = member(value, key);
    if (!field) return field.status();
    if (!(*field)->is_bool())
      return parse_error(crowdweb::format("snapshot: '{}' must be a bool", key));
    slot = (*field)->as_bool();
    return Status::ok();
  };

  std::int64_t version = 0;
  Status status = get_int("version", version);
  if (!status.is_ok()) return status;
  if (version != 1) return parse_error("snapshot: unsupported config version");

  int label_mode = 0;
  for (const Status& step :
       {get_int("seed", config.seed), get_bool("small_corpus", config.small_corpus),
        get_int("experiment_start", config.experiment_start),
        get_int("experiment_end", config.experiment_end),
        get_int("min_active_days", config.min_active_days),
        get_int("max_gap_seconds", config.max_gap_seconds),
        get_int("label_mode", label_mode),
        get_bool("collapse_repeats", config.sequences.collapse_repeats),
        get_int("min_day_length", config.sequences.min_day_length),
        get_double("min_support", config.mining.min_support),
        get_int("max_pattern_length", config.mining.max_pattern_length),
        get_double("grid_cell_meters", config.grid_cell_meters),
        get_int("window_minutes", config.crowd.window_minutes),
        get_double("min_pattern_support", config.crowd.min_pattern_support)}) {
    if (!step.is_ok()) return step;
  }
  if (label_mode < 0 || label_mode > 2)
    return parse_error("snapshot: label_mode out of range");
  config.sequences.mode = static_cast<mining::LabelMode>(label_mode);
  return config;
}

Status save_snapshot(const Platform& platform, const std::string& directory) {
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) return io_error(crowdweb::format("cannot create '{}': {}", directory, ec.message()));

  const data::Taxonomy& taxonomy = platform.taxonomy();
  Status status = data::write_file(directory + "/venues.csv",
                                   data::venues_to_csv(platform.full_dataset(), taxonomy));
  if (!status.is_ok()) return status;
  status = data::write_file(directory + "/checkins.csv",
                            data::checkins_to_csv(platform.full_dataset(), taxonomy));
  if (!status.is_ok()) return status;
  status = data::write_file(directory + "/mobility.json",
                            json::dump(mobility_to_json(platform.mobility())));
  if (!status.is_ok()) return status;
  return data::write_file(directory + "/config.json",
                          json::dump(config_to_json(platform.config())));
}

Result<Platform> load_snapshot(const std::string& directory) {
  auto venues = data::read_file(directory + "/venues.csv");
  if (!venues) return venues.status();
  auto checkins = data::read_file(directory + "/checkins.csv");
  if (!checkins) return checkins.status();
  auto mobility_text = data::read_file(directory + "/mobility.json");
  if (!mobility_text) return mobility_text.status();
  auto config_text = data::read_file(directory + "/config.json");
  if (!config_text) return config_text.status();

  auto dataset = data::dataset_from_csv(*venues, *checkins, data::Taxonomy::foursquare());
  if (!dataset) return dataset.status();
  auto mobility_json = json::parse(*mobility_text);
  if (!mobility_json) return mobility_json.status();
  auto mobility = mobility_from_json(*mobility_json);
  if (!mobility) return mobility.status();
  auto config_json = json::parse(*config_text);
  if (!config_json) return config_json.status();
  auto config = config_from_json(*config_json);
  if (!config) return config.status();

  return Platform::restore(std::move(dataset).value(), std::move(mobility).value(),
                           *config);
}

}  // namespace crowdweb::core
