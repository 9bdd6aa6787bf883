#include "core/platform.hpp"

#include <algorithm>
#include <chrono>

#include "data/dataset_io.hpp"
#include "mining/registry.hpp"
#include "util/log.hpp"

namespace crowdweb::core {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// Records one batch-build stage into the shared stage family. Get-or-
/// create keeps call sites independent of construction order (synth runs
/// before run_pipeline); the bounds only apply on first creation.
void observe_stage(telemetry::Registry* metrics, const std::string& stage, double ms) {
  if (metrics == nullptr) return;
  metrics
      ->histogram_family(
          "crowdweb_platform_build_stage_duration_seconds",
          "Wall time of one batch platform build stage: synth (corpus generation), "
          "acquisition (window + active-user filtering), mining (per-user "
          "PrefixSpan), crowd (model aggregation).",
          {"stage"}, telemetry::default_duration_buckets())
      .with_labels({stage})
      .observe(ms / 1e3);
}

}  // namespace

const data::Taxonomy& Platform::taxonomy() const noexcept {
  return data::Taxonomy::foursquare();
}

Result<Platform> Platform::create(const PlatformConfig& config) {
  const auto synth_start = Clock::now();
  auto corpus = config.small_corpus ? synth::small_corpus(config.seed)
                                    : synth::paper_corpus(config.seed);
  if (!corpus) return corpus.status();
  observe_stage(config.metrics, "synth", ms_since(synth_start));
  Platform platform;
  platform.config_ = config;
  const Status status = platform.run_pipeline(std::move(corpus->dataset));
  if (!status.is_ok()) return status;
  return platform;
}

Result<Platform> Platform::from_dataset(data::Dataset dataset, const PlatformConfig& config) {
  Platform platform;
  platform.config_ = config;
  const Status status = platform.run_pipeline(std::move(dataset));
  if (!status.is_ok()) return status;
  return platform;
}

Result<Platform> Platform::from_csv_files(const std::string& venues_path,
                                          const std::string& checkins_path,
                                          const PlatformConfig& config) {
  auto venues = data::read_file(venues_path);
  if (!venues) return venues.status();
  auto checkins = data::read_file(checkins_path);
  if (!checkins) return checkins.status();
  auto dataset =
      data::dataset_from_csv(*venues, *checkins, data::Taxonomy::foursquare());
  if (!dataset) return dataset.status();
  return from_dataset(std::move(dataset).value(), config);
}

Result<Platform> Platform::restore(data::Dataset dataset,
                                   std::vector<patterns::UserMobility> mobility,
                                   const PlatformConfig& config) {
  Platform platform;
  platform.config_ = config;
  const Status status = platform.run_pipeline(std::move(dataset), &mobility);
  if (!status.is_ok()) return status;
  return platform;
}

Status Platform::run_pipeline(data::Dataset full,
                              std::vector<patterns::UserMobility>* precomputed) {
  if (full.empty()) return failed_precondition("dataset is empty");
  // Fail fast on a miner name nothing downstream could resolve (the
  // ingest worker and shard workers inherit this config verbatim).
  if (const auto miner = mining::resolve_miner(config_.mining.algorithm); !miner)
    return miner.status();
  full_ = std::move(full);

  // Phase 1: window restriction + active-user selection. Neither copies
  // the corpus: shards wholly inside the window are shared by pointer,
  // only users with records across a window edge get sliced columns.
  const auto phase1_start = Clock::now();
  data::Dataset windowed =
      full_.filter_time_range(config_.experiment_start, config_.experiment_end);
  data::ActiveUserCriteria criteria;
  criteria.from = config_.experiment_start;
  criteria.to = config_.experiment_end;
  criteria.min_days = config_.min_active_days;
  criteria.max_gap_seconds = config_.max_gap_seconds;
  experiment_ = windowed.filter_active_users(criteria);
  if (experiment_.empty())
    return failed_precondition(
        "no active users survive preprocessing; relax min_active_days or widen the window");
  timings_.acquisition_ms = ms_since(phase1_start);
  observe_stage(config_.metrics, "acquisition", timings_.acquisition_ms);

  // Phase 2: per-user modified PrefixSpan (or adopt a snapshot).
  const auto phase2_start = Clock::now();
  if (precomputed != nullptr) {
    const auto users = experiment_.users();
    if (precomputed->size() != users.size())
      return failed_precondition(
          "snapshot mobility does not match the preprocessed user set");
    for (std::size_t i = 0; i < users.size(); ++i) {
      if ((*precomputed)[i].user != users[i])
        return failed_precondition(
            "snapshot mobility does not match the preprocessed user set");
    }
    mobility_ = std::move(*precomputed);
  } else {
    mobility_ = patterns::mine_all_mobility_parallel(
        experiment_, taxonomy(), {config_.sequences, config_.mining}, config_.mining_threads);
  }
  timings_.mining_ms = ms_since(phase2_start);
  observe_stage(config_.metrics, "mining", timings_.mining_ms);
  mining::MiningStats mining_totals;
  for (const patterns::UserMobility& entry : mobility_) mining_totals.merge(entry.mining_stats);
  if (mining_totals.truncated) {
    log_warn(
        "miner '{}' hit the max_patterns cap ({}) for at least one user; "
        "mined tables are incomplete — raise max_patterns or min_support",
        config_.mining.algorithm, config_.mining.max_patterns);
  }

  // Phase 3: crowd synchronization and aggregation.
  const auto phase3_start = Clock::now();
  auto grid = geo::SpatialGrid::create(experiment_.bounds().inflated(0.002),
                                       config_.grid_cell_meters);
  if (!grid) return grid.status();
  grid_ = *grid;
  auto crowd = crowd::CrowdModel::build(experiment_, mobility_, *grid_, config_.crowd);
  if (!crowd) return crowd.status();
  crowd_ = std::move(crowd).value();
  timings_.crowd_ms = ms_since(phase3_start);
  observe_stage(config_.metrics, "crowd", timings_.crowd_ms);

  log_info(
      "platform ready: {} users ({} active), {} check-ins in window, {} placements; "
      "phases {:.0f}/{:.0f}/{:.0f} ms",
      full_.user_count(), experiment_.user_count(), experiment_.checkin_count(),
      crowd_->total_placements(), timings_.acquisition_ms, timings_.mining_ms,
      timings_.crowd_ms);
  return Status::ok();
}

const patterns::UserMobility* Platform::user_mobility(data::UserId user) const noexcept {
  const auto it = std::lower_bound(
      mobility_.begin(), mobility_.end(), user,
      [](const patterns::UserMobility& m, data::UserId id) { return m.user < id; });
  if (it == mobility_.end() || it->user != user) return nullptr;
  return &*it;
}

mining::UserSequences Platform::sequences_for(data::UserId user) const {
  return mining::build_user_sequences(experiment_, user, taxonomy(), config_.sequences);
}

patterns::PlaceGraph Platform::place_graph(data::UserId user) const {
  const mining::UserSequences sequences = sequences_for(user);
  patterns::PlaceGraphOptions options;
  const patterns::UserMobility* mobility = user_mobility(user);
  // Closed-mode entries expand lazily for this request: the graph's
  // pattern restriction keys on consecutive element pairs, which the
  // closed set does not preserve, so restricting to it directly would
  // change the rendered graph.
  std::vector<patterns::MobilityPattern> expanded;
  if (mobility != nullptr) {
    expanded = patterns::expand_user_patterns(*mobility, sequences, config_.mining);
    if (!expanded.empty()) options.restrict_to_patterns = &expanded;
  }
  return patterns::build_place_graph(sequences, taxonomy(), experiment_,
                                     config_.sequences.mode, options);
}

}  // namespace crowdweb::core
