// Mining bench: closed-pattern miners vs PrefixSpan across the paper's
// support sweep.
//
// The claim behind the miner registry: on routine-heavy mobility
// corpora the closed pattern set is several times smaller than the full
// frequent set, so a native closed miner (BIDE) both shrinks the mined
// tables and finishes the full-corpus mine faster — and when the
// pipeline needs the full set back (byte-identical /api output), the
// closed set expands to it exactly without re-scanning the database.
//
// Corpus regime: dense telemetry traces — per user, a deterministic
// weekday routine (8-11 category labels) and a shorter weekend routine
// repeated over a 90-day quarter, with a fraction of irregular days.
// This is the regime closed mining exists for: near-identical repeated
// sequences make the frequent set explode combinatorially (every
// subsequence of the routine, all at the same support) while the
// closed set stays routine-sized. The paper-calibrated *voluntary
// check-in* corpus is the opposite regime — at ~1.4 recorded items per
// user-day the frequent sets are tiny and almost every frequent
// pattern is already closed (measured ratio ~1.0), so closed mining
// neither helps nor hurts there; see docs/PERFORMANCE.md.
//
// For each corpus scale (1x/10x, plus 100x outside --smoke) this bench
// mines every user's sequence database with prefixspan and bide at
// min_support {0.25, 0.50, 0.75}, recording pattern-set size, wall
// time, and pattern-set bytes; it also times bide+expand and
// cross-checks that the expanded set equals PrefixSpan's output
// exactly. Emits BENCH_mining.json (override with --out).
//
// It then compares the two *serving* modes end-to-end — expanded tables
// vs the compact MobilityTable (closed set instead of the full set; both
// carry the placement index, see src/patterns/mobility.hpp) — on a
// dense check-in corpus and on the sparse paper-calibrated one,
// recording resident table bytes, mine time (total and per user) and
// crowd build time for both and asserting the crowd models are
// value-identical (the closed-mode invariant; this is the CI smoke
// gate).
//
// Recorded acceptance bars (asserted in full mode; smoke asserts only
// the deterministic set-size and equality properties, not timings):
// at min_support 0.25 on the 10x corpus the closed set is >= 5x smaller
// than the frequent set and the BIDE full-corpus mine is >= 2x faster
// than PrefixSpan; the compact table beats the expanded table's bytes
// on the dense corpus in every mode.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "crowd/model.hpp"
#include "data/dataset_io.hpp"
#include "geo/grid.hpp"
#include "json/json.hpp"
#include "mining/registry.hpp"
#include "mining/seqdb.hpp"
#include "patterns/mobility.hpp"
#include "synth/generator.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

using namespace crowdweb;
using Clock = std::chrono::steady_clock;

namespace {

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

struct Args {
  bool smoke = false;
  std::string out = "BENCH_mining.json";
};

bool check(bool ok, const char* what, int* failures) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
  if (!ok) ++*failures;
  return ok;
}

/// One user's dense telemetry history: a deterministic weekday routine
/// and a shorter weekend routine over `days` days, with `noise` of the
/// days replaced by short irregular outings. Routine lengths vary per
/// user (weekday 8-11 labels, weekend 3-5) so pattern sets are
/// heterogeneous like a real city's.
mining::UserSequences telemetry_user(Rng& rng, data::UserId user, int days,
                                     double noise) {
  const int weekday_len = 8 + static_cast<int>(user % 4);
  const int weekend_len = 3 + static_cast<int>(user % 3);
  std::vector<mining::Item> weekday, weekend;
  for (int i = 0; i < weekday_len; ++i)
    weekday.push_back(static_cast<mining::Item>(rng.uniform_int(0, 9)));
  for (int i = 0; i < weekend_len; ++i)
    weekend.push_back(static_cast<mining::Item>(rng.uniform_int(0, 9)));

  mining::UserSequences sequences;
  sequences.user = user;
  std::vector<mining::Item> irregular;
  std::vector<int> minutes;
  for (int d = 0; d < days; ++d) {
    const std::vector<mining::Item>* day = d % 7 < 5 ? &weekday : &weekend;
    if (rng.uniform() < noise) {
      irregular.clear();
      const int len = static_cast<int>(rng.uniform_int(2, 6));
      for (int i = 0; i < len; ++i)
        irregular.push_back(static_cast<mining::Item>(rng.uniform_int(0, 9)));
      day = &irregular;
    }
    minutes.assign(day->size(), 0);
    for (std::size_t i = 0; i < minutes.size(); ++i)
      minutes[i] = 480 + static_cast<int>(i) * 90;  // 8:00, then every 90 min
    sequences.append_day(*day, minutes);
  }
  return sequences;
}

/// Heap footprint of a mined pattern set (struct + item storage).
std::size_t pattern_set_bytes(const std::vector<mining::Pattern>& patterns) {
  std::size_t bytes = patterns.size() * sizeof(mining::Pattern);
  for (const mining::Pattern& p : patterns) bytes += p.items.size() * sizeof(mining::Item);
  return bytes;
}

/// One miner's full-corpus sweep at one support level.
struct SweepResult {
  std::size_t patterns = 0;
  std::size_t bytes = 0;
  double ms = 0.0;
};

SweepResult sweep(const std::vector<mining::UserSequences>& users, const char* miner_name,
                  double min_support, bool expand) {
  const mining::IMiningAlgorithm* miner = mining::find_miner(miner_name);
  mining::MiningOptions options;
  options.min_support = min_support;
  options.algorithm = miner_name;
  options.expand_closed = expand;
  SweepResult result;
  const auto start = Clock::now();
  for (const mining::UserSequences& sequences : users) {
    const mining::MiningResult mined =
        expand ? mining::mine_with(sequences.columns(), options)
               : miner->mine(sequences.columns(), options);
    result.patterns += mined.patterns.size();
    result.bytes += pattern_set_bytes(mined.patterns);
  }
  result.ms = ms_since(start);
  return result;
}

// ------------------------------ end-to-end serving modes (tentpole gate)

/// The dense routine regime as an actual check-in corpus, so the full
/// pipeline (sequence build -> mine -> crowd placement) runs in both
/// serving modes. Ten venues spread over the city; each user walks a
/// personal 8-11 stop weekday routine (weekend 3-5) for `days` days.
data::Dataset dense_checkin_corpus(std::size_t user_count, int days) {
  Rng rng(99);
  data::DatasetBuilder builder;
  std::vector<data::VenueSpec> venues;
  for (int v = 0; v < 10; ++v) {
    data::VenueSpec venue;
    venue.id = static_cast<data::VenueId>(v);
    venue.name = "venue-" + std::to_string(v);
    venue.category = static_cast<data::CategoryId>(v % 7);
    venue.position = {40.70 + 0.005 * v, -74.00 + 0.003 * v};
    venues.push_back(venue);
    if (!builder.add_venue(venue).is_ok()) std::abort();
  }
  for (std::size_t u = 0; u < user_count; ++u) {
    // Routines visit *distinct* venues so every weekday repeats the same
    // long sequence: the expanded frequent set holds all ~2^n of its
    // subsequences while the closed set keeps a handful.
    const std::size_t weekday_len = 8 + u % 3;
    const std::size_t weekend_len = 3 + u % 3;
    std::vector<int> deck{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
    for (std::size_t i = deck.size(); i > 1; --i)
      std::swap(deck[i - 1], deck[static_cast<std::size_t>(
                                 rng.uniform_int(0, static_cast<int>(i) - 1))]);
    std::vector<int> weekday(deck.begin(), deck.begin() + static_cast<long>(weekday_len));
    std::vector<int> weekend(deck.begin(), deck.begin() + static_cast<long>(weekend_len));
    std::vector<int> irregular;
    for (int d = 0; d < days; ++d) {
      const std::vector<int>* day = d % 7 < 5 ? &weekday : &weekend;
      if (rng.uniform() < 0.15) {
        irregular.clear();
        const int len = static_cast<int>(rng.uniform_int(2, 6));
        for (int i = 0; i < len; ++i)
          irregular.push_back(static_cast<int>(rng.uniform_int(0, 9)));
        day = &irregular;
      }
      for (std::size_t i = 0; i < day->size(); ++i) {
        const data::VenueSpec& venue = venues[static_cast<std::size_t>((*day)[i])];
        data::CheckIn checkin;
        checkin.user = static_cast<data::UserId>(u);
        checkin.venue = venue.id;
        checkin.category = venue.category;
        checkin.position = venue.position;
        checkin.timestamp =
            static_cast<std::int64_t>(d) * 86'400 + (480 + static_cast<int>(i) * 90) * 60;
        if (!builder.add_checkin(checkin).is_ok()) std::abort();
      }
    }
  }
  return builder.build();
}

/// One serving mode end-to-end: mine the tables, fold their resident
/// footprint, build the crowd model.
struct ModeResult {
  patterns::MobilityStats stats;
  double mine_ms = 0.0;
  double mine_ms_per_user = 0.0;
  double crowd_ms = 0.0;
  crowd::CrowdModel crowd;
};

ModeResult run_mode(const data::Dataset& dataset, const geo::SpatialGrid& grid,
                    bool expand_closed) {
  patterns::MobilityOptions options;
  // Venue-level labels keep the routine's stops distinct (the synthetic
  // venues carry no real taxonomy categories to abstract over).
  options.sequences.mode = mining::LabelMode::kVenue;
  options.mining.algorithm = "bide";
  options.mining.min_support = 0.25;
  options.mining.expand_closed = expand_closed;
  auto start = Clock::now();
  const std::vector<patterns::UserMobility> mobility = patterns::mine_all_mobility_parallel(
      dataset, data::Taxonomy::foursquare(), options, /*threads=*/1);
  const double mine_ms = ms_since(start);
  start = Clock::now();
  auto crowd = crowd::CrowdModel::build(dataset, mobility, grid);
  const double crowd_ms = ms_since(start);
  if (!crowd.is_ok()) std::abort();
  const double per_user =
      mine_ms / static_cast<double>(std::max<std::size_t>(1, mobility.size()));
  ModeResult result{{}, mine_ms, per_user, crowd_ms, std::move(crowd).value()};
  for (const patterns::UserMobility& entry : mobility) result.stats.add(entry);
  return result;
}

bool crowd_models_equal(const crowd::CrowdModel& a, const crowd::CrowdModel& b) {
  if (a.window_count() != b.window_count()) return false;
  if (a.total_placements() != b.total_placements()) return false;
  for (int w = 0; w < a.window_count(); ++w) {
    const auto pa = a.placements(w);
    const auto pb = b.placements(w);
    if (pa.size() != pb.size()) return false;
    for (std::size_t i = 0; i < pa.size(); ++i) {
      if (pa[i].user != pb[i].user || pa[i].label != pb[i].label ||
          pa[i].venue != pb[i].venue || pa[i].cell != pb[i].cell ||
          pa[i].position.lat != pb[i].position.lat ||
          pa[i].position.lon != pb[i].position.lon ||
          pa[i].pattern_support != pb[i].pattern_support)
        return false;
    }
  }
  return true;
}

/// Compares compact vs expanded serving on one corpus; returns the JSON
/// block and folds the gate results into `failures`.
json::Value serving_mode_block(const char* corpus_name, const data::Dataset& dataset,
                               bool expect_smaller, bool* crowd_equal_all,
                               double* dense_ratio) {
  auto grid = geo::SpatialGrid::create(dataset.bounds().inflated(0.002), 500.0);
  if (!grid.is_ok()) std::abort();
  const ModeResult expanded = run_mode(dataset, *grid, /*expand_closed=*/true);
  const ModeResult compact = run_mode(dataset, *grid, /*expand_closed=*/false);
  const bool equal = crowd_models_equal(compact.crowd, expanded.crowd);
  *crowd_equal_all = *crowd_equal_all && equal;
  const double ratio = compact.stats.bytes > 0
                           ? static_cast<double>(expanded.stats.bytes) /
                                 static_cast<double>(compact.stats.bytes)
                           : 0.0;
  if (expect_smaller) *dense_ratio = ratio;
  std::printf("--- serving modes, %s corpus: %zu users, %zu check-ins ---\n", corpus_name,
              dataset.user_count(), dataset.checkin_count());
  const auto row = [](const char* mode, const ModeResult& r) {
    std::printf("%10s %10zu pat %8zu cand %12zu bytes %8.1f mine ms %7.3f ms/user "
                "%8.1f crowd ms\n",
                mode, r.stats.patterns, r.stats.placement_candidates, r.stats.bytes,
                r.mine_ms, r.mine_ms_per_user, r.crowd_ms);
  };
  row("expanded", expanded);
  row("compact", compact);
  std::printf("  table %.2fx smaller compact, crowd models %s\n\n", ratio,
              equal ? "IDENTICAL" : "DIVERGED");
  const auto mode_json = [](const ModeResult& r) {
    return json::object(
        {{"patterns", static_cast<std::int64_t>(r.stats.patterns)},
         {"placement_candidates", static_cast<std::int64_t>(r.stats.placement_candidates)},
         {"table_bytes", static_cast<std::int64_t>(r.stats.bytes)},
         {"mine_ms", r.mine_ms},
         {"mine_ms_per_user", r.mine_ms_per_user},
         {"crowd_ms", r.crowd_ms},
         {"placements", static_cast<std::int64_t>(r.crowd.total_placements())}});
  };
  return json::object({{"corpus", corpus_name},
                       {"users", static_cast<std::int64_t>(dataset.user_count())},
                       {"expanded", mode_json(expanded)},
                       {"compact", mode_json(compact)},
                       {"ratio_table_bytes", ratio},
                       {"crowd_equal", equal}});
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      args.smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      args.out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out path]\n", argv[0]);
      return 2;
    }
  }
  set_log_level(LogLevel::kError);
  int failures = 0;

  const std::vector<double> supports{0.25, 0.50, 0.75};
  // 1x/10x/100x in user count; per-user history length is fixed (one
  // 90-day quarter of telemetry), so per-user mining cost is comparable
  // and the full-corpus mine scales with the corpus.
  std::vector<std::pair<const char*, std::size_t>> scales{{"1x", 100}, {"10x", 1'000}};
  if (!args.smoke) scales.push_back({"100x", 10'000});

  std::printf("=== Mining: closed (bide) vs full (prefixspan) pattern sets ===\n");
  std::printf("mode: %s, supports {0.25, 0.50, 0.75}\n\n", args.smoke ? "smoke" : "full");

  json::Value corpora = json::Value(json::Array{});
  double ratio_patterns_10x = 0.0;  // frequent / closed at 0.25
  double ratio_time_10x = 0.0;      // prefixspan / bide at 0.25
  bool expansion_exact = true;

  for (const auto& [scale_name, user_count] : scales) {
    Rng rng(1234);
    std::vector<mining::UserSequences> users;
    users.reserve(user_count);
    std::size_t day_sequences = 0;
    for (std::size_t u = 0; u < user_count; ++u) {
      users.push_back(telemetry_user(rng, static_cast<data::UserId>(u), /*days=*/90,
                                     /*noise=*/0.15));
      day_sequences += users.back().day_count();
    }
    std::printf("--- corpus %s: %zu users, %zu day-sequences ---\n", scale_name,
                users.size(), day_sequences);
    std::printf("%8s %12s %12s %12s %10s %10s\n", "support", "miner", "patterns", "bytes",
                "mine ms", "vs pfx");

    json::Value sweeps = json::Value(json::Array{});
    for (const double support : supports) {
      const SweepResult frequent = sweep(users, "prefixspan", support, false);
      const SweepResult closed = sweep(users, "bide", support, false);
      const SweepResult expanded = sweep(users, "bide", support, true);

      const auto row = [&](const char* miner, const SweepResult& r) {
        std::printf("%8.2f %12s %12zu %12zu %10.1f %9.2fx\n", support, miner, r.patterns,
                    r.bytes, r.ms, r.ms > 0 ? frequent.ms / r.ms : 0.0);
      };
      row("prefixspan", frequent);
      row("bide", closed);
      row("bide+expand", expanded);

      // The closed set must reproduce the frequent set exactly —
      // count equality here; the unit tests compare items + supports.
      if (expanded.patterns != frequent.patterns) expansion_exact = false;

      if (support == 0.25 && std::string_view(scale_name) == "10x") {
        ratio_patterns_10x = closed.patterns > 0
                                 ? static_cast<double>(frequent.patterns) /
                                       static_cast<double>(closed.patterns)
                                 : 0.0;
        ratio_time_10x = closed.ms > 0 ? frequent.ms / closed.ms : 0.0;
      }
      sweeps.push_back(json::object(
          {{"min_support", support},
           {"prefixspan",
            json::object({{"patterns", static_cast<std::int64_t>(frequent.patterns)},
                          {"bytes", static_cast<std::int64_t>(frequent.bytes)},
                          {"ms", frequent.ms}})},
           {"bide", json::object({{"patterns", static_cast<std::int64_t>(closed.patterns)},
                                  {"bytes", static_cast<std::int64_t>(closed.bytes)},
                                  {"ms", closed.ms}})},
           {"bide_expand",
            json::object({{"patterns", static_cast<std::int64_t>(expanded.patterns)},
                          {"bytes", static_cast<std::int64_t>(expanded.bytes)},
                          {"ms", expanded.ms}})}}));
    }
    std::printf("\n");
    corpora.push_back(json::object({{"scale", scale_name},
                                    {"users", static_cast<std::int64_t>(users.size())},
                                    {"day_sequences",
                                     static_cast<std::int64_t>(day_sequences)},
                                    {"sweeps", std::move(sweeps)}}));
  }

  // End-to-end serving modes: the compact MobilityTable (closed set) vs
  // the expanded table, both with the same placement index, on the
  // regime compaction is for (dense telemetry) and the regime it is not
  // (the paper-calibrated sparse check-in corpus, where almost every
  // frequent pattern is closed — expected near 1x, never below, see
  // docs/PERFORMANCE.md). The crowd-equality bit compares placement from
  // the walk-built index against the sweep-built one; it is the CI smoke
  // gate for the single placement path.
  bool crowd_equal_all = true;
  double dense_table_ratio = 0.0;
  json::Value serving_modes = json::Value(json::Array{});
  const data::Dataset dense =
      dense_checkin_corpus(args.smoke ? 60 : 400, /*days=*/90);
  serving_modes.push_back(serving_mode_block("dense", dense, /*expect_smaller=*/true,
                                             &crowd_equal_all, &dense_table_ratio));
  auto sparse = synth::small_corpus(42);
  if (!sparse.is_ok()) {
    std::fprintf(stderr, "sparse corpus failed: %s\n", sparse.status().to_string().c_str());
    return 1;
  }
  double sparse_ratio_unused = 0.0;
  serving_modes.push_back(serving_mode_block("sparse", sparse->dataset,
                                             /*expect_smaller=*/false, &crowd_equal_all,
                                             &sparse_ratio_unused));

  std::printf("at min_support 0.25, 10x corpus: pattern set %.1fx smaller, mine %.2fx "
              "faster (bide vs prefixspan)\n\n",
              ratio_patterns_10x, ratio_time_10x);
  check(expansion_exact, "bide+expand reproduces the prefixspan pattern count everywhere",
        &failures);
  check(crowd_equal_all,
        "compact-mode crowd placements identical to expanded mode on every corpus",
        &failures);
  check(dense_table_ratio > 1.2,
        "compact MobilityTable is smaller than the expanded table on the dense corpus",
        &failures);
  check(ratio_patterns_10x >= 5.0,
        "closed set >= 5x smaller than frequent set at 0.25 on 10x corpus", &failures);
  if (!args.smoke) {
    check(ratio_time_10x >= 2.0,
          "bide full-corpus mine >= 2x faster than prefixspan at 0.25 on 10x corpus",
          &failures);
  }

  json::Value output = json::object({{"bench", "mining"},
                                     {"mode", args.smoke ? "smoke" : "full"},
                                     {"corpora", std::move(corpora)},
                                     {"serving_modes", std::move(serving_modes)},
                                     {"ratio_patterns_10x_s025", ratio_patterns_10x},
                                     {"ratio_time_10x_s025", ratio_time_10x},
                                     {"ratio_table_bytes_dense", dense_table_ratio},
                                     {"expansion_exact", expansion_exact},
                                     {"crowd_equal", crowd_equal_all},
                                     {"passed", failures == 0}});
  const Status written = data::write_file(args.out, json::dump(output) + "\n");
  if (!written.is_ok()) {
    std::fprintf(stderr, "writing %s failed: %s\n", args.out.c_str(),
                 written.to_string().c_str());
    return 1;
  }
  std::printf("wrote %s\n", args.out.c_str());
  if (failures > 0) {
    std::fprintf(stderr, "%d assertion(s) failed\n", failures);
    return 1;
  }
  return 0;
}
