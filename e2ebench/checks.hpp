// Output checks that derive the expected answer independently instead
// of comparing against recorded output.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/platform.hpp"
#include "crowd/model.hpp"
#include "data/dataset.hpp"
#include "geo/grid.hpp"
#include "ingest/event.hpp"
#include "ingest/snapshot.hpp"
#include "patterns/mobility.hpp"

namespace e2e {

using Errors = std::vector<std::string>;

/// Recounts served pattern supports with a subsequence scan over the
/// user's day sequences (every user when the table holds at most
/// `max_users`, an even stride through it otherwise).
void check_supports(const crowdweb::data::Dataset& dataset,
                    const crowdweb::patterns::MobilityTable& mobility,
                    const crowdweb::core::Platform& platform, std::size_t max_users,
                    Errors& errors);

/// Crowd invariants: each user placed at most once per (window, label) —
/// the model's documented rule; a user with two labels in one window is
/// placed twice — per-window counts sum to the placements, every cell
/// inside the grid; and the
/// served /api/crowd/:window bodies (one per window) agree with the model.
void check_crowd(const crowdweb::crowd::CrowdModel& crowd, const crowdweb::geo::SpatialGrid& grid,
                 const std::vector<std::string>& served, Errors& errors);

/// /api/crowd/:window bodies, one per window, of a from-scratch batch
/// build over `dataset`: every user re-mined, grid and crowd model built
/// anew (the grid pinned to `fixed_bounds` when given, as shards pin it).
[[nodiscard]] std::vector<std::string> scratch_crowd_bodies(
    const crowdweb::data::Dataset& dataset, const crowdweb::core::Platform& platform,
    std::optional<crowdweb::geo::BoundingBox> fixed_bounds);

/// The single-process corpus after `events`: a fresh worker over the
/// platform's experiment corpus ingests them in bulk (grid pinned like a
/// shard's when `fixed_bounds`). Null on failure.
[[nodiscard]] crowdweb::ingest::SnapshotPtr bulk_reference(
    const crowdweb::core::Platform& platform,
    std::span<const crowdweb::ingest::IngestEvent> events,
    std::optional<crowdweb::geo::BoundingBox> fixed_bounds, Errors& errors);

/// GET /api/crowd/:window for every window on a fresh keep-alive
/// connection to `port`; a query string keys a new cache entry, so each
/// body is rendered from the epoch current when the run has quiesced.
/// Empty (and an error kept) when a GET fails.
[[nodiscard]] std::vector<std::string> served_crowd(std::uint16_t port,
                                                    const crowdweb::core::Platform& platform,
                                                    Errors& errors);

/// Compares served bodies with expected ones, window by window.
void check_bytes(const std::vector<std::string>& served, const std::vector<std::string>& expected,
                 const std::string& what, Errors& errors);

}  // namespace e2e
