// The traced run's per-layer replays. Each records spans around calls
// into one layer's public functions, outside the stack's own code.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "checks.hpp"
#include "common.hpp"
#include "core/platform.hpp"
#include "corpus.hpp"
#include "ingest/event.hpp"
#include "ingest/worker.hpp"
#include "phases.hpp"
#include "store/store.hpp"

namespace e2e {

/// Replays each epoch's delta through the layer functions the worker
/// calls, in the worker's order: DurableStore::append, DatasetBuilder
/// (base).build(), mine_users_mobility_parallel, MobilityTable::
/// with_updates, SpatialGrid::create when the bounds grow, and
/// CrowdModel::update (a full build on a grid change and every 64th
/// epoch). `epoch_ends` holds the cumulative event count each epoch
/// covered; venue ids are resolved against `final_dataset`, the corpus
/// the stack ended with. Stops after `budget_s` seconds.
void replay_layers(const crowdweb::core::Platform& platform,
                   std::span<const crowdweb::ingest::IngestEvent> events,
                   std::span<const std::size_t> epoch_ends,
                   const crowdweb::data::Dataset& final_dataset, const std::string& store_dir,
                   double budget_s, Tracer& tracer,
                   Errors& errors);

/// Times Router::dispatch with no cache for every cached route family
/// on the worker's current epoch.
void sweep_renders(const crowdweb::core::Platform& platform,
                   crowdweb::ingest::IngestWorker& worker, Tracer& tracer, Errors& errors);

/// A short sharded replay: batches alternate between ShardRouter::submit
/// and POST /api/ingest; after each, ShardRouter::merged() is timed on
/// every epoch-vector change and the spread of shard publishes recorded.
/// At the end the merged crowd bytes must equal a single process's that
/// took the same events.
void shard_side_replay(const Inputs& inputs, const Feed& feed, std::size_t batches,
                       const StackOptions& options, Tracer& tracer, Errors& errors);

}  // namespace e2e
