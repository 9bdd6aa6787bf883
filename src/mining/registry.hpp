// Miner registry: every sequential-pattern algorithm behind one
// name-keyed interface.
//
// The pipeline (patterns::mine_user_mobility, the ingest worker, the
// shard workers, the /api/mine handler) picks its miner by the string in
// MiningOptions::algorithm instead of hard-wiring a call, so swapping
// PrefixSpan for BIDE is a config change, not a rebuild. Closed-output
// miners (BIDE) declare themselves as such; `mine_with` expands
// their closed set back to the full frequent set when
// MiningOptions::expand_closed asks for byte-identical downstream
// output.
#pragma once

#include <string_view>
#include <vector>

#include "mining/pattern.hpp"
#include "util/status.hpp"

namespace crowdweb::mining {

/// Patterns plus the bookkeeping of the mine that produced them.
struct MiningResult {
  std::vector<Pattern> patterns;
  MiningStats stats;
  /// True when `patterns` is a *closed* set the pipeline chose not to
  /// expand (closed-output miner with MiningOptions::expand_closed off).
  /// Downstream layers that need any subsequence's support answer it by
  /// subsumption (see subsumed_support_count) instead of assuming the
  /// full frequent set is materialized.
  bool closed = false;
};

/// One registered mining algorithm. Implementations are stateless
/// singletons owned by the registry; mine() is const and safe to call
/// from many threads at once.
class IMiningAlgorithm {
 public:
  virtual ~IMiningAlgorithm() = default;

  /// Registry key, e.g. "prefixspan" or "bide".
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// True when mine() returns only closed patterns (a subset of the
  /// frequent set; expand with expand_closed_patterns to recover it).
  [[nodiscard]] virtual bool closed_output() const noexcept = 0;

  /// Mines `db` under `options`; `options.algorithm` is ignored here —
  /// the caller already chose by resolving this object.
  [[nodiscard]] virtual MiningResult mine(const SequenceColumns& db,
                                          const MiningOptions& options) const = 0;
};

/// The algorithm registered under `name`, or nullptr when unknown.
[[nodiscard]] const IMiningAlgorithm* find_miner(std::string_view name) noexcept;

/// Like find_miner, but an unknown name becomes an invalid_argument
/// Status listing the registered names.
[[nodiscard]] Result<const IMiningAlgorithm*> resolve_miner(std::string_view name);

/// Registered names in registration order ("prefixspan" first).
[[nodiscard]] std::vector<std::string_view> miner_names();

/// Resolves options.algorithm, mines, and — for closed-output miners
/// with options.expand_closed set — expands the closed set back to the
/// full frequent set so annotation and crowd placement match a full
/// miner byte for byte. Stats keep the miner's own `emitted` count and
/// record the reconstruction separately in `expanded`. With
/// expand_closed off a closed miner's result carries `closed = true`
/// and the patterns stay compact. An unknown algorithm name falls back
/// to "prefixspan"; validate the name up front (see resolve_miner)
/// where an error can still be reported.
[[nodiscard]] MiningResult mine_with(const SequenceColumns& db, const MiningOptions& options);

}  // namespace crowdweb::mining
