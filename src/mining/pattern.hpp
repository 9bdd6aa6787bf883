// Sequential-pattern vocabulary shared by the miners.
//
// A *sequence* is one day of a user's visits, reduced to labels (items).
// A *pattern* is a subsequence that occurs in at least `min_support`
// fraction of the user's day-sequences (relative support, as the paper
// sweeps it from 0.25 to 0.75). All three miners (PrefixSpan, GSP, naive)
// emit the same `Pattern` type so tests can cross-check them.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace crowdweb::mining {

/// A mined label. Wide enough for venue ids in raw-venue mode.
using Item = std::uint32_t;

/// One sequence database: items[d] is day d's time-ordered label sequence.
using SequenceDb = std::vector<std::vector<Item>>;

/// Columnar (structure-of-arrays) view of a sequence database: every
/// sequence's items live in one contiguous array, and sequence `s`
/// spans items[offsets[s], offsets[s+1]). `offsets` holds size()+1
/// entries (or none for an empty database). The miners walk this view
/// directly; UserSequences::columns() produces one with no copying.
struct SequenceColumns {
  std::span<const Item> items;
  std::span<const std::uint32_t> offsets;

  [[nodiscard]] std::size_t size() const noexcept {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  /// Sequence `s` as a contiguous span (no bounds check).
  [[nodiscard]] std::span<const Item> sequence(std::size_t s) const noexcept {
    return items.subspan(offsets[s], offsets[s + 1] - offsets[s]);
  }
};

/// A frequent sequential pattern.
struct Pattern {
  std::vector<Item> items;
  std::size_t support_count = 0;  ///< sequences containing the pattern
  double support = 0.0;           ///< support_count / |db|

  friend bool operator==(const Pattern&, const Pattern&) = default;
};

/// True when `needle` is a (not necessarily contiguous) subsequence of
/// `haystack`.
[[nodiscard]] bool is_subsequence(std::span<const Item> needle,
                                  std::span<const Item> haystack) noexcept;

/// Number of sequences in `db` containing `pattern` (each counts once).
[[nodiscard]] std::size_t count_support(std::span<const Item> pattern, const SequenceDb& db);

/// Columnar overload of count_support.
[[nodiscard]] std::size_t count_support(std::span<const Item> pattern,
                                        const SequenceColumns& db);

/// Canonical order: by length, then lexicographically by items. Makes
/// miner outputs directly comparable.
void sort_patterns(std::vector<Pattern>& patterns);

/// Keeps only *closed* patterns: those with no super-pattern of equal
/// support in `patterns`. Candidates are bucketed by length (and, within
/// a length, only equal-support candidates are swept), so the filter is
/// usable as a cross-check oracle against native closed miners even on
/// large pattern sets.
[[nodiscard]] std::vector<Pattern> closed_patterns(std::vector<Pattern> patterns);

/// Keeps only *maximal* patterns: those with no frequent super-pattern in
/// `patterns` at all. Bucketed by length like closed_patterns.
[[nodiscard]] std::vector<Pattern> maximal_patterns(std::vector<Pattern> patterns);

/// What one mine() call did, beyond the patterns it returned. Every
/// miner fills one of these (through the optional out-params below or
/// through the registry interface), so callers can tell a complete
/// result from a capped one instead of silently losing patterns.
struct MiningStats {
  std::size_t emitted = 0;   ///< patterns the miner itself returned
  std::size_t explored = 0;  ///< search nodes / candidates support-counted
  /// Search work cut before counting: BackScan subtrees (BIDE),
  /// apriori-rejected candidates (GSP), and non-closed patterns a closed
  /// miner skipped.
  std::size_t pruned = 0;
  /// Frequent patterns reconstructed by expand_closed_patterns from a
  /// closed set — 0 for full miners and for closed mines that were never
  /// expanded. Kept separate from `emitted` so the miner's true output
  /// size is visible even when the pipeline expands behind it.
  std::size_t expanded = 0;
  /// True when the max_patterns cap suppressed at least one emission —
  /// the returned set is incomplete.
  bool truncated = false;

  /// Accumulates another mine's stats (counts add, truncated ORs).
  void merge(const MiningStats& other) noexcept {
    emitted += other.emitted;
    explored += other.explored;
    pruned += other.pruned;
    expanded += other.expanded;
    truncated = truncated || other.truncated;
  }
};

/// Shared mining parameters.
struct MiningOptions {
  /// Relative minimum support in (0, 1]: fraction of day-sequences that
  /// must contain a pattern.
  double min_support = 0.5;
  /// Longest pattern to emit.
  std::size_t max_pattern_length = 12;
  /// Hard cap on emitted patterns (safety valve for tiny supports).
  std::size_t max_patterns = 200'000;
  /// Which registered miner the pipeline runs (see mining/registry.hpp):
  /// "prefixspan" (default), "gsp", "spade", "naive", "bide".
  /// Carried inside MiningOptions so it flows through MobilityOptions ->
  /// PlatformConfig -> IngestPipelineConfig -> shard workers untouched.
  std::string algorithm = "prefixspan";
  /// Closed-set miners only: recover the full frequent set (items and
  /// supports) from the closed set after mining, so annotation, crowd
  /// placement, and /api bytes are identical to a full miner's. Off
  /// keeps the closed set itself — same information, much smaller
  /// tables, but time annotations (and thus crowd placements) may
  /// differ on patterns whose embeddings shift.
  bool expand_closed = true;
};

/// Recovers the full frequent set from a *closed* pattern set: every
/// subsequence of a closed pattern is frequent, and its support is the
/// maximum support over the closed patterns containing it. With an
/// uncapped closed set this reproduces the full miner's output exactly
/// (same items, same supports, canonical order). Stops admitting new
/// patterns at options.max_patterns (flagged via stats->truncated);
/// supports of admitted patterns stay exact.
[[nodiscard]] std::vector<Pattern> expand_closed_patterns(std::span<const Pattern> closed,
                                                          std::size_t db_size,
                                                          const MiningOptions& options,
                                                          MiningStats* stats = nullptr);

/// Exact support count of `items` answered from a *closed* pattern set
/// by subsumption: the maximum support over the closed patterns that
/// contain `items` as a subsequence. Closure guarantees every frequent
/// sequence has a closed super-pattern of equal support, so for any
/// frequent `items` this equals the full miner's count; infrequent
/// sequences return 0. Also correct over a full frequent set (a pattern
/// subsumes itself).
[[nodiscard]] std::size_t subsumed_support_count(std::span<const Item> items,
                                                 std::span<const Pattern> closed) noexcept;

}  // namespace crowdweb::mining
