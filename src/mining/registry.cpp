#include "mining/registry.hpp"

#include <array>
#include <string>

#include "mining/bide.hpp"
#include "mining/gsp.hpp"
#include "mining/naive.hpp"
#include "mining/prefixspan.hpp"
#include "mining/spade.hpp"

namespace crowdweb::mining {

namespace {

/// The level-wise and vertical miners still consume the nested format;
/// copy the columns out for them. The hot-path miners (PrefixSpan, BIDE)
/// read the columns directly.
SequenceDb materialize(const SequenceColumns& db) {
  SequenceDb out(db.size());
  for (std::size_t s = 0; s < db.size(); ++s) {
    const auto sequence = db.sequence(s);
    out[s].assign(sequence.begin(), sequence.end());
  }
  return out;
}

class PrefixSpanMiner final : public IMiningAlgorithm {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "prefixspan"; }
  [[nodiscard]] bool closed_output() const noexcept override { return false; }
  [[nodiscard]] MiningResult mine(const SequenceColumns& db,
                                  const MiningOptions& options) const override {
    MiningResult result;
    result.patterns = prefixspan(db, options, &result.stats);
    return result;
  }
};

class GspMiner final : public IMiningAlgorithm {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "gsp"; }
  [[nodiscard]] bool closed_output() const noexcept override { return false; }
  [[nodiscard]] MiningResult mine(const SequenceColumns& db,
                                  const MiningOptions& options) const override {
    MiningResult result;
    result.patterns = gsp(materialize(db), options, &result.stats);
    return result;
  }
};

class SpadeMiner final : public IMiningAlgorithm {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "spade"; }
  [[nodiscard]] bool closed_output() const noexcept override { return false; }
  [[nodiscard]] MiningResult mine(const SequenceColumns& db,
                                  const MiningOptions& options) const override {
    MiningResult result;
    result.patterns = spade(materialize(db), options, &result.stats);
    return result;
  }
};

class NaiveMiner final : public IMiningAlgorithm {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "naive"; }
  [[nodiscard]] bool closed_output() const noexcept override { return false; }
  [[nodiscard]] MiningResult mine(const SequenceColumns& db,
                                  const MiningOptions& options) const override {
    MiningResult result;
    result.patterns = naive_miner(materialize(db), options, &result.stats);
    return result;
  }
};

class BideMiner final : public IMiningAlgorithm {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "bide"; }
  [[nodiscard]] bool closed_output() const noexcept override { return true; }
  [[nodiscard]] MiningResult mine(const SequenceColumns& db,
                                  const MiningOptions& options) const override {
    MiningResult result;
    result.patterns = bide(db, options, &result.stats);
    return result;
  }
};

const std::array<const IMiningAlgorithm*, 5>& all_miners() {
  static const PrefixSpanMiner prefixspan_miner;
  static const GspMiner gsp_miner;
  static const SpadeMiner spade_miner;
  static const NaiveMiner naive_miner_adapter;
  static const BideMiner bide_miner;
  static const std::array<const IMiningAlgorithm*, 5> miners = {
      &prefixspan_miner, &gsp_miner, &spade_miner, &naive_miner_adapter, &bide_miner};
  return miners;
}

}  // namespace

const IMiningAlgorithm* find_miner(std::string_view name) noexcept {
  for (const IMiningAlgorithm* miner : all_miners()) {
    if (miner->name() == name) return miner;
  }
  return nullptr;
}

Result<const IMiningAlgorithm*> resolve_miner(std::string_view name) {
  if (const IMiningAlgorithm* miner = find_miner(name); miner != nullptr) return miner;
  std::string known;
  for (const IMiningAlgorithm* miner : all_miners()) {
    if (!known.empty()) known += ", ";
    known += miner->name();
  }
  return invalid_argument("unknown mining algorithm '" + std::string(name) +
                          "' (registered: " + known + ")");
}

std::vector<std::string_view> miner_names() {
  std::vector<std::string_view> names;
  names.reserve(all_miners().size());
  for (const IMiningAlgorithm* miner : all_miners()) names.push_back(miner->name());
  return names;
}

MiningResult mine_with(const SequenceColumns& db, const MiningOptions& options) {
  const IMiningAlgorithm* miner = find_miner(options.algorithm);
  if (miner == nullptr) miner = find_miner("prefixspan");
  MiningResult result = miner->mine(db, options);
  if (miner->closed_output()) {
    if (options.expand_closed) {
      MiningStats expand_stats;
      result.patterns =
          expand_closed_patterns(result.patterns, db.size(), options, &expand_stats);
      result.stats.expanded = expand_stats.expanded;
      result.stats.truncated = result.stats.truncated || expand_stats.truncated;
    } else {
      result.closed = true;
    }
  }
  return result;
}

}  // namespace crowdweb::mining
