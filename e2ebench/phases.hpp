// Measured phases: closed-loop producers and readers driving a started
// Stack through its wire edges only (FrameClient, POST /api/ingest,
// keep-alive GETs, SSE).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common.hpp"
#include "corpus.hpp"
#include "ingest/event.hpp"
#include "ingest/snapshot.hpp"
#include "stack.hpp"

namespace e2e {

using Batch = std::span<const crowdweb::ingest::IngestEvent>;

/// What publish hooks saw, per epoch (traced runs only).
class PublishLog {
 public:
  struct Entry {
    std::uint64_t epoch = 0;
    std::size_t live = 0;
    double rebuild_ms = 0.0;
    Clock::time_point before_stream{};
    Clock::time_point after_stream{};
  };
  /// Hooks for Stack::start that fill this log.
  [[nodiscard]] PublishHooks hooks();
  /// Forgets every entry (a fresh stack counts epochs from 1 again).
  void clear();
  [[nodiscard]] std::vector<Entry> entries() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Entry> entries_;
};

/// Validates every read and keeps the cache bookkeeping: one body per
/// (target, epoch) across connections and across hit and miss, and
/// misses that re-render a body identical to the previous epoch's.
class ReadBook {
 public:
  /// Returns false (and keeps the reason) for a malformed read.
  bool record(const std::string& target, const KeepAlive::Reply& reply, Tracer& tracer);

  [[nodiscard]] std::vector<std::string> errors() const;
  /// Forgets the bodies seen (a fresh stack counts epochs from 1 again).
  void forget_bodies();
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t unchanged_rerenders = 0;

 private:
  mutable std::mutex mutex_;
  struct Seen {
    std::string epoch;       ///< newest epoch read for the target
    std::uint64_t hash = 0;  ///< its body
    std::string miss_epoch;  ///< epoch of the target's last miss
    std::uint64_t miss_hash = 0;
  };
  std::map<std::string, Seen> seen_;
  std::vector<std::string> errors_;
};

struct PhaseOptions {
  /// Rounds before the measured ones, so caches, pools and the heap of
  /// the fresh stack settle first; they are checked but not measured.
  std::size_t warmup_rounds = 16;
  /// Measured rounds.
  std::size_t rounds = 128;
  /// GETs in each round's reader turn, all of one crowd window.
  std::size_t reads_per_round = 256;
  /// Crowd-window SSE subscribers.
  std::size_t crowd_subscribers = 1;
};

struct PhaseResult {
  struct Read {
    Clock::time_point done{};  ///< last body byte
    double ms = 0.0;           ///< from the send
  };
  std::vector<Read> reads;  ///< measured rounds only
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< output-check failures
  std::size_t batches_sent = 0;
  struct BatchTrace {
    Clock::time_point sent{};
    Clock::time_point acked{};    ///< frame ack
    Clock::time_point visible{};  ///< the producer's turn ends, the reader's begins
    Clock::time_point reads_done{};
    std::uint64_t epoch = 0;      ///< epoch that made it visible
    bool measured = false;
  };
  std::vector<BatchTrace> batch_trace;
};

/// Replays the feed's first batches over one FrameClient in rounds, on a
/// freshly started stack, so every call does the same work. In each round the
/// producer sends a batch and waits until the epoch SSE stream shows it
/// visible; then one keep-alive reader GETs one crowd window's JSON
/// `reads_per_round` times, closed-loop. The two take turns, so neither
/// loop competes with the other for the machine and each measures its
/// own path. SSE subscribers on crowd windows run alongside.
PhaseResult run_replay(Stack& stack, const Feed& feed, const PhaseOptions& options,
                       Tracer& tracer, RssSampler* rss, ReadBook& book);

}  // namespace e2e
