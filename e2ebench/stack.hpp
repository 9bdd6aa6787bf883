// The live stack under test, started in-process, and the wire clients
// the benchmark drives it with.
//
// Single-process: core::Platform -> IngestWorker (WAL on) -> http::Server
// with the response cache and the SSE routes -> binary FrameServer.
// Sharded: core::Platform -> 4-shard ShardRouter (hash layout, WAL per
// shard) -> http::Server over shard::make_shard_api_router, as
// `city_dashboard --shards 4` deploys it.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "common.hpp"
#include "corpus.hpp"
#include "core/platform.hpp"
#include "http/cache.hpp"
#include "http/server.hpp"
#include "ingest/snapshot.hpp"
#include "ingest/worker.hpp"
#include "shard/router.hpp"
#include "store/store.hpp"
#include "telemetry/metrics.hpp"
#include "transport/frame_server.hpp"
#include "transport/pipeline.hpp"
#include "transport/sse.hpp"

namespace e2e {

/// Program settings every stack shares (README.md says why).
inline constexpr std::size_t kShards = 4;
inline constexpr std::chrono::milliseconds kRebuildInterval{1};
inline constexpr crowdweb::store::FsyncPolicy kFsync = crowdweb::store::FsyncPolicy::kNever;
inline constexpr std::size_t kCacheBytes = std::size_t{64} << 20;

struct StackOptions {
  bool sharded = false;
  /// Fresh, empty store directory (the sharded root holds shard-<k>).
  std::string store_dir;
  /// ServerConfig::worker_threads (< 0 = one per hardware thread,
  /// 0 = inline on the event loop).
  int http_workers = -1;
  /// PlatformConfig::mining_threads (0 = hardware concurrency).
  unsigned mining_threads = 0;
};

/// Publish hooks around the SSE publisher (single-process only): the
/// first runs before the stream publisher's hook, the second after it.
struct PublishHooks {
  std::function<void(const crowdweb::ingest::PlatformSnapshot&)> before_stream;
  std::function<void(const crowdweb::ingest::PlatformSnapshot&)> after_stream;
};

class Stack {
 public:
  /// Builds and starts the stack. Set-up time runs from the call (the
  /// corpus already in memory) to the first 200 from GET /api/status.
  static crowdweb::Result<std::unique_ptr<Stack>> start(const Inputs& inputs,
                                                        const StackOptions& options,
                                                        const PublishHooks& hooks = {});
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Stops the frame listener, the worker(s) (each publishes its final
  /// epoch), the SSE publisher and the server, in that order; removes
  /// the store directory.
  void stop();

  [[nodiscard]] double setup_s() const noexcept { return setup_s_; }
  /// make_ingest_worker + start (single), ShardRouter create + start.
  [[nodiscard]] double worker_start_ms() const noexcept { return worker_start_ms_; }
  [[nodiscard]] std::uint16_t http_port() const noexcept { return server_->port(); }
  [[nodiscard]] std::uint16_t frame_port() const noexcept;
  [[nodiscard]] const crowdweb::core::Platform& platform() const noexcept { return *platform_; }
  [[nodiscard]] crowdweb::ingest::IngestWorker* worker() noexcept { return worker_.get(); }
  [[nodiscard]] crowdweb::shard::ShardRouter* router() noexcept { return router_.get(); }
  [[nodiscard]] crowdweb::telemetry::Registry& metrics() noexcept { return *metrics_; }
  [[nodiscard]] const crowdweb::transport::FrameServer* frames() const noexcept {
    return frames_.get();
  }

 private:
  Stack() = default;

  StackOptions options_;
  double setup_s_ = 0.0;
  double worker_start_ms_ = 0.0;
  std::unique_ptr<crowdweb::telemetry::Registry> metrics_;
  std::optional<crowdweb::core::Platform> platform_;
  std::unique_ptr<crowdweb::http::ResponseCache> cache_;
  std::unique_ptr<crowdweb::ingest::IngestWorker> worker_;
  std::unique_ptr<crowdweb::shard::ShardRouter> router_;
  std::unique_ptr<crowdweb::transport::IngestPipeline> pipeline_;
  std::unique_ptr<crowdweb::http::Server> server_;
  std::unique_ptr<crowdweb::transport::EpochStreamPublisher> publisher_;
  std::unique_ptr<crowdweb::transport::FrameServer> frames_;
};

/// A blocking keep-alive HTTP/1.1 connection: one socket, many round
/// trips (http::fetch opens a connection per request, which would time
/// connect() rather than the serving path).
class KeepAlive {
 public:
  struct Reply {
    int status = 0;
    bool cache_hit = false;
    std::string etag;
    std::string content_type;
    std::string body;
    Clock::time_point sent{};
    Clock::time_point done{};  ///< last body byte read
  };

  explicit KeepAlive(std::uint16_t port);
  ~KeepAlive();
  KeepAlive(const KeepAlive&) = delete;
  KeepAlive& operator=(const KeepAlive&) = delete;

  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }
  /// One round trip; nullopt on a socket error.
  std::optional<Reply> get(const std::string& target);
  std::optional<Reply> post(const std::string& target, const std::string& content_type,
                            const std::string& body);

 private:
  std::optional<Reply> round_trip(const std::string& request);

  int fd_ = -1;
  std::string buffer_;
};

}  // namespace e2e
