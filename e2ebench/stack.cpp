#include "stack.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "core/api.hpp"
#include "http/client.hpp"
#include "shard/api.hpp"
#include "util/format.hpp"

namespace e2e {

using namespace crowdweb;

Result<std::unique_ptr<Stack>> Stack::start(const Inputs& inputs, const StackOptions& options,
                                            const PublishHooks& hooks) {
  std::unique_ptr<Stack> stack(new Stack());
  stack->options_ = options;
  stack->metrics_ = std::make_unique<telemetry::Registry>();
  telemetry::Registry* metrics = stack->metrics_.get();
  const auto begin = Clock::now();

  core::PlatformConfig config = inputs.config;
  config.metrics = metrics;
  config.mining_threads = options.mining_threads;
  auto platform = core::Platform::from_dataset(inputs.corpus, config);
  if (!platform.is_ok()) return platform.status();
  stack->platform_.emplace(std::move(platform).value());
  const core::Platform& built = *stack->platform_;

  http::ResponseCacheConfig cache_config;
  cache_config.max_bytes = kCacheBytes;
  cache_config.metrics = metrics;
  stack->cache_ = std::make_unique<http::ResponseCache>(cache_config);
  http::ResponseCache* cache = stack->cache_.get();
  const int http_workers =
      options.http_workers < 0
          ? std::max(1, static_cast<int>(std::thread::hardware_concurrency()))
          : options.http_workers;

  http::Router api_router;
  auto server_stats = std::make_shared<std::function<http::ServerStats()>>();
  if (!options.sharded) {
    const auto worker_begin = Clock::now();
    ingest::IngestWorkerConfig worker_config;
    worker_config.rebuild_interval = kRebuildInterval;
    worker_config.metrics = metrics;
    worker_config.store.dir = options.store_dir;
    worker_config.store.fsync = kFsync;
    stack->worker_ = core::make_ingest_worker(built, worker_config);
    ingest::IngestWorker* worker = stack->worker_.get();
    worker->hub().on_publish(
        [cache](const ingest::PlatformSnapshot& snapshot) { cache->set_epoch(snapshot.epoch); });
    if (hooks.before_stream) worker->hub().on_publish(hooks.before_stream);
    if (Status status = worker->start(); !status.is_ok()) return status;
    stack->worker_start_ms_ = ms_between(worker_begin, Clock::now());

    transport::PipelineConfig pipeline_config;
    pipeline_config.metrics = metrics;
    pipeline_config.note_invalid = [worker](std::uint64_t count) { worker->note_invalid(count); };
    stack->pipeline_ = std::make_unique<transport::IngestPipeline>(
        [worker](std::span<const ingest::IngestEvent> events) { return worker->submit(events); },
        std::move(pipeline_config));
    if (Status status = stack->pipeline_->start(); !status.is_ok()) return status;

    core::ApiOptions api;
    api.ingest = worker;
    api.server_stats = server_stats;
    api.metrics = metrics;
    api.cache = cache;
    api.http_workers = http_workers;
    api.pipeline = stack->pipeline_.get();
    api.stream = true;
    api_router = core::make_api_router(built, api);
  } else {
    const auto router_begin = Clock::now();
    shard::ShardRouterConfig router_config;
    router_config.shard_count = kShards;
    router_config.metrics = metrics;
    router_config.worker.rebuild_interval = kRebuildInterval;
    router_config.worker.store.dir = options.store_dir;
    router_config.worker.store.fsync = kFsync;
    auto router = shard::ShardRouter::create(built, router_config);
    if (!router.is_ok()) return router.status();
    stack->router_ = std::move(router).value();
    stack->router_->rekey_cache_on_publish(cache);
    if (Status status = stack->router_->start(); !status.is_ok()) return status;
    stack->worker_start_ms_ = ms_between(router_begin, Clock::now());

    shard::ShardApiOptions api;
    api.server_stats = server_stats;
    api.metrics = metrics;
    api.cache = cache;
    api.http_workers = http_workers;
    api_router = shard::make_shard_api_router(*stack->router_, api);
  }

  http::ServerConfig server_config;
  server_config.metrics = metrics;
  server_config.worker_threads = options.http_workers;
  server_config.cache = cache;
  stack->server_ = std::make_unique<http::Server>(std::move(api_router), server_config);
  if (Status status = stack->server_->start(); !status.is_ok()) return status;
  http::Server* server = stack->server_.get();
  *server_stats = [server] { return server->stats(); };

  if (!options.sharded) {
    stack->publisher_ = core::attach_stream_publisher(*server, built, *stack->worker_, cache);
    if (hooks.after_stream) stack->worker_->hub().on_publish(hooks.after_stream);
    transport::FrameServerConfig frame_config;
    frame_config.metrics = metrics;
    stack->frames_ = std::make_unique<transport::FrameServer>(*stack->pipeline_, frame_config);
    if (Status status = stack->frames_->start(); !status.is_ok()) return status;
  }

  const auto status = http::get("127.0.0.1", server->port(), "/api/status");
  if (!status.is_ok()) return status.status();
  if (status->status != 200)
    return internal_error(crowdweb::format("GET /api/status answered {}", status->status));
  stack->setup_s_ = std::chrono::duration<double>(Clock::now() - begin).count();
  return stack;
}

Stack::~Stack() { stop(); }

void Stack::stop() {
  if (frames_ != nullptr) frames_->stop();
  if (pipeline_ != nullptr) pipeline_->stop();
  if (worker_ != nullptr) worker_->stop();
  if (router_ != nullptr) router_->stop();
  publisher_.reset();
  if (server_ != nullptr) server_->stop();
  if (!options_.store_dir.empty()) {
    std::error_code ignored;
    std::filesystem::remove_all(options_.store_dir, ignored);
  }
}

std::uint16_t Stack::frame_port() const noexcept {
  return frames_ != nullptr ? frames_->port() : 0;
}

// ------------------------------------------------------------ KeepAlive

KeepAlive::KeepAlive(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&address), sizeof address) != 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

KeepAlive::~KeepAlive() {
  if (fd_ >= 0) ::close(fd_);
}

std::optional<KeepAlive::Reply> KeepAlive::get(const std::string& target) {
  return round_trip("GET " + target + " HTTP/1.1\r\nHost: bench\r\n\r\n");
}

std::optional<KeepAlive::Reply> KeepAlive::post(const std::string& target,
                                                const std::string& content_type,
                                                const std::string& body) {
  std::string request = "POST " + target + " HTTP/1.1\r\nHost: bench\r\nContent-Type: " +
                        content_type + "\r\nContent-Length: " + std::to_string(body.size()) +
                        "\r\n\r\n";
  request += body;
  return round_trip(request);
}

std::optional<KeepAlive::Reply> KeepAlive::round_trip(const std::string& request) {
  if (fd_ < 0) return std::nullopt;
  Reply reply;
  reply.sent = Clock::now();
  for (std::size_t written = 0; written < request.size();) {
    const ssize_t n = ::write(fd_, request.data() + written, request.size() - written);
    if (n <= 0) return std::nullopt;
    written += static_cast<std::size_t>(n);
  }
  std::size_t head_end = std::string::npos;
  std::size_t body_length = 0;
  while (true) {
    if (head_end == std::string::npos) {
      head_end = buffer_.find("\r\n\r\n");
      if (head_end != std::string::npos) {
        // Status line, then "Name: value" lines; names compared lowercased.
        const std::string head = buffer_.substr(0, head_end);
        const std::size_t space = head.find(' ');
        reply.status = space == std::string::npos ? 0 : std::atoi(head.c_str() + space + 1);
        std::size_t line = head.find("\r\n");
        while (line != std::string::npos && line < head.size()) {
          const std::size_t next = head.find("\r\n", line + 2);
          const std::string field =
              head.substr(line + 2, (next == std::string::npos ? head.size() : next) - line - 2);
          line = next;
          const std::size_t colon = field.find(':');
          if (colon == std::string::npos) continue;
          std::string name = field.substr(0, colon);
          for (char& c : name) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
          std::string value = field.substr(colon + 1);
          while (!value.empty() && value.front() == ' ') value.erase(0, 1);
          if (name == "content-length") body_length = std::strtoul(value.c_str(), nullptr, 10);
          else if (name == "x-cache") reply.cache_hit = value == "hit";
          else if (name == "etag") reply.etag = value;
          else if (name == "content-type") reply.content_type = value;
        }
      }
    }
    if (head_end != std::string::npos && buffer_.size() >= head_end + 4 + body_length) {
      reply.done = Clock::now();
      reply.body = buffer_.substr(head_end + 4, body_length);
      buffer_.erase(0, head_end + 4 + body_length);
      return reply;
    }
    char chunk[64 * 1024];
    const ssize_t n = ::read(fd_, chunk, sizeof chunk);
    if (n <= 0) return std::nullopt;
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace e2e
