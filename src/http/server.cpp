#include "http/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <unordered_map>

#include "util/format.hpp"
#include "util/log.hpp"

namespace crowdweb::http {

namespace {

/// Per-connection cap on parsed-but-unanswered requests. Past it the
/// loop stops reading the socket (TCP backpressure) until responses
/// flush, so a hostile pipeliner can't grow the work queue unboundedly.
constexpr std::uint64_t kMaxInflightPerConnection = 64;

/// Owning file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) noexcept : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  [[nodiscard]] int get() const noexcept { return fd_; }
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  void reset() noexcept {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
};

/// A finished response on its way back to the loop thread: serialized
/// bytes plus what the loop needs for metrics and ordering.
struct Completion {
  std::uint64_t conn = 0;  ///< connection id (not fd — fds get reused)
  std::uint64_t seq = 0;   ///< request order within the connection
  std::string bytes;       ///< serialized response
  bool close_after = false;
  std::string_view method;  ///< bounded label (method_label), empty = skip route metrics
  std::string pattern;      ///< matched route pattern for metric labels
  int status = 0;
  double seconds = 0.0;     ///< handler wall time
  bool count_route = false;  ///< false for parse errors (no route to label)
  /// Non-empty: this response opened a stream — after its bytes flush,
  /// the connection subscribes to the channel instead of closing.
  std::string stream_channel;
};

struct Connection {
  Fd fd;
  std::uint64_t id = 0;
  std::string inbox;   ///< bytes read, not yet parsed
  std::string outbox;  ///< bytes to write
  bool close_after_write = false;
  bool stop_parsing = false;  ///< saw Connection: close or a parse error
  std::uint64_t next_seq = 0;    ///< assigned to parsed requests
  std::uint64_t next_flush = 0;  ///< next seq to append to the outbox
  std::map<std::uint64_t, Completion> ready;  ///< completed out of order
  /// Channel this connection streams (empty = a plain request cycle).
  /// Once set, no further requests are parsed from the socket.
  std::string stream_channel;
  /// Last socket traffic (bytes read, or response bytes written) — the
  /// idle sweep's clock.
  std::chrono::steady_clock::time_point last_activity;

  /// Requests parsed but not yet flushed to the outbox.
  [[nodiscard]] std::uint64_t inflight() const noexcept { return next_seq - next_flush; }
};

/// A parsed request waiting for a pool worker.
struct Work {
  std::uint64_t conn = 0;
  std::uint64_t seq = 0;
  Request request;
  bool keep_alive = true;
};

/// Collapses arbitrary client-supplied methods onto a bounded label set.
std::string_view method_label(std::string_view method) {
  for (const std::string_view known :
       {"GET", "HEAD", "POST", "PUT", "DELETE", "OPTIONS", "PATCH"}) {
    if (method == known) return known;
  }
  return "OTHER";
}

}  // namespace

struct Server::Impl {
  Router router;
  ServerConfig config;
  Fd listener;
  Fd wakeup;  // eventfd: stop() and workers interrupt epoll_wait with it
  Fd epoll;
  std::uint16_t bound_port = 0;
  std::thread loop_thread;
  std::atomic<bool> running{false};
  std::atomic<bool> stop_requested{false};

  // Worker pool. The loop thread enqueues Work; workers execute and
  // push Completions, then poke the eventfd so the loop flushes them.
  int resolved_workers = 0;
  std::vector<std::thread> workers;
  std::mutex work_mutex;
  std::condition_variable work_cv;
  std::deque<Work> work_queue;  // guarded by work_mutex
  bool workers_stop = false;    // guarded by work_mutex
  std::mutex done_mutex;
  std::vector<Completion> done_queue;  // guarded by done_mutex

  // Telemetry: the crowdweb_http_* families are the server's only
  // accounting — ServerStats reads them back. `own_metrics` backs
  // servers constructed without an external registry.
  std::unique_ptr<telemetry::Registry> own_metrics;
  telemetry::Registry* metrics = nullptr;
  telemetry::CounterFamily* requests_by_route = nullptr;
  telemetry::HistogramFamily* latency_by_route = nullptr;
  telemetry::Counter* responses_2xx = nullptr;
  telemetry::Counter* responses_3xx = nullptr;
  telemetry::Counter* responses_4xx = nullptr;
  telemetry::Counter* responses_5xx = nullptr;
  telemetry::Counter* responses_other = nullptr;
  telemetry::Counter* parse_errors = nullptr;
  telemetry::Counter* connections_total = nullptr;
  telemetry::Counter* bytes_total = nullptr;
  telemetry::Gauge* connections_active = nullptr;
  telemetry::Gauge* queue_depth = nullptr;
  telemetry::Gauge* workers_gauge = nullptr;
  telemetry::Counter* idle_closed_total = nullptr;
  telemetry::GaugeFamily* sse_subscribers_family = nullptr;
  telemetry::CounterFamily* sse_events_family = nullptr;
  telemetry::Counter* sse_evictions_total = nullptr;

  struct RouteMetrics {
    telemetry::Counter* requests;
    telemetry::Histogram* latency;
  };
  /// (method, route pattern) -> cached cells. Only the loop thread
  /// records route metrics (workers ship labels back in Completions),
  /// so no lock; bounded because patterns come from the router and
  /// methods from method_label().
  std::map<std::string, RouteMetrics, std::less<>> route_cache;

  /// Loop-thread memo: request path -> (cacheable, route pattern). The
  /// route table is immutable while the server runs, so the answer per
  /// path is stable; memoizing turns the fast path's per-request route
  /// scan (segment split + matching, several allocations) into one hash
  /// lookup. Only the loop thread touches it. Capped so unbounded
  /// distinct paths from live traffic cannot grow it without limit.
  std::unordered_map<std::string, std::pair<bool, std::string>> cacheable_memo;
  static constexpr std::size_t kCacheableMemoCap = 8192;

  void init_metrics() {
    if (config.metrics != nullptr) {
      metrics = config.metrics;
    } else {
      own_metrics = std::make_unique<telemetry::Registry>();
      metrics = own_metrics.get();
    }
    requests_by_route = &metrics->counter_family(
        "crowdweb_http_requests_total",
        "Requests dispatched to the router, by method and route pattern.",
        {"method", "route"});
    latency_by_route = &metrics->histogram_family(
        "crowdweb_http_request_duration_seconds",
        "Handler wall time per dispatched request, by route pattern.", {"route"},
        config.latency_buckets.empty() ? telemetry::default_latency_buckets()
                                       : config.latency_buckets);
    telemetry::CounterFamily& classes = metrics->counter_family(
        "crowdweb_http_responses_total", "Responses written, by status class.",
        {"class"});
    responses_2xx = &classes.with_labels({"2xx"});
    responses_3xx = &classes.with_labels({"3xx"});
    responses_4xx = &classes.with_labels({"4xx"});
    responses_5xx = &classes.with_labels({"5xx"});
    responses_other = &classes.with_labels({"other"});
    parse_errors = &metrics->counter("crowdweb_http_parse_errors_total",
                                     "Malformed requests answered with 400.");
    connections_total =
        &metrics->counter("crowdweb_http_connections_total", "Connections accepted.");
    bytes_total = &metrics->counter("crowdweb_http_response_bytes_total",
                                    "Response bytes flushed to sockets.");
    connections_active =
        &metrics->gauge("crowdweb_http_connections_active", "Currently open connections.");
    queue_depth = &metrics->gauge("crowdweb_http_worker_queue_depth",
                                  "Parsed requests waiting for a pool worker.");
    workers_gauge = &metrics->gauge(
        "crowdweb_http_worker_threads",
        "Handler threads executing requests off the event loop (0 = inline).");
    idle_closed_total =
        &metrics->counter("crowdweb_http_idle_closed_total",
                          "Connections closed by the idle-timeout sweep.");
    sse_subscribers_family = &metrics->gauge_family(
        "crowdweb_transport_sse_subscribers",
        "Connections subscribed to a server-sent-event channel.", {"channel"});
    sse_events_family = &metrics->counter_family(
        "crowdweb_transport_sse_events_total",
        "Event payloads published to a server-sent-event channel.", {"channel"});
    sse_evictions_total = &metrics->counter(
        "crowdweb_transport_sse_evictions_total",
        "Streaming subscribers evicted for exceeding the send-buffer cap.");
  }

  RouteMetrics& route_metrics(std::string_view method, const std::string& pattern) {
    std::string key;
    key.reserve(method.size() + pattern.size() + 1);
    key.append(method);
    key += ' ';
    key += pattern;
    const auto it = route_cache.find(key);
    if (it != route_cache.end()) return it->second;
    const RouteMetrics cells{
        &requests_by_route->with_labels({std::string(method), pattern}),
        &latency_by_route->with_labels({pattern})};
    return route_cache.emplace(std::move(key), cells).first->second;
  }

  void count_response_status(int status) {
    if (status >= 200 && status < 300) {
      responses_2xx->increment();
    } else if (status >= 300 && status < 400) {
      responses_3xx->increment();
    } else if (status >= 400 && status < 500) {
      responses_4xx->increment();
    } else if (status >= 500 && status < 600) {
      responses_5xx->increment();
    } else {
      responses_other->increment();
    }
  }

  std::map<int, Connection> connections;                  // by fd; loop thread only
  std::unordered_map<std::uint64_t, int> conn_by_id;      // loop thread only
  std::uint64_t next_conn_id = 1;

  // Streaming state. Subscriptions live on the loop thread
  // (stream_subs); publishers on any thread enqueue payloads under
  // stream_mutex and poke the eventfd. stream_counts mirrors the
  // per-channel subscriber counts for cross-thread reads.
  std::map<std::string, std::vector<std::uint64_t>> stream_subs;  // loop thread only
  mutable std::mutex stream_mutex;
  std::map<std::string, std::size_t> stream_counts;           // guarded by stream_mutex
  std::vector<std::pair<std::string, std::string>> stream_queue;  // guarded by stream_mutex
  std::chrono::steady_clock::time_point next_ping = std::chrono::steady_clock::now();

  void publish_counts(const std::string& channel) {
    const auto it = stream_subs.find(channel);
    const std::size_t count = it == stream_subs.end() ? 0 : it->second.size();
    {
      std::lock_guard<std::mutex> lock(stream_mutex);
      if (count == 0)
        stream_counts.erase(channel);
      else
        stream_counts[channel] = count;
    }
    sse_subscribers_family->with_labels({channel})
        .set(static_cast<double>(count));
  }

  void subscribe(Connection& connection, const std::string& channel) {
    connection.stream_channel = channel;
    connection.stop_parsing = true;  // the socket now only carries the stream
    stream_subs[channel].push_back(connection.id);
    publish_counts(channel);
  }

  void unsubscribe(const Connection& connection) {
    if (connection.stream_channel.empty()) return;
    const auto it = stream_subs.find(connection.stream_channel);
    if (it != stream_subs.end()) {
      std::erase(it->second, connection.id);
      if (it->second.empty()) {
        const std::string channel = it->first;
        stream_subs.erase(it);
        publish_counts(channel);
        return;
      }
    }
    publish_counts(connection.stream_channel);
  }

  Status bind_and_listen() {
    listener = Fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
    if (!listener.valid()) return io_error("socket() failed");
    const int one = 1;
    ::setsockopt(listener.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(config.port);
    if (::inet_pton(AF_INET, config.bind_address.c_str(), &address.sin_addr) != 1)
      return invalid_argument(crowdweb::format("bad bind address '{}'", config.bind_address));
    if (::bind(listener.get(), reinterpret_cast<sockaddr*>(&address), sizeof address) != 0)
      return io_error(crowdweb::format("bind({}:{}) failed: {}", config.bind_address,
                                       config.port, std::strerror(errno)));
    if (::listen(listener.get(), config.listen_backlog) != 0)
      return io_error(crowdweb::format("listen() failed: {}", std::strerror(errno)));

    sockaddr_in bound{};
    socklen_t length = sizeof bound;
    if (::getsockname(listener.get(), reinterpret_cast<sockaddr*>(&bound), &length) == 0)
      bound_port = ntohs(bound.sin_port);
    return Status::ok();
  }

  Status setup_epoll() {
    epoll = Fd(::epoll_create1(EPOLL_CLOEXEC));
    if (!epoll.valid()) return io_error("epoll_create1() failed");
    wakeup = Fd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
    if (!wakeup.valid()) return io_error("eventfd() failed");
    if (!watch(listener.get(), EPOLLIN) || !watch(wakeup.get(), EPOLLIN))
      return io_error("epoll_ctl(ADD) failed");
    return Status::ok();
  }

  bool watch(int fd, std::uint32_t events) {
    epoll_event event{};
    event.events = events;
    event.data.fd = fd;
    return ::epoll_ctl(epoll.get(), EPOLL_CTL_ADD, fd, &event) == 0;
  }

  bool rearm(int fd, std::uint32_t events) {
    epoll_event event{};
    event.events = events;
    event.data.fd = fd;
    return ::epoll_ctl(epoll.get(), EPOLL_CTL_MOD, fd, &event) == 0;
  }

  void close_connection(int fd) {
    ::epoll_ctl(epoll.get(), EPOLL_CTL_DEL, fd, nullptr);
    if (const auto it = connections.find(fd); it != connections.end()) {
      unsubscribe(it->second);
      conn_by_id.erase(it->second.id);
      connections.erase(it);  // Fd destructor closes
    }
    connections_active->set(static_cast<double>(connections.size()));
  }

  void accept_new() {
    while (true) {
      const int fd = ::accept4(listener.get(), nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) return;  // EAGAIN or transient error: try again on next event
      if (connections.size() >= static_cast<std::size_t>(config.max_connections)) {
        ::close(fd);
        continue;
      }
      // Small JSON/SVG responses must not wait for delayed ACKs.
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      connections_total->increment();
      Connection connection;
      connection.fd = Fd(fd);
      connection.id = next_conn_id++;
      connection.last_activity = std::chrono::steady_clock::now();
      if (!watch(fd, EPOLLIN)) {
        continue;  // connection's Fd closes on scope exit
      }
      conn_by_id.emplace(connection.id, fd);
      connections.emplace(fd, std::move(connection));
      connections_active->set(static_cast<double>(connections.size()));
    }
  }

  /// Runs the request: cache lookup for cacheable GETs, handler
  /// dispatch otherwise, If-None-Match revalidation, serialization.
  /// Thread-safe (router and cache are; no Impl state is touched) —
  /// runs on pool workers, or on the loop thread in inline mode.
  Completion execute(Request request, bool keep_alive) {
    Completion done;
    done.method = method_label(request.method);
    done.count_route = true;
    const auto start = std::chrono::steady_clock::now();

    Response response;
    std::string pattern;
    std::shared_ptr<const CachedResponse> entry;
    bool served_from_cache = false;
    ResponseCache* cache = config.cache;
    std::string target;
    std::shared_ptr<const CacheEpoch> rendered_at;
    const bool cache_eligible = cache != nullptr && router.cacheable(request, &pattern);
    if (cache_eligible) {
      target = request.path;
      if (!request.query.empty()) {
        target += '?';
        target += request.query;
      }
      // HEAD shares the GET entry; the body is stripped at serialize.
      entry = cache->lookup("GET", target);
      served_from_cache = entry != nullptr;
    }
    if (served_from_cache) {
      response.status = entry->status;
      response.headers = entry->headers;
      response.body = entry->body;
      response.headers["X-Cache"] = "hit";
    } else {
      // Taken before the handler runs: a publish during the render must
      // not key the body under an epoch it was not rendered from.
      if (cache_eligible) rendered_at = cache->epoch_state();
      response = router.dispatch(request, &pattern);
      if (cache_eligible && response.status == 200) {
        entry = cache->insert("GET", target, response, rendered_at);
        response.headers = entry->headers;  // picks up the computed ETag
        response.headers["X-Cache"] = "miss";
      }
    }
    finish_response(request, std::move(response), entry, served_from_cache, keep_alive,
                    std::move(pattern), start, &done);
    return done;
  }

  /// Shared tail of every response path: If-None-Match revalidation
  /// against the entry's strong ETag, HEAD body strip, serialization,
  /// metric fields. Thread-safe.
  void finish_response(const Request& request, Response&& response,
                       const std::shared_ptr<const CachedResponse>& entry,
                       bool served_from_cache, bool keep_alive, std::string pattern,
                       std::chrono::steady_clock::time_point start, Completion* done) {
    // Strong-ETag revalidation: a client re-sending the entry's ETag
    // gets 304 with no body, whether the entry was a hit or was just
    // (re)computed for the same epoch.
    if (entry != nullptr) {
      if (const auto inm = request.header("if-none-match");
          inm.has_value() && etag_matches(*inm, entry->etag)) {
        Response not_modified;
        not_modified.status = 304;
        not_modified.headers["ETag"] = entry->etag;
        not_modified.headers["X-Cache"] = served_from_cache ? "hit" : "miss";
        response = std::move(not_modified);
        config.cache->note_not_modified();
      }
    }
    done->seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    done->pattern = std::move(pattern);
    done->status = response.status;
    if (request.method == "HEAD") {
      // HEAD must not subscribe: it gets the stream's headers + no body
      // and a normal framed response.
      response.body.clear();
      response.stream_channel.clear();
    }
    const bool streaming = !response.stream_channel.empty();
    done->stream_channel = response.stream_channel;
    done->bytes = serialize(response, keep_alive);
    done->close_after = !keep_alive && !streaming;
  }

  /// Loop-thread fast path: in pooled mode, a cache hit is answered
  /// right here — no work-queue enqueue, no condition-variable wakeup,
  /// no eventfd round trip, no cross-thread handoff. The common case
  /// (keep-alive GET, no validator) writes the entry's pre-serialized
  /// wire image with a single copy. Returns false on a miss or a
  /// non-cacheable request (the probe records no miss; the worker's own
  /// lookup counts it once).
  bool try_serve_from_cache(const Request& request, bool keep_alive, Completion* done) {
    ResponseCache* cache = config.cache;
    if (cache == nullptr) return false;
    if (request.method != "GET" && request.method != "HEAD") return false;
    auto memo = cacheable_memo.find(request.path);
    if (memo == cacheable_memo.end()) {
      std::string scanned;
      const bool is_cacheable = router.cacheable(request, &scanned);
      if (cacheable_memo.size() >= kCacheableMemoCap) cacheable_memo.clear();
      memo = cacheable_memo
                 .emplace(request.path, std::make_pair(is_cacheable, std::move(scanned)))
                 .first;
    }
    if (!memo->second.first) return false;
    std::string pattern = memo->second.second;
    const auto start = std::chrono::steady_clock::now();
    std::string target = request.path;
    if (!request.query.empty()) {
      target += '?';
      target += request.query;
    }
    const std::shared_ptr<const CachedResponse> entry =
        cache->lookup("GET", target, /*record_miss=*/false);
    if (entry == nullptr) return false;
    done->method = method_label(request.method);
    done->count_route = true;
    if (keep_alive && request.method == "GET" && !request.header("if-none-match")) {
      done->seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
      done->pattern = std::move(pattern);
      done->status = entry->status;
      done->bytes = entry->wire;
      done->close_after = false;
      return true;
    }
    // HEAD, Connection: close, or a validator present: build the
    // response the general way (still without touching the pool).
    Response response;
    response.status = entry->status;
    response.headers = entry->headers;
    response.body = entry->body;
    response.headers["X-Cache"] = "hit";
    finish_response(request, std::move(response), entry, /*served_from_cache=*/true,
                    keep_alive, std::move(pattern), start, done);
    return true;
  }

  /// Loop thread: records a completion onto the metric families.
  void record(const Completion& done) {
    if (done.count_route) {
      // Label with the route's registered pattern, never the raw URL,
      // so series cardinality stays bounded under live traffic.
      static const std::string kUnmatched = "(unmatched)";
      const RouteMetrics& cells =
          route_metrics(done.method, done.pattern.empty() ? kUnmatched : done.pattern);
      cells.requests->increment();
      cells.latency->observe(done.seconds);
    }
    count_response_status(done.status);
  }

  /// Loop thread: files a completion and flushes every consecutively
  /// ready response (request order) into the outbox.
  void deliver(Connection& connection, Completion&& done) {
    connection.ready.emplace(done.seq, std::move(done));
    while (true) {
      const auto it = connection.ready.find(connection.next_flush);
      if (it == connection.ready.end()) break;
      connection.outbox += it->second.bytes;
      if (it->second.close_after) connection.close_after_write = true;
      if (!it->second.stream_channel.empty() && !connection.close_after_write &&
          connection.stream_channel.empty())
        subscribe(connection, it->second.stream_channel);
      connection.ready.erase(it);
      ++connection.next_flush;
    }
  }

  /// Parses every complete request the inbox holds (bounded by the
  /// per-connection inflight cap) and hands each to the pool — or, in
  /// inline mode, executes it on the spot.
  void parse_available(Connection& connection) {
    while (!connection.stop_parsing && !connection.inbox.empty() &&
           connection.inflight() < kMaxInflightPerConnection) {
      ParseResult parsed = parse_request(connection.inbox, config.limits);
      if (parsed.state == ParseState::kNeedMore) break;
      if (parsed.state == ParseState::kError) {
        parse_errors->increment();
        const Response response = Response::bad_request_400(parsed.error);
        Completion done;
        done.conn = connection.id;
        done.seq = connection.next_seq++;
        done.status = response.status;
        done.bytes = serialize(response, false);
        done.close_after = true;
        done.count_route = false;
        connection.stop_parsing = true;
        connection.inbox.clear();
        record(done);
        deliver(connection, std::move(done));
        break;
      }
      const bool keep_alive = parsed.request.keep_alive();
      Work work;
      work.conn = connection.id;
      work.seq = connection.next_seq++;
      work.request = std::move(parsed.request);
      work.keep_alive = keep_alive;
      connection.inbox.erase(0, parsed.consumed);
      if (!keep_alive) connection.stop_parsing = true;
      Completion fast;
      if (resolved_workers == 0) {
        Completion done = execute(std::move(work.request), keep_alive);
        done.conn = work.conn;
        done.seq = work.seq;
        record(done);
        deliver(connection, std::move(done));
      } else if (try_serve_from_cache(work.request, keep_alive, &fast)) {
        fast.conn = work.conn;
        fast.seq = work.seq;
        record(fast);
        deliver(connection, std::move(fast));
      } else {
        {
          std::lock_guard<std::mutex> lock(work_mutex);
          work_queue.push_back(std::move(work));
        }
        queue_depth->add(1.0);
        work_cv.notify_one();
      }
      if (!keep_alive) break;
    }
  }

  void read_socket(Connection& connection) {
    char buffer[16 * 1024];
    while (true) {
      const ssize_t n = ::read(connection.fd.get(), buffer, sizeof buffer);
      if (n > 0) {
        connection.inbox.append(buffer, static_cast<std::size_t>(n));
        connection.last_activity = std::chrono::steady_clock::now();
        continue;
      }
      if (n == 0) {  // peer closed its write side; answer what we have
        connection.close_after_write = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      connection.close_after_write = true;
      break;
    }
  }

  /// Returns false on a fatal write error.
  bool flush_outbox(Connection& connection) {
    while (!connection.outbox.empty()) {
      const ssize_t n =
          ::write(connection.fd.get(), connection.outbox.data(), connection.outbox.size());
      if (n > 0) {
        bytes_total->increment(static_cast<std::uint64_t>(n));
        connection.outbox.erase(0, static_cast<std::size_t>(n));
        connection.last_activity = std::chrono::steady_clock::now();
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;  // wait for EPOLLOUT
      return false;
    }
    return true;
  }

  /// Advances a connection after any state change (bytes read, work
  /// completed): parse, flush, then close or re-arm epoll interest.
  void service(int fd, Connection& connection) {
    const bool streaming = !connection.stream_channel.empty();
    // A subscribed socket only carries the stream; anything the client
    // sends after the subscribing request is discarded so the inbox
    // cannot grow unboundedly (EPOLLIN stays armed to detect FIN).
    if (streaming) connection.inbox.clear();
    parse_available(connection);
    if (!flush_outbox(connection)) {
      close_connection(fd);
      return;
    }
    const bool responses_pending = connection.inflight() > 0;
    if (connection.close_after_write && connection.outbox.empty() && !responses_pending) {
      close_connection(fd);
      return;
    }
    // Read only while we accept new requests; wait for writability only
    // while output is pending. Streaming connections stay readable for
    // FIN detection (recomputed: the subscription may have just
    // happened inside parse_available above).
    const bool want_read = !connection.stream_channel.empty() ||
                           (!connection.stop_parsing &&
                            connection.inflight() < kMaxInflightPerConnection);
    const std::uint32_t wanted =
        (want_read ? static_cast<std::uint32_t>(EPOLLIN) : 0u) |
        (connection.outbox.empty() ? 0u : static_cast<std::uint32_t>(EPOLLOUT));
    rearm(fd, wanted);
  }

  /// Loop thread: drains worker completions and pushes them into their
  /// connections (dropping those whose connection is gone).
  void drain_done() {
    std::vector<Completion> batch;
    {
      std::lock_guard<std::mutex> lock(done_mutex);
      batch.swap(done_queue);
    }
    for (Completion& done : batch) {
      record(done);
      const auto id_it = conn_by_id.find(done.conn);
      if (id_it == conn_by_id.end()) continue;  // connection closed meanwhile
      const int fd = id_it->second;
      const auto it = connections.find(fd);
      if (it == connections.end()) continue;
      deliver(it->second, std::move(done));
      service(fd, it->second);
    }
  }

  /// Loop thread: appends `bytes` to one subscriber of `channel`,
  /// collecting ids that must be evicted (behind the buffer cap).
  void fan_out(const std::string& channel, std::string_view bytes,
               std::vector<int>* evict) {
    const auto subs = stream_subs.find(channel);
    if (subs == stream_subs.end()) return;
    for (const std::uint64_t id : subs->second) {
      const auto id_it = conn_by_id.find(id);
      if (id_it == conn_by_id.end()) continue;
      const int fd = id_it->second;
      const auto it = connections.find(fd);
      if (it == connections.end()) continue;
      Connection& connection = it->second;
      if (connection.outbox.size() + bytes.size() > config.stream_buffer_bytes) {
        sse_evictions_total->increment();
        evict->push_back(fd);
        continue;
      }
      connection.outbox += bytes;
    }
  }

  /// Loop thread: delivers queued publishes to their subscribers.
  /// Eviction closes after the fan-out loop so subscriber lists are
  /// never mutated mid-iteration.
  void drain_streams() {
    std::vector<std::pair<std::string, std::string>> batch;
    {
      std::lock_guard<std::mutex> lock(stream_mutex);
      batch.swap(stream_queue);
    }
    if (batch.empty()) return;
    std::vector<int> evict;
    for (const auto& [channel, bytes] : batch) {
      sse_events_family->with_labels({channel}).increment();
      fan_out(channel, bytes, &evict);
    }
    for (const int fd : evict) close_connection(fd);
    // Flush what fits now; the rest rides on EPOLLOUT. (Collect fds
    // first: service() may close a connection and unsubscribe it.)
    service_stream_connections();
  }

  void service_stream_connections() {
    std::vector<int> touched;
    for (const auto& [channel, subs] : stream_subs)
      for (const std::uint64_t id : subs)
        if (const auto id_it = conn_by_id.find(id); id_it != conn_by_id.end())
          touched.push_back(id_it->second);
    for (const int fd : touched)
      if (const auto it = connections.find(fd); it != connections.end())
        service(fd, it->second);
  }

  /// Loop thread: ": ping" comments keep proxies from timing streams
  /// out and surface dead peers as write errors.
  void send_pings() {
    if (config.stream_ping_interval.count() <= 0 || stream_subs.empty()) return;
    const auto now = std::chrono::steady_clock::now();
    if (now < next_ping) return;
    next_ping = now + config.stream_ping_interval;
    std::vector<int> evict;
    for (const auto& [channel, subs] : stream_subs) fan_out(channel, ": ping\n\n", &evict);
    for (const int fd : evict) close_connection(fd);
    service_stream_connections();
  }

  /// Loop thread: closes connections with no socket traffic inside the
  /// idle window. Requests still executing (inflight) are exempt — a
  /// slow handler is not an idle peer.
  void sweep_idle() {
    if (config.idle_timeout.count() <= 0) return;
    const auto now = std::chrono::steady_clock::now();
    std::vector<int> stale;
    for (const auto& [fd, connection] : connections) {
      if (connection.inflight() > 0) continue;
      if (now - connection.last_activity > config.idle_timeout) stale.push_back(fd);
    }
    for (const int fd : stale) {
      idle_closed_total->increment();
      close_connection(fd);
    }
  }

  /// Loop thread, shutdown path: tells every streaming subscriber the
  /// stream is ending and gives the socket one best-effort flush, so
  /// well-behaved clients see a clean end instead of a reset.
  void drain_streams_for_shutdown() {
    for (auto& [fd, connection] : connections) {
      if (connection.stream_channel.empty()) continue;
      connection.outbox += "event: bye\ndata: {}\n\n";
      flush_outbox(connection);
    }
    stream_subs.clear();
    {
      std::lock_guard<std::mutex> lock(stream_mutex);
      stream_counts.clear();
      stream_queue.clear();
    }
  }

  void worker_run() {
    while (true) {
      Work work;
      {
        std::unique_lock<std::mutex> lock(work_mutex);
        work_cv.wait(lock, [&] { return workers_stop || !work_queue.empty(); });
        if (workers_stop) return;  // queued work is dropped on stop
        work = std::move(work_queue.front());
        work_queue.pop_front();
      }
      queue_depth->add(-1.0);
      Completion done = execute(std::move(work.request), work.keep_alive);
      done.conn = work.conn;
      done.seq = work.seq;
      {
        std::lock_guard<std::mutex> lock(done_mutex);
        done_queue.push_back(std::move(done));
      }
      const std::uint64_t one = 1;
      [[maybe_unused]] const ssize_t r = ::write(wakeup.get(), &one, sizeof one);
    }
  }

  void loop() {
    epoll_event events[64];
    // The sweep and ping cadence bound the wait; 500 ms remains the
    // ceiling so stop() stays responsive either way.
    int wait_ms = 500;
    if (config.idle_timeout.count() > 0)
      wait_ms = static_cast<int>(std::min<std::int64_t>(
          wait_ms, std::max<std::int64_t>(1, config.idle_timeout.count() / 2)));
    if (config.stream_ping_interval.count() > 0)
      wait_ms = static_cast<int>(std::min<std::int64_t>(
          wait_ms, std::max<std::int64_t>(1, config.stream_ping_interval.count() / 2)));
    while (!stop_requested.load(std::memory_order_acquire)) {
      const int n = ::epoll_wait(epoll.get(), events, std::size(events), wait_ms);
      if (n < 0) {
        if (errno == EINTR) continue;
        log_error("epoll_wait failed: {}", std::strerror(errno));
        break;
      }
      for (int i = 0; i < n; ++i) {
        const int fd = events[i].data.fd;
        if (fd == wakeup.get()) {
          std::uint64_t drained = 0;
          [[maybe_unused]] const ssize_t r =
              ::read(wakeup.get(), &drained, sizeof drained);
          drain_done();
          drain_streams();
          continue;
        }
        if (fd == listener.get()) {
          accept_new();
          continue;
        }
        const auto it = connections.find(fd);
        if (it == connections.end()) continue;
        Connection& connection = it->second;
        if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
          close_connection(fd);
          continue;
        }
        if ((events[i].events & EPOLLIN) != 0) read_socket(connection);
        service(fd, connection);
      }
      send_pings();
      sweep_idle();
    }
    drain_streams_for_shutdown();
    connections.clear();
    conn_by_id.clear();
    connections_active->set(0.0);
    running.store(false, std::memory_order_release);
  }
};

Server::Server(Router router, ServerConfig config) : impl_(std::make_unique<Impl>()) {
  impl_->router = std::move(router);
  impl_->config = std::move(config);
  impl_->init_metrics();
}

Server::~Server() { stop(); }

Status Server::start() {
  if (impl_->running.load(std::memory_order_acquire))
    return failed_precondition("server already running");
  Status status = impl_->bind_and_listen();
  if (!status.is_ok()) return status;
  status = impl_->setup_epoll();
  if (!status.is_ok()) return status;

  impl_->resolved_workers =
      impl_->config.worker_threads < 0
          ? static_cast<int>(std::thread::hardware_concurrency())
          : impl_->config.worker_threads;
  if (impl_->config.worker_threads < 0 && impl_->resolved_workers < 1)
    impl_->resolved_workers = 1;  // hardware_concurrency() may report 0
  impl_->workers_gauge->set(static_cast<double>(impl_->resolved_workers));
  {
    std::lock_guard<std::mutex> lock(impl_->work_mutex);
    impl_->workers_stop = false;
    impl_->work_queue.clear();
  }
  {
    std::lock_guard<std::mutex> lock(impl_->done_mutex);
    impl_->done_queue.clear();
  }
  impl_->queue_depth->set(0.0);
  impl_->workers.reserve(static_cast<std::size_t>(impl_->resolved_workers));
  for (int i = 0; i < impl_->resolved_workers; ++i)
    impl_->workers.emplace_back([this] { impl_->worker_run(); });

  impl_->stop_requested.store(false, std::memory_order_release);
  impl_->running.store(true, std::memory_order_release);
  impl_->loop_thread = std::thread([this] { impl_->loop(); });
  log_info("http server listening on {}:{} ({} worker thread(s))",
           impl_->config.bind_address, impl_->bound_port, impl_->resolved_workers);
  return Status::ok();
}

void Server::stop() {
  if (!impl_->loop_thread.joinable()) return;
  // Workers first: they may still hold the wakeup fd, which must stay
  // open until they are joined.
  {
    std::lock_guard<std::mutex> lock(impl_->work_mutex);
    impl_->workers_stop = true;
  }
  impl_->work_cv.notify_all();
  for (std::thread& worker : impl_->workers) worker.join();
  impl_->workers.clear();
  impl_->queue_depth->set(0.0);

  impl_->stop_requested.store(true, std::memory_order_release);
  const std::uint64_t one = 1;
  if (impl_->wakeup.valid()) {
    [[maybe_unused]] const ssize_t r = ::write(impl_->wakeup.get(), &one, sizeof one);
  }
  impl_->loop_thread.join();
  impl_->listener.reset();
  impl_->epoll.reset();
  impl_->wakeup.reset();
}

bool Server::running() const noexcept {
  return impl_->running.load(std::memory_order_acquire);
}

std::uint16_t Server::port() const noexcept { return impl_->bound_port; }

int Server::worker_threads() const noexcept { return impl_->resolved_workers; }

void Server::publish_stream(const std::string& channel, std::string_view bytes) {
  if (!impl_->running.load(std::memory_order_acquire)) return;
  {
    std::lock_guard<std::mutex> lock(impl_->stream_mutex);
    if (impl_->stream_counts.find(channel) == impl_->stream_counts.end()) return;
    impl_->stream_queue.emplace_back(channel, std::string(bytes));
  }
  const std::uint64_t one = 1;
  if (impl_->wakeup.valid()) {
    [[maybe_unused]] const ssize_t r = ::write(impl_->wakeup.get(), &one, sizeof one);
  }
}

std::size_t Server::stream_subscribers(const std::string& channel) const {
  std::lock_guard<std::mutex> lock(impl_->stream_mutex);
  const auto it = impl_->stream_counts.find(channel);
  return it == impl_->stream_counts.end() ? 0 : it->second;
}

std::vector<std::string> Server::stream_channels() const {
  std::vector<std::string> channels;
  std::lock_guard<std::mutex> lock(impl_->stream_mutex);
  channels.reserve(impl_->stream_counts.size());
  for (const auto& [channel, count] : impl_->stream_counts)
    if (count > 0) channels.push_back(channel);
  return channels;
}

std::uint64_t Server::idle_closed() const noexcept {
  return impl_->idle_closed_total->value();
}

std::uint64_t Server::stream_evictions() const noexcept {
  return impl_->sse_evictions_total->value();
}

ServerStats Server::stats() const noexcept {
  ServerStats stats;
  stats.requests = impl_->requests_by_route->total();
  stats.bad_requests = impl_->parse_errors->value();
  stats.connections = impl_->connections_total->value();
  stats.responses_2xx = impl_->responses_2xx->value();
  stats.responses_4xx = impl_->responses_4xx->value();
  stats.responses_5xx = impl_->responses_5xx->value();
  stats.bytes_written = impl_->bytes_total->value();
  return stats;
}

}  // namespace crowdweb::http
