#include "transport/sse.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <utility>

#include "json/json.hpp"
#include "util/strings.hpp"

namespace crowdweb::transport {

std::string crowd_channel(int window) {
  return "crowd/" + std::to_string(window);
}

std::optional<int> crowd_channel_window(std::string_view channel) {
  constexpr std::string_view prefix = "crowd/";
  if (channel.substr(0, prefix.size()) != prefix) return std::nullopt;
  const auto window = parse_int(channel.substr(prefix.size()));
  if (!window || *window < 0 || *window > 1'000'000) return std::nullopt;
  return static_cast<int>(*window);
}

std::string sse_event(std::string_view event, std::string_view data) {
  std::string out;
  out.reserve(event.size() + data.size() + 24);
  out += "event: ";
  out += event;
  out += '\n';
  // Each payload line gets its own "data:" field; the client joins them
  // back with '\n', so multi-line JSON survives the framing.
  std::size_t start = 0;
  while (true) {
    const std::size_t end = data.find('\n', start);
    out += "data: ";
    out += data.substr(start, end == std::string_view::npos ? std::string_view::npos
                                                            : end - start);
    out += '\n';
    if (end == std::string_view::npos) break;
    start = end + 1;
  }
  out += '\n';
  return out;
}

std::string sse_comment(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 4);
  out += ": ";
  out += text;
  out += "\n\n";
  return out;
}

http::Response sse_response(std::string channel, std::string initial) {
  http::Response response;
  response.status = 200;
  response.headers["Content-Type"] = "text/event-stream";
  response.headers["Cache-Control"] = "no-store";
  response.headers["X-Accel-Buffering"] = "no";  // defeat proxy buffering
  response.body = std::move(initial);
  response.stream_channel = std::move(channel);
  return response;
}

// ---------------------------------------------------------------------------
// EpochStreamPublisher

struct EpochStreamPublisher::State {
  http::Server& server;
  CrowdRenderFn render_crowd;
  EpochStreamOptions options;
  std::atomic<bool> active{true};
  std::atomic<std::uint64_t> epochs_published{0};

  State(http::Server& server_in, CrowdRenderFn render_in, EpochStreamOptions options_in)
      : server(server_in), render_crowd(std::move(render_in)),
        options(std::move(options_in)) {}

  void on_epoch(const ingest::PlatformSnapshot& snapshot) {
    if (!active.load(std::memory_order_acquire)) return;
    epochs_published.fetch_add(1, std::memory_order_relaxed);
    server.publish_stream(std::string(kEpochChannel),
                          sse_event("epoch", epoch_event_json(snapshot)));
    // Render each subscribed crowd window once. The cache (bumped to
    // this epoch by the hook registered before us) makes the bytes the
    // GET route will serve and the bytes we stream the same render.
    for (const std::string& channel : server.stream_channels()) {
      const auto window = crowd_channel_window(channel);
      if (!window) continue;
      const std::string body = render_crowd_body(snapshot, *window);
      if (body.empty()) continue;
      server.publish_stream(channel, sse_event("crowd", body));
    }
  }

  [[nodiscard]] std::string render_crowd_body(const ingest::PlatformSnapshot& snapshot,
                                              int window) {
    const std::string target = "/api/crowd/" + std::to_string(window);
    std::shared_ptr<const http::CacheEpoch> rendered_at;
    if (options.cache != nullptr) {
      rendered_at = options.cache->epoch_state();
      if (const auto hit = options.cache->lookup("GET", target, /*record_miss=*/false))
        return hit->body;
    }
    http::Response rendered = render_crowd(snapshot, window);
    if (rendered.status != 200) return {};
    if (options.cache != nullptr) {
      if (const auto entry = options.cache->insert("GET", target, rendered, rendered_at))
        return entry->body;
    }
    return std::move(rendered.body);
  }
};

EpochStreamPublisher::EpochStreamPublisher(http::Server& server,
                                           ingest::SnapshotHub& hub,
                                           CrowdRenderFn render_crowd,
                                           EpochStreamOptions options)
    : state_(std::make_shared<State>(server, std::move(render_crowd),
                                     std::move(options))) {
  // The hub never removes hooks, so the hook owns the state block and
  // checks the active flag; after ~EpochStreamPublisher it fires into
  // nothing instead of into a destroyed publisher.
  std::shared_ptr<State> state = state_;
  hub.on_publish([state](const ingest::PlatformSnapshot& snapshot) {
    state->on_epoch(snapshot);
  });
}

EpochStreamPublisher::~EpochStreamPublisher() {
  state_->active.store(false, std::memory_order_release);
}

std::uint64_t EpochStreamPublisher::epochs_published() const noexcept {
  return state_->epochs_published.load(std::memory_order_relaxed);
}

std::string EpochStreamPublisher::epoch_event_json(
    const ingest::PlatformSnapshot& snapshot) {
  return json::dump(json::object(
      {{"epoch", static_cast<std::int64_t>(snapshot.epoch)},
       {"live_checkins", static_cast<std::int64_t>(snapshot.live_checkins)},
       {"live_users", static_cast<std::int64_t>(snapshot.live_users)},
       {"rebuild_ms", snapshot.rebuild_ms},
       {"users", static_cast<std::int64_t>(snapshot.dataset.user_count())},
       {"windows", static_cast<std::int64_t>(snapshot.crowd.window_count())}}));
}

// ---------------------------------------------------------------------------
// SseClient

struct SseClient::Impl {
  int fd = -1;
  int http_status = 0;
  std::string buffer;       // bytes past the response head, unparsed
  bool saw_eof = false;

  ~Impl() { close(); }

  void close() {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }

  [[nodiscard]] Status fill(std::chrono::steady_clock::time_point deadline) {
    if (saw_eof) return io_error("stream closed by server");
    while (true) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) return unavailable("timed out waiting for SSE data");
      pollfd pfd{fd, POLLIN, 0};
      const auto left =
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
      const int ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
      if (ready < 0) {
        if (errno == EINTR) continue;
        return io_error("poll: " + std::string(std::strerror(errno)));
      }
      if (ready == 0) return unavailable("timed out waiting for SSE data");
      char chunk[4096];
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n < 0) {
        if (errno == EINTR || errno == EAGAIN) continue;
        return io_error("recv: " + std::string(std::strerror(errno)));
      }
      if (n == 0) {
        saw_eof = true;
        return io_error("stream closed by server");
      }
      buffer.append(chunk, static_cast<std::size_t>(n));
      return Status::ok();
    }
  }

  /// Pops one "...\n\n" frame off the buffer, or nullopt if incomplete.
  [[nodiscard]] std::optional<std::string> pop_frame() {
    // Frames end at a blank line; tolerate \r\n line endings.
    std::size_t scan = 0;
    while (scan < buffer.size()) {
      std::size_t eol = buffer.find('\n', scan);
      if (eol == std::string::npos) return std::nullopt;
      std::size_t line_len = eol - scan;
      if (line_len > 0 && buffer[scan + line_len - 1] == '\r') --line_len;
      if (line_len == 0) {
        std::string frame = buffer.substr(0, scan);
        buffer.erase(0, eol + 1);
        return frame;
      }
      scan = eol + 1;
    }
    return std::nullopt;
  }
};

SseClient::SseClient() : impl_(std::make_unique<Impl>()) {}
SseClient::~SseClient() = default;

Status SseClient::connect(const std::string& host, std::uint16_t port,
                          const std::string& path) {
  close();
  impl_->fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (impl_->fd < 0) return io_error("socket: " + std::string(std::strerror(errno)));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close();
    return invalid_argument("bad address: " + host);
  }
  if (::connect(impl_->fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const Status status = io_error("connect: " + std::string(std::strerror(errno)));
    close();
    return status;
  }
  const int one = 1;
  ::setsockopt(impl_->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

  const std::string request = "GET " + path +
                              " HTTP/1.1\r\nHost: " + host +
                              "\r\nAccept: text/event-stream\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(impl_->fd, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status status = io_error("send: " + std::string(std::strerror(errno)));
      close();
      return status;
    }
    sent += static_cast<std::size_t>(n);
  }

  // Read until the end of the response head, then parse the status line
  // and leave any stream bytes already received in the buffer.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::size_t head_end = std::string::npos;
  while (head_end == std::string::npos) {
    const Status status = impl_->fill(deadline);
    if (!status.is_ok()) {
      close();
      return status;
    }
    head_end = impl_->buffer.find("\r\n\r\n");
    if (impl_->buffer.size() > 64 * 1024) {
      close();
      return io_error("response head too large");
    }
  }
  const std::string head = impl_->buffer.substr(0, head_end);
  impl_->buffer.erase(0, head_end + 4);
  // "HTTP/1.1 200 OK"
  const std::size_t space = head.find(' ');
  if (space == std::string::npos) {
    close();
    return io_error("malformed status line: " + head.substr(0, head.find("\r\n")));
  }
  const auto status_code = parse_int(std::string_view(head).substr(space + 1, 3));
  if (!status_code) {
    close();
    return io_error("malformed status line: " + head.substr(0, head.find("\r\n")));
  }
  impl_->http_status = static_cast<int>(*status_code);
  if (impl_->http_status / 100 != 2) {
    const Status status =
        failed_precondition("subscribe failed: HTTP " + std::to_string(impl_->http_status));
    close();
    return status;
  }
  return Status::ok();
}

void SseClient::close() {
  impl_->close();
  impl_->buffer.clear();
  impl_->saw_eof = false;
}

bool SseClient::connected() const noexcept { return impl_->fd >= 0; }

int SseClient::status() const noexcept { return impl_->http_status; }

Result<SseClient::Event> SseClient::next_event(std::chrono::milliseconds timeout) {
  if (impl_->fd < 0) return failed_precondition("not connected");
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (true) {
    while (const auto frame = impl_->pop_frame()) {
      Event event;
      bool has_field = false;
      std::size_t start = 0;
      while (start <= frame->size()) {
        std::size_t eol = frame->find('\n', start);
        if (eol == std::string::npos) eol = frame->size();
        std::string_view line(frame->data() + start, eol - start);
        if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
        start = eol + 1;
        if (line.empty() || line.front() == ':') continue;  // comment
        const std::size_t colon = line.find(':');
        std::string_view field = line.substr(0, colon);
        std::string_view value =
            colon == std::string_view::npos ? std::string_view{} : line.substr(colon + 1);
        if (!value.empty() && value.front() == ' ') value.remove_prefix(1);
        if (field == "event") {
          event.event = std::string(value);
          has_field = true;
        } else if (field == "data") {
          if (!event.data.empty()) event.data += '\n';
          event.data += value;
          has_field = true;
        }
        // "id" / "retry" fields are tolerated and ignored.
      }
      if (!has_field) continue;  // comment-only frame (ping)
      if (event.event.empty()) event.event = "message";
      return event;
    }
    const Status status = impl_->fill(deadline);
    if (!status.is_ok()) return status;
  }
}

}  // namespace crowdweb::transport
