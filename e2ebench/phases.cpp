#include "phases.hpp"

#include <atomic>
#include <thread>

#include "json/json.hpp"
#include "transport/frame.hpp"
#include "transport/frame_client.hpp"
#include "transport/sse.hpp"
#include "util/format.hpp"

namespace e2e {

using namespace crowdweb;

namespace {

std::int64_t int_field(const json::Value& object, std::string_view key) {
  const json::Value* value = object.find(key);
  return value != nullptr && value->is_int() ? value->as_int() : -1;
}

/// The epoch part of an ETag ("\"12-ab3f\"" -> "12", "\"3.5.2-ab3f\"" -> "3.5.2").
std::string etag_epoch(const std::string& etag) {
  const std::size_t dash = etag.rfind('-');
  if (etag.size() < 3 || dash == std::string::npos || dash < 1) return {};
  return etag.substr(1, dash - 1);
}

bool well_formed(const KeepAlive::Reply& reply) {
  if (reply.content_type.find("json") != std::string::npos)
    return json::parse(reply.body).is_ok();
  if (reply.content_type.find("svg") != std::string::npos) {
    const bool opens = reply.body.rfind("<svg", 0) == 0 || reply.body.rfind("<?xml", 0) == 0;
    return opens && reply.body.find("</svg>") != std::string::npos;
  }
  return false;
}

/// Waits on the epoch stream until an event reports `live` >= `target`.
/// Returns the epoch that made it visible (0 on a stream failure).
std::uint64_t await_epoch(transport::SseClient& epochs, std::size_t target) {
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  while (Clock::now() < deadline) {
    auto event = epochs.next_event(std::chrono::milliseconds(1000));
    if (!event.is_ok()) {
      if (event.status().code() == StatusCode::kUnavailable) continue;
      return 0;
    }
    if (event->event != "epoch") continue;
    const auto payload = json::parse(event->data);
    if (!payload.is_ok()) return 0;
    if (int_field(*payload, "live_checkins") >= static_cast<std::int64_t>(target))
      return static_cast<std::uint64_t>(int_field(*payload, "epoch"));
  }
  return 0;
}

/// One GET on a reader connection: timed, validated, booked.
void read_one(KeepAlive& connection, const std::string& target, bool measured,
              PhaseResult& result, std::mutex& result_mutex, ReadBook& book, Tracer& tracer) {
  const auto reply = connection.get(target);
  if (reply) book.record(target, *reply, tracer);
  const std::lock_guard<std::mutex> lock(result_mutex);
  ++result.attempted;
  if (!reply) {
    ++result.failed;
    result.errors.push_back("GET " + target + ": connection failed");
    return;
  }
  if (measured) result.reads.push_back({reply->done, ms_between(reply->sent, reply->done)});
}

/// Frame-transport producer: send, then wait for the epoch stream.
struct FrameProducer {
  transport::FrameClient client;
  transport::SseClient epochs;
  std::size_t live = 0;
  std::uint64_t seq = 0;

  Status connect(Stack& stack) {
    if (Status status = client.connect_tcp("127.0.0.1", stack.frame_port()); !status.is_ok())
      return status;
    return epochs.connect("127.0.0.1", stack.http_port(), "/api/stream/epochs");
  }

  /// One closed-loop batch; false on a failed operation. Books into
  /// `result` under `result_mutex`, which reader threads share.
  bool send(Batch batch, PhaseResult& result, std::mutex& result_mutex, Tracer& tracer) {
    const auto sent = Clock::now();
    const auto ack = client.send(batch);
    const auto acked = Clock::now();
    ++seq;
    std::string error;
    std::uint64_t epoch = 0;
    if (!ack.is_ok() || ack->accepted != batch.size()) {
      error = ack.is_ok() ? crowdweb::format("frame ack took {} of {} events", ack->accepted,
                                             batch.size())
                          : "frame send: " + ack.status().to_string();
    } else {
      live += batch.size();
      epoch = await_epoch(epochs, live);
      if (epoch == 0) error = "epoch stream ended before the batch was visible";
    }
    const auto visible = Clock::now();
    const std::lock_guard<std::mutex> lock(result_mutex);
    ++result.attempted;
    ++result.batches_sent;
    if (!error.empty()) {
      ++result.failed;
      result.errors.push_back(std::move(error));
      return false;
    }
    result.batch_trace.push_back({sent, acked, visible, visible, epoch});
    if (tracer.enabled()) {
      const std::int64_t parent = tracer.span("e2e.batch", sent, visible);
      tracer.span("transport.send", sent, acked, parent);
      tracer.value("transport.frame_bytes",
                   static_cast<double>(transport::encode_data_frame(seq, batch).size()));
    }
    return true;
  }
};

}  // namespace

// ------------------------------------------------------------ PublishLog

PublishHooks PublishLog::hooks() {
  PublishHooks hooks;
  hooks.before_stream = [this](const ingest::PlatformSnapshot& snapshot) {
    const auto now = Clock::now();
    const std::lock_guard<std::mutex> lock(mutex_);
    entries_.push_back({snapshot.epoch, snapshot.live_checkins, snapshot.rebuild_ms, now, now});
  };
  hooks.after_stream = [this](const ingest::PlatformSnapshot& snapshot) {
    const auto now = Clock::now();
    const std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
      if (it->epoch == snapshot.epoch) {
        it->after_stream = now;
        break;
      }
    }
  };
  return hooks;
}

void PublishLog::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
}

std::vector<PublishLog::Entry> PublishLog::entries() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_;
}

// -------------------------------------------------------------- ReadBook

bool ReadBook::record(const std::string& target, const KeepAlive::Reply& reply,
                      Tracer& tracer) {
  if (tracer.enabled()) {
    tracer.span(reply.cache_hit ? "http.hit" : "http.miss", reply.sent, reply.done);
    tracer.value("http.response_kb", static_cast<double>(reply.body.size()) / 1024.0);
  }
  const std::string epoch = etag_epoch(reply.etag);
  const std::uint64_t hash = body_hash(reply.body);
  bool known = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = seen_.find(target);
    known = it != seen_.end() && it->second.epoch == epoch && it->second.hash == hash;
  }
  // A body already seen for this (target, epoch) was validated then.
  const bool valid = reply.status == 200 && (known || well_formed(reply));
  const std::lock_guard<std::mutex> lock(mutex_);
  if (reply.status != 200) {
    errors_.push_back(crowdweb::format("GET {} answered {}", target, reply.status));
    return false;
  }
  if (!valid) {
    errors_.push_back(crowdweb::format("GET {}: malformed {} body", target, reply.content_type));
    return false;
  }
  if (epoch.empty()) {
    errors_.push_back(crowdweb::format("GET {}: no epoch ETag", target));
    return false;
  }
  // Only the newest epoch per target is kept: the cache's epoch never
  // moves back, so older (target, epoch) pairs are not served again.
  Seen& seen = seen_[target];
  if (seen.epoch == epoch && seen.hash != hash) {
    errors_.push_back(crowdweb::format("GET {}: two bodies at epoch {}", target, epoch));
    return false;
  }
  seen.epoch = epoch;
  seen.hash = hash;
  if (reply.cache_hit) {
    ++hits;
  } else {
    ++misses;
    if (!seen.miss_epoch.empty() && seen.miss_epoch != epoch && seen.miss_hash == hash)
      ++unchanged_rerenders;
    seen.miss_epoch = epoch;
    seen.miss_hash = hash;
  }
  return true;
}

void ReadBook::forget_bodies() {
  const std::lock_guard<std::mutex> lock(mutex_);
  seen_.clear();
}

std::vector<std::string> ReadBook::errors() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return errors_;
}

// ---------------------------------------------------------------- phases

PhaseResult run_replay(Stack& stack, const Feed& feed, const PhaseOptions& options,
                       Tracer& tracer, RssSampler* rss, ReadBook& book) {
  PhaseResult result;
  std::mutex result_mutex;
  FrameProducer producer;
  if (Status status = producer.connect(stack); !status.is_ok()) {
    result.errors.push_back("producer connect: " + status.to_string());
    return result;
  }
  const int windows = stack.platform().crowd_model().window_count();
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;

  // SSE subscribers on a few crowd windows: every pushed body must parse.
  for (std::size_t s = 0; s < options.crowd_subscribers; ++s) {
    threads.emplace_back([&, s] {
      transport::SseClient client;
      const int window = static_cast<int>((8 + 4 * s) % static_cast<std::size_t>(windows));
      const std::string path = "/api/stream/crowd/" + std::to_string(window);
      if (!client.connect("127.0.0.1", stack.http_port(), path).is_ok()) {
        const std::lock_guard<std::mutex> lock(result_mutex);
        result.errors.push_back("SSE subscribe " + path + " failed");
        return;
      }
      while (!stop.load(std::memory_order_acquire)) {
        auto event = client.next_event(std::chrono::milliseconds(50));
        if (!event.is_ok()) {
          if (event.status().code() == StatusCode::kUnavailable) continue;
          break;
        }
        if (event->event == "crowd" && !json::parse(event->data).is_ok()) {
          const std::lock_guard<std::mutex> lock(result_mutex);
          result.errors.push_back("SSE " + path + " pushed malformed JSON");
        }
      }
    });
  }
  // The reader's connection; its turn follows each visible batch.
  KeepAlive reader(stack.http_port());
  if (!reader.connected()) {
    const std::lock_guard<std::mutex> lock(result_mutex);
    result.errors.push_back("reader connect failed");
  }

  std::vector<ingest::IngestEvent> batch;
  const std::size_t rounds = options.warmup_rounds + options.rounds;
  for (std::size_t round = 0; reader.connected() && round < rounds; ++round) {
    const bool measured = round >= options.warmup_rounds;
    feed.batch(round, batch);
    if (!producer.send(batch, result, result_mutex, tracer)) break;
    // Only a round's first GET can miss the cache (the batch published a
    // new epoch), so the miss share is fixed by the schedule.
    const std::string target =
        "/api/crowd/" + std::to_string(round % static_cast<std::size_t>(windows));
    for (std::size_t i = 0; i < options.reads_per_round; ++i)
      read_one(reader, target, measured, result, result_mutex, book, tracer);
    result.batch_trace.back().reads_done = Clock::now();
    result.batch_trace.back().measured = measured;
    if (rss != nullptr) rss->sample();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();
  return result;
}

}  // namespace e2e
