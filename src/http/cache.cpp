#include "http/cache.hpp"

#include <algorithm>

#include "util/format.hpp"
#include "util/strings.hpp"

namespace crowdweb::http {

namespace {

/// FNV-1a 64-bit; cheap, stable, and good enough for a strong validator
/// when combined with the epoch (a hash collision *within* one epoch on
/// one target would be needed to serve a wrong 304).
std::uint64_t fnv1a(std::string_view bytes, std::uint64_t seed = 14695981039346656037ull) {
  std::uint64_t hash = seed;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

/// Resident cost of an entry: key (stored once, referenced by the
/// index), body, headers, the pre-serialized wire image, plus a fixed
/// allowance for node overhead.
std::size_t cost_of(std::string_view key, const CachedResponse& response) {
  std::size_t cost = key.size() + response.body.size() + response.etag.size() +
                     response.wire.size() + 128;
  for (const auto& [name, value] : response.headers) cost += name.size() + value.size() + 32;
  return cost;
}

}  // namespace

ResponseCache::ResponseCache(ResponseCacheConfig config) : config_(config) {
  if (config_.shards == 0) config_.shards = 1;
  if (config_.max_bytes == 0) config_.max_bytes = 1;
  shard_budget_ = std::max<std::size_t>(1, config_.max_bytes / config_.shards);
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i)
    shards_.push_back(std::make_unique<Shard>());
  init_metrics();
}

void ResponseCache::init_metrics() {
  if (config_.metrics != nullptr) {
    metrics_ = config_.metrics;
  } else {
    own_metrics_ = std::make_unique<telemetry::Registry>();
    metrics_ = own_metrics_.get();
  }
  hits_ = &metrics_->counter("crowdweb_http_cache_hits_total",
                             "Cacheable requests served from the response cache.");
  misses_ = &metrics_->counter(
      "crowdweb_http_cache_misses_total",
      "Cacheable requests that missed the cache and executed their handler.");
  evictions_ = &metrics_->counter("crowdweb_http_cache_evictions_total",
                                  "Entries evicted to keep the cache under its byte budget.");
  not_modified_ = &metrics_->counter(
      "crowdweb_http_cache_not_modified_total",
      "304 responses served off a cached ETag via If-None-Match.");
  bytes_gauge_ = &metrics_->gauge("crowdweb_http_cache_bytes",
                                  "Resident bytes of live cache entries.");
  entries_gauge_ =
      &metrics_->gauge("crowdweb_http_cache_entries", "Live cache entries.");
}

void ResponseCache::set_epoch(std::uint64_t epoch, std::string tag) {
  const std::lock_guard<std::mutex> lock(publish_mutex_);
  state_.store(std::make_shared<const CacheEpoch>(CacheEpoch{epoch, std::move(tag)}),
               std::memory_order_release);
  epoch_.store(epoch, std::memory_order_release);
}

std::string ResponseCache::make_key(std::string_view method, std::string_view target,
                                    std::uint64_t epoch) const {
  return crowdweb::format("{} {}@{}", method, target, epoch);
}

ResponseCache::Shard& ResponseCache::shard_for(std::string_view key) {
  return *shards_[fnv1a(key) % shards_.size()];
}

std::shared_ptr<const CachedResponse> ResponseCache::lookup(std::string_view method,
                                                            std::string_view target,
                                                            bool record_miss) {
  const std::string key = make_key(method, target, epoch());
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.index.find(std::string_view(key));
  if (it == shard.index.end()) {
    if (record_miss) misses_->increment();
    return nullptr;
  }
  // Refresh recency: splice the entry to the MRU front. Iterators and
  // the string_view key in the index stay valid across splice.
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_->increment();
  return it->second->response;
}

std::shared_ptr<const CachedResponse> ResponseCache::insert(
    std::string_view method, std::string_view target, const Response& response,
    std::shared_ptr<const CacheEpoch> rendered_at) {
  if (rendered_at == nullptr) rendered_at = epoch_state();
  const std::uint64_t at_epoch = rendered_at->key;
  auto cached = std::make_shared<CachedResponse>();
  cached->status = response.status;
  cached->headers = response.headers;
  cached->body = response.body;
  cached->epoch = at_epoch;
  cached->etag = rendered_at->tag.empty()
                     ? crowdweb::format("\"{}-{:x}\"", at_epoch, fnv1a(response.body))
                     : crowdweb::format("\"{}-{:x}\"", rendered_at->tag, fnv1a(response.body));
  cached->headers["ETag"] = cached->etag;
  {  // render the keep-alive hit image once; every hit serves it verbatim
    Response hit;
    hit.status = cached->status;
    hit.headers = cached->headers;
    hit.headers["X-Cache"] = "hit";
    hit.body = cached->body;
    cached->wire = serialize(hit, /*keep_alive=*/true);
  }

  // A publish landed while this rendered: the body may straddle it.
  if (epoch_state() != rendered_at) return cached;
  std::string key = make_key(method, target, at_epoch);
  const std::size_t cost = cost_of(key, *cached);
  if (cost > shard_budget_) return cached;  // would evict the whole shard for one entry

  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (const auto it = shard.index.find(std::string_view(key)); it != shard.index.end()) {
    // Replace in place (two workers raced on the same miss).
    shard.bytes -= it->second->cost;
    bytes_gauge_->add(-static_cast<double>(it->second->cost));
    it->second->response = cached;
    it->second->cost = cost;
    shard.bytes += cost;
    bytes_gauge_->add(static_cast<double>(cost));
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return cached;
  }
  shard.lru.push_front(Entry{std::move(key), cached, cost});
  shard.index.emplace(std::string_view(shard.lru.front().key), shard.lru.begin());
  shard.bytes += cost;
  bytes_gauge_->add(static_cast<double>(cost));
  entries_gauge_->add(1.0);
  while (shard.bytes > shard_budget_ && !shard.lru.empty()) {
    const Entry& victim = shard.lru.back();
    shard.bytes -= victim.cost;
    bytes_gauge_->add(-static_cast<double>(victim.cost));
    entries_gauge_->add(-1.0);
    evictions_->increment();
    shard.index.erase(std::string_view(victim.key));
    shard.lru.pop_back();
  }
  return cached;
}

ResponseCacheStats ResponseCache::stats() const {
  ResponseCacheStats stats;
  stats.hits = hits_->value();
  stats.misses = misses_->value();
  stats.evictions = evictions_->value();
  stats.not_modified = not_modified_->value();
  stats.byte_budget = config_.max_bytes;
  stats.epoch = epoch();
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    stats.bytes += shard->bytes;
    stats.entries += shard->lru.size();
  }
  return stats;
}

bool etag_matches(std::string_view if_none_match, std::string_view etag) {
  for (std::string_view token : split(if_none_match, ',')) {
    token = trim(token);
    if (token == "*") return true;
    if (token.starts_with("W/")) token.remove_prefix(2);
    if (token == etag) return true;
  }
  return false;
}

}  // namespace crowdweb::http
