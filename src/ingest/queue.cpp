#include "ingest/queue.hpp"

#include <algorithm>

namespace crowdweb::ingest {

IngestQueue::IngestQueue(std::size_t capacity) : capacity_(std::max<std::size_t>(1, capacity)) {}

std::size_t IngestQueue::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

bool IngestQueue::try_push(const IngestEvent& event) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!closed_ && events_.size() < capacity_) {
      events_.push_back(event);
      not_empty_.notify_one();
      return true;
    }
  }
  count_rejected(1);
  return false;
}

std::size_t IngestQueue::push_batch(std::span<const IngestEvent> events) {
  std::size_t accepted = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!closed_) {
      const std::size_t room = capacity_ - std::min(capacity_, events_.size());
      accepted = std::min(room, events.size());
      events_.insert(events_.end(), events.begin(), events.begin() + accepted);
      if (accepted > 0) not_empty_.notify_one();
    }
  }
  count_rejected(events.size() - accepted);
  return accepted;
}

std::size_t IngestQueue::drain(std::vector<IngestEvent>& out, std::size_t max_events,
                               std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto ready = [this] { return !events_.empty() || closed_ || woken_; };
  if (timeout == kNoTimeout) {
    not_empty_.wait(lock, ready);
  } else {
    not_empty_.wait_for(lock, timeout, ready);
  }
  woken_ = false;
  const std::size_t count = std::min(max_events, events_.size());
  out.insert(out.end(), events_.begin(), events_.begin() + count);
  events_.erase(events_.begin(), events_.begin() + count);
  return count;
}

void IngestQueue::wake() {
  const std::lock_guard<std::mutex> lock(mutex_);
  woken_ = true;
  not_empty_.notify_all();
}

void IngestQueue::close() {
  const std::lock_guard<std::mutex> lock(mutex_);
  closed_ = true;
  not_empty_.notify_all();
}

bool IngestQueue::closed() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

std::uint64_t IngestQueue::rejected() const noexcept {
  return rejected_.load(std::memory_order_relaxed);
}

}  // namespace crowdweb::ingest
