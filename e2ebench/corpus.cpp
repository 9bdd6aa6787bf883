#include "corpus.hpp"

#include <algorithm>

#include "ingest/replay.hpp"
#include "synth/generator.hpp"
#include "util/civil_time.hpp"
#include "util/rng.hpp"

namespace e2e {

using namespace crowdweb;

namespace {

/// The check-ins at or after `from`, as live events in timestamp order
/// (stable, so equal timestamps keep the corpus's user order).
std::vector<ingest::IngestEvent> feed_after(const data::Dataset& corpus, std::int64_t from) {
  std::vector<ingest::IngestEvent> feed;
  for (const data::CheckIn& checkin : corpus.checkins())
    if (checkin.timestamp >= from) feed.push_back(ingest::to_event(checkin));
  std::stable_sort(feed.begin(), feed.end(),
                   [](const ingest::IngestEvent& a, const ingest::IngestEvent& b) {
                     return a.timestamp < b.timestamp;
                   });
  return feed;
}

}  // namespace

Result<Inputs> sparse_inputs(std::uint64_t seed, std::size_t users) {
  synth::GeneratorConfig generator;
  generator.seed = seed;
  generator.user_count = users;
  generator.period_end = to_epoch_seconds({2012, 9, 1, 0, 0, 0});
  auto corpus = synth::generate_corpus(generator);
  if (!corpus.is_ok()) return corpus.status();

  Inputs inputs;
  inputs.config.seed = seed;
  inputs.users = users;
  inputs.days = static_cast<std::size_t>((generator.period_end - generator.period_start) / 86'400);
  inputs.feed = feed_after(corpus->dataset, inputs.config.experiment_end);
  // The city and the user profiles die with `corpus` here.
  inputs.corpus = std::move(corpus->dataset);
  return inputs;
}

Result<Inputs> routine_inputs(std::uint64_t seed, std::size_t users, int base_days,
                              int feed_days) {
  constexpr std::int64_t kStart = 1'333'238'400;  // 2012-04-01 00:00:00
  constexpr int kVenues = 10;
  Rng rng(seed);
  data::DatasetBuilder builder;
  std::vector<data::VenueSpec> venues;
  for (int v = 0; v < kVenues; ++v) {
    data::VenueSpec venue;
    venue.id = static_cast<data::VenueId>(v);
    venue.name = "venue-" + std::to_string(v);
    venue.category = static_cast<data::CategoryId>(v % 7);
    venue.position = {40.70 + 0.005 * v, -74.00 + 0.003 * v};
    if (Status status = builder.add_venue(venue); !status.is_ok()) return status;
    venues.push_back(venue);
  }
  const int days = base_days + feed_days;
  for (std::size_t u = 0; u < users; ++u) {
    // Distinct venues per routine: every weekday repeats one long
    // sequence, so the frequent set is large and the closed set small.
    const std::size_t weekday_len = 8 + u % 3;
    const std::size_t weekend_len = 3 + u % 3;
    std::vector<int> deck(kVenues);
    for (int v = 0; v < kVenues; ++v) deck[static_cast<std::size_t>(v)] = v;
    for (std::size_t i = deck.size(); i > 1; --i)
      std::swap(deck[i - 1],
                deck[static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(i) - 1))]);
    const std::vector<int> weekday(deck.begin(), deck.begin() + static_cast<long>(weekday_len));
    const std::vector<int> weekend(deck.begin(), deck.begin() + static_cast<long>(weekend_len));
    std::vector<int> irregular;
    for (int d = 0; d < days; ++d) {
      const std::vector<int>* day = d % 7 < 5 ? &weekday : &weekend;
      if (rng.uniform() < 0.15) {
        irregular.clear();
        const int len = static_cast<int>(rng.uniform_int(2, 6));
        for (int i = 0; i < len; ++i)
          irregular.push_back(static_cast<int>(rng.uniform_int(0, kVenues - 1)));
        day = &irregular;
      }
      for (std::size_t i = 0; i < day->size(); ++i) {
        const data::VenueSpec& venue = venues[static_cast<std::size_t>((*day)[i])];
        data::CheckIn checkin;
        checkin.user = static_cast<data::UserId>(u + 1);
        checkin.venue = venue.id;
        checkin.category = venue.category;
        checkin.position = venue.position;
        checkin.timestamp = kStart + static_cast<std::int64_t>(d) * 86'400 +
                            (480 + static_cast<std::int64_t>(i) * 90) * 60;
        if (Status status = builder.add_checkin(checkin); !status.is_ok()) return status;
      }
    }
  }

  Inputs inputs;
  inputs.config.seed = seed;
  inputs.config.experiment_start = kStart;
  inputs.config.experiment_end = kStart + static_cast<std::int64_t>(base_days) * 86'400;
  inputs.config.min_active_days = base_days / 2;
  inputs.config.mining.algorithm = "bide";
  inputs.config.mining.expand_closed = false;
  inputs.config.sequences.mode = mining::LabelMode::kVenue;
  inputs.users = users;
  inputs.days = static_cast<std::size_t>(days);
  inputs.corpus = builder.build();
  inputs.feed = feed_after(inputs.corpus, inputs.config.experiment_end);
  return inputs;
}

Feed::Feed(std::span<const ingest::IngestEvent> events, std::size_t batch_size)
    : events_(events), batch_size_(std::max<std::size_t>(1, batch_size)) {
  constexpr std::int64_t kWeek = 7 * 86'400;
  if (!events_.empty()) {
    const std::int64_t span = events_.back().timestamp - events_.front().timestamp + 86'400;
    lap_seconds_ = (span + kWeek - 1) / kWeek * kWeek;
  }
}

void Feed::batch(std::size_t b, std::vector<ingest::IngestEvent>& out) const {
  out.clear();
  if (events_.empty()) return;
  for (std::size_t i = b * batch_size_; i < (b + 1) * batch_size_; ++i) {
    ingest::IngestEvent event = events_[i % events_.size()];
    event.timestamp += static_cast<std::int64_t>(i / events_.size()) * lap_seconds_;
    out.push_back(event);
  }
}

std::vector<ingest::IngestEvent> Feed::first(std::size_t batches) const {
  std::vector<ingest::IngestEvent> all;
  std::vector<ingest::IngestEvent> one;
  for (std::size_t b = 0; b < batches; ++b) {
    batch(b, one);
    all.insert(all.end(), one.begin(), one.end());
  }
  return all;
}

}  // namespace e2e
