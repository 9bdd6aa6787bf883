// End-to-end benchmark of the live CrowdWeb stack.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--work-dir DIR] [--mining-threads N] [--http-workers N] [--cpus N]
//
// Builds the workload's corpus from the seed, then for --seconds runs
// cycles: each starts a fresh stack (setup_s is the median set-up),
// drives it through its wire edges for the same rounds and stops it.
// The last cycle's stack is checked for what it served. The last line of
// stdout is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics; --trace 1 reruns
// the workload with spans recorded around each layer's public calls and
// reports the per-layer metrics (see README.md for both tables).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <malloc.h>
#include <optional>
#include <sched.h>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "checks.hpp"
#include "common.hpp"
#include "corpus.hpp"
#include "layers.hpp"
#include "phases.hpp"
#include "stack.hpp"
#include "telemetry/exposition.hpp"
#include "util/format.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

using namespace crowdweb;
using namespace e2e;

namespace {

struct Workload {
  const char* name;
  bool routine;        ///< dense routine corpus (else the sparse paper corpus)
  std::size_t batch;   ///< events per producer batch
  /// Rounds per cycle: a fresh stack replays the feed's first
  /// warmup_rounds + rounds batches, and only the last `rounds` count.
  std::size_t warmup_rounds;
  std::size_t rounds;
  /// Tail percentiles, over the measured rounds of every cycle.
  double visible_tail;
  double read_tail;
};

// Sizing and tail percentiles are documented in README.md.
constexpr std::size_t kSparseUsers = 3'000;
constexpr std::size_t kRoutineUsers = 150;
constexpr int kRoutineBaseDays = 28;
constexpr int kRoutineFeedDays = 28;
constexpr Workload kWorkloads[] = {
    {"checkin_replay", false, 256, 16, 128, 0.90, 0.999},
    {"routine_replay", true, 64, 4, 24, 0.90, 0.95},
};

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
  /// Program thread counts (README.md says why these defaults).
  unsigned mining_threads = 1;
  int http_workers = 0;
  /// CPUs the process may run on (0 = every allowed CPU).
  int cpus = 1;
};

int usage(const char* name) {
  std::fprintf(stderr,
               "usage: %s --workload checkin_replay|routine_replay "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR] "
               "[--mining-threads N] [--http-workers N] [--cpus N]\n",
               name);
  return 2;
}

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    const auto number = parse_int(value);
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads)
        if (w.name == std::string_view(value)) args.workload = &w;
      if (args.workload == nullptr) return std::nullopt;
    } else if (flag == "--seed" && number && *number >= 0) {
      args.seed = static_cast<std::uint64_t>(*number);
    } else if (flag == "--seconds" && parse_double(value) && *parse_double(value) > 0) {
      args.seconds = *parse_double(value);
    } else if (flag == "--trace" && number && (*number == 0 || *number == 1)) {
      args.trace = *number == 1;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--mining-threads" && number && *number >= 0) {
      args.mining_threads = static_cast<unsigned>(*number);
    } else if (flag == "--http-workers" && number) {
      args.http_workers = static_cast<int>(*number);
    } else if (flag == "--cpus" && number && *number >= 0) {
      args.cpus = static_cast<int>(*number);
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || args.workload == nullptr) return std::nullopt;
  return args;
}

std::size_t nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

/// Restricts the process, before it starts a thread, to the last `cpus`
/// of its allowed CPUs. Every thread then hands off to others on the same
/// CPUs: on a VM a wake-up sent to another, idle vCPU waits until the
/// host runs that vCPU, which measured the host rather than the program.
void pin_cpus(int cpus) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (cpus <= 0 || sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && cpus > 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    CPU_SET(cpu, &chosen);
    --cpus;
  }
  if (sched_setaffinity(0, sizeof chosen, &chosen) != 0)
    std::fprintf(stderr, "sched_setaffinity failed; running on every allowed CPU\n");
}

PhaseOptions phase_options(const Workload& workload) {
  PhaseOptions options;
  options.warmup_rounds = workload.warmup_rounds;
  options.rounds = workload.rounds;
  // Load generator: at most nproc threads and nproc connections: the
  // producer/reader thread (frame, epoch SSE and reader connections) +
  // crowd-window SSE subscribers.
  const std::size_t cores = nproc();
  options.crowd_subscribers = std::clamp<std::size_t>(cores > 3 ? cores - 3 : 1, 1, 3);
  return options;
}

/// Everything one measured run leaves for its report.
struct Run {
  std::vector<PhaseResult> cycles;  ///< one per fresh stack, in order
  ReadBook book;
  Errors errors;
  std::vector<double> setup_s;  ///< one per cycle
  double peak_rss_mb = 0.0;
  std::unique_ptr<Stack> stack;  ///< the last cycle's, still up, for checks and layer replays
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

class WorkDir {
 public:
  explicit WorkDir(const std::string& root)
      : path_(root + "/run-" + std::to_string(::getpid())) {
    std::filesystem::create_directories(path_);
  }
  ~WorkDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  /// A fresh, not yet existing directory under the run's root.
  std::string fresh(const std::string& tag) {
    return path_ + "/" + tag + "-" + std::to_string(counter_++);
  }

 private:
  std::string path_;
  int counter_ = 0;
};

StackOptions stack_options(const Args& args, bool sharded, WorkDir& work) {
  StackOptions options;
  options.sharded = sharded;
  options.store_dir = work.fresh("store");
  options.mining_threads = args.mining_threads;
  options.http_workers = args.http_workers;
  return options;
}

/// The event ledger of one cycle: sent = accepted, nothing rejected,
/// invalid or spooled.
void check_ledger(Stack& stack, std::size_t sent, Errors& errors) {
  const ingest::IngestStats stats = stack.worker()->stats();
  if (stats.submitted != sent || stats.accepted != sent || stats.rejected != 0 || stats.invalid != 0)
    errors.push_back(crowdweb::format("ledger: sent {}, submitted {}, accepted {}, rejected {}, "
                                      "invalid {}",
                                      sent, stats.submitted, stats.accepted, stats.rejected,
                                      stats.invalid));
  if (stack.frames()->stats().spooled != 0) errors.push_back("ledger: frames were spooled");
}

/// Runs cycles for `seconds`: each starts a fresh stack (a set-up, timed)
/// and replays the same rounds on it, so every cycle does the same work
/// whatever the machine's speed. The last stack stays up. peak_rss_mb
/// covers the first cycle, a fixed amount of ingested data.
std::unique_ptr<Run> measure(const Args& args, const Inputs& inputs, const Feed& feed,
                             double seconds, Tracer& tracer, PublishLog* log, WorkDir& work) {
  auto run = std::make_unique<Run>();
  const PhaseOptions options = phase_options(*args.workload);
  RssSampler rss;
  rss.sample();
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
  do {
    if (run->stack != nullptr) {
      check_ledger(*run->stack, run->cycles.back().batches_sent * feed.batch_size(), run->errors);
      run->stack.reset();
    }
    if (log != nullptr) log->clear();
    run->book.forget_bodies();
    auto stack = Stack::start(inputs, stack_options(args, false, work),
                              log != nullptr ? log->hooks() : PublishHooks{});
    if (!stack.is_ok()) {
      std::fprintf(stderr, "stack start failed: %s\n", stack.status().to_string().c_str());
      return nullptr;
    }
    run->stack = std::move(stack).value();
    run->setup_s.push_back(run->stack->setup_s());
    const bool first = run->cycles.empty();
    if (first) rss.sample();
    run->cycles.push_back(
        run_replay(*run->stack, feed, options, tracer, first ? &rss : nullptr, run->book));
    const PhaseResult& cycle = run->cycles.back();
    run->attempted += cycle.attempted;
    run->failed += cycle.failed;
    for (const std::string& error : cycle.errors) run->errors.push_back(error);
    if (!cycle.errors.empty()) break;
  } while (Clock::now() < end);
  run->peak_rss_mb = rss.peak_mb();
  return run;
}

/// The output checks of the satellite list on the last cycle's stack;
/// fills `errors`. Returns the corpus the run ended with (for the layer
/// replay).
data::Dataset check_run(Run& run, std::size_t batch_size) {
  Stack& stack = *run.stack;
  Errors& errors = run.errors;
  for (const std::string& error : run.book.errors()) errors.push_back(error);
  const core::Platform& platform = stack.platform();
  const std::vector<std::string> served = served_crowd(stack.http_port(), platform, errors);
  check_ledger(stack, run.cycles.back().batches_sent * batch_size, errors);
  const ingest::SnapshotPtr snapshot = stack.worker()->hub().current();
  check_supports(snapshot->dataset, snapshot->mobility, platform, 400, errors);
  check_crowd(snapshot->crowd, snapshot->grid, served, errors);
  check_bytes(served, scratch_crowd_bodies(snapshot->dataset, platform, std::nullopt),
              "served vs from-scratch build", errors);
  return snapshot->dataset;
}

/// `per_item` items per turn over the turns' total time, per second.
double turn_rate(const std::vector<double>& turns_ms, double per_item) {
  double total_ms = 0.0;
  for (const double ms : turns_ms) total_ms += ms;
  return total_ms > 0.0 ? static_cast<double>(turns_ms.size()) * per_item * 1000.0 / total_ms : 0.0;
}

/// One cycle's measured samples.
struct CycleSamples {
  std::vector<double> visible_ms;  ///< the producer's turns
  std::vector<double> turn_ms;     ///< the reader's turns
  std::vector<double> read_ms;

  explicit CycleSamples(const PhaseResult& phase) {
    for (const PhaseResult::BatchTrace& batch : phase.batch_trace) {
      if (!batch.measured) continue;
      visible_ms.push_back(ms_between(batch.sent, batch.visible));
      turn_ms.push_back(ms_between(batch.visible, batch.reads_done));
    }
    for (const PhaseResult::Read& read : phase.reads) read_ms.push_back(read.ms);
  }
};

/// Rates and medians are medians over the cycles of the cycle's figure,
/// so a stall or a slow spell of the machine that covers a minority of
/// the cycles moves none of them. Tails are taken over the measured
/// rounds of every cycle together: a cycle holds too few samples beyond
/// a tail percentile.
MetricMap end_to_end(const Workload& workload, const Run& run) {
  const auto reads_per_round = static_cast<double>(phase_options(workload).reads_per_round);
  std::vector<double> eps, visible_p50, rps, read_p50, visible, reads;
  for (const PhaseResult& phase : run.cycles) {
    const CycleSamples cycle(phase);
    if (cycle.visible_ms.empty()) continue;
    eps.push_back(turn_rate(cycle.visible_ms, static_cast<double>(workload.batch)));
    visible_p50.push_back(median(cycle.visible_ms));
    rps.push_back(turn_rate(cycle.turn_ms, reads_per_round));
    read_p50.push_back(median(cycle.read_ms));
    visible.insert(visible.end(), cycle.visible_ms.begin(), cycle.visible_ms.end());
    reads.insert(reads.end(), cycle.read_ms.begin(), cycle.read_ms.end());
  }
  MetricMap metrics;
  metrics["setup_s"] = {median(run.setup_s), "s"};
  metrics["ingest_eps"] = {median(eps), "events/s"};
  metrics["visible_p50_ms"] = {median(visible_p50), "ms"};
  metrics["visible_tail_ms"] = {percentile(visible, workload.visible_tail), "ms"};
  metrics["read_rps"] = {median(rps), "req/s"};
  metrics["read_p50_ms"] = {median(read_p50), "ms"};
  metrics["read_tail_ms"] = {percentile(reads, workload.read_tail), "ms"};
  metrics["peak_rss_mb"] = {run.peak_rss_mb, "MB"};
  return metrics;
}

constexpr double kLadder[] = {0.5, 0.75, 0.9, 0.95, 0.99, 0.995, 0.998, 0.999};

/// Prints the sample counts behind the tails and the percentile ladders.
void report_tails(const Workload& workload, const Run& run) {
  std::vector<double> visible, reads;
  std::vector<std::vector<double>> cycle_visible, cycle_reads;
  for (const PhaseResult& phase : run.cycles) {
    const CycleSamples cycle(phase);
    visible.insert(visible.end(), cycle.visible_ms.begin(), cycle.visible_ms.end());
    reads.insert(reads.end(), cycle.read_ms.begin(), cycle.read_ms.end());
    cycle_visible.push_back(cycle.visible_ms);
    cycle_reads.push_back(cycle.read_ms);
  }
  const auto beyond = [](std::size_t n, double p) { return static_cast<double>(n) * (1.0 - p); };
  std::printf("measured %zu cycles; visible_tail p%g: %zu samples (%.0f beyond); "
              "read_tail p%g: %zu samples (%.0f beyond)\n",
              run.cycles.size(), workload.visible_tail * 100, visible.size(),
              beyond(visible.size(), workload.visible_tail), workload.read_tail * 100,
              reads.size(), beyond(reads.size(), workload.read_tail));
  for (const bool is_read : {false, true}) {
    const char* name = is_read ? "read" : "visible";
    std::printf("%s ms p50/p75/p90/p95/p99/p99.5/p99.8/p99.9 over every cycle:", name);
    for (const double p : kLadder) std::printf(" %.4f", percentile(is_read ? reads : visible, p));
    std::printf("\n%s ms p50/p75/p90/p95/p99/p99.5/p99.8/p99.9, median over cycles:", name);
    for (const double p : kLadder) {
      std::vector<double> per_cycle;
      for (const std::vector<double>& v : is_read ? cycle_reads : cycle_visible)
        if (!v.empty()) per_cycle.push_back(percentile(v, p));
      std::printf(" %.4f", median(std::move(per_cycle)));
    }
    std::printf("\n");
  }
}

/// Reads crowdweb_ingest_rebuild_stage_duration_seconds{stage} back from
/// a registry: mean milliseconds per stage.
std::map<std::string, double> stage_means_ms(const telemetry::Registry& registry) {
  std::map<std::string, double> sums;
  std::map<std::string, double> counts;
  const std::string text = telemetry::render_prometheus(registry);
  const std::string family = "crowdweb_ingest_rebuild_stage_duration_seconds_";
  std::size_t at = 0;
  while ((at = text.find(family, at)) != std::string::npos) {
    const std::size_t eol = text.find('\n', at);
    const std::string line = text.substr(at, eol - at);
    at = eol;
    const std::size_t stage = line.find("stage=\"");
    if (stage == std::string::npos) continue;
    const std::string name = line.substr(stage + 7, line.find('"', stage + 7) - stage - 7);
    const double value = std::atof(line.substr(line.rfind(' ') + 1).c_str());
    if (line.rfind(family + "sum{", 0) == 0) sums[name] += value;
    if (line.rfind(family + "count{", 0) == 0) counts[name] += value;
  }
  std::map<std::string, double> means;
  for (const auto& [stage, sum] : sums)
    means[stage] = counts[stage] > 0 ? sum * 1000.0 / counts[stage] : 0.0;
  return means;
}

/// Per-layer metrics of the frame path from the publish log and the
/// producer's per-batch timestamps.
void frame_path_metrics(const PhaseResult& phase, const PublishLog& log, Tracer& tracer) {
  std::map<std::uint64_t, PublishLog::Entry> by_epoch;
  for (const PublishLog::Entry& entry : log.entries()) by_epoch[entry.epoch] = entry;
  for (const PhaseResult::BatchTrace& batch : phase.batch_trace) {
    const auto it = by_epoch.find(batch.epoch);
    if (it == by_epoch.end()) continue;
    const PublishLog::Entry& entry = it->second;
    tracer.value("transport.sse_delivery_us", us_between(entry.before_stream, batch.visible));
    const double ack_to_publish = ms_between(batch.acked, entry.before_stream);
    tracer.value("ingest.ack_to_publish_ms", ack_to_publish);
    tracer.value("ingest.timer_wait_ms", ack_to_publish - entry.rebuild_ms);
  }
  std::size_t epochs = 0;
  for (const auto& [epoch, entry] : by_epoch) {
    if (epoch <= 1) continue;  // the start-up publish
    ++epochs;
    tracer.value("transport.sse_fanout_ms", ms_between(entry.before_stream, entry.after_stream));
    tracer.value("ingest.rebuild_ms", entry.rebuild_ms);
  }
  tracer.value("ingest.epochs", static_cast<double>(epochs));
}

MetricMap per_layer(const Workload& workload, Tracer& tracer, const Run& traced) {
  MetricMap m;
  const auto p50_us = [&](const char* span) { return median(tracer.durations_us(span)); };
  const auto p50_ms = [&](const char* span) { return median(tracer.durations_ms(span)); };
  const auto mid = [&](const char* value) { return median(tracer.values(value)); };
  const auto avg = [&](const char* value) { return mean(tracer.values(value)); };
  const auto sum = [&](const char* value) {
    double total = 0.0;
    for (const double v : tracer.values(value)) total += v;
    return total;
  };
  m["transport.send_us"] = {p50_us("transport.send"), "us"};
  m["transport.frame_bytes"] = {mid("transport.frame_bytes"), "bytes"};
  m["transport.sse_fanout_ms"] = {mid("transport.sse_fanout_ms"), "ms"};
  m["transport.sse_delivery_us"] = {mid("transport.sse_delivery_us"), "us"};
  m["transport.csv_post_us"] = {p50_us("transport.csv_post"), "us"};
  m["ingest.ack_to_publish_ms"] = {mid("ingest.ack_to_publish_ms"), "ms"};
  m["ingest.timer_wait_ms"] = {mid("ingest.timer_wait_ms"), "ms"};
  m["ingest.rebuild_p50_ms"] = {mid("ingest.rebuild_ms"), "ms"};
  m["ingest.rebuild_tail_ms"] = {percentile(tracer.values("ingest.rebuild_ms"), workload.visible_tail),
                                 "ms"};
  m["ingest.epochs"] = {sum("ingest.epochs"), "count"};
  m["ingest.events_per_epoch"] = {avg("ingest.events_per_epoch"), "events"};
  m["store.append_us"] = {p50_us("store.append"), "us"};
  m["store.wal_bytes_per_event"] = {avg("store.wal_bytes_per_event"), "bytes"};
  m["data.merge_ms"] = {p50_ms("data.merge"), "ms"};
  m["data.shards_rebuilt"] = {avg("data.shards_rebuilt"), "count"};
  m["data.shards_reused"] = {avg("data.shards_reused"), "count"};
  m["mining.mine_ms"] = {p50_ms("mining.mine"), "ms"};
  m["mining.users_per_epoch"] = {avg("mining.users_per_epoch"), "count"};
  m["mining.patterns_emitted"] = {avg("mining.patterns_emitted"), "count"};
  m["mining.patterns_expanded"] = {avg("mining.patterns_expanded"), "count"};
  m["patterns.table_update_ms"] = {p50_ms("patterns.table_update"), "ms"};
  m["patterns.table_mb"] = {avg("patterns.table_mb"), "MB"};
  m["patterns.placement_candidates"] = {avg("patterns.placement_candidates"), "count"};
  m["geo.grid_ms"] = {p50_ms("geo.grid"), "ms"};
  m["geo.grid_rebuilds"] = {sum("geo.grid_rebuilds"), "count"};
  m["crowd.update_ms"] = {p50_ms("crowd.update"), "ms"};
  m["crowd.placements"] = {avg("crowd.placements"), "count"};
  m["crowd.full_rebuild_ms"] = {p50_ms("crowd.full_rebuild"), "ms"};
  m["crowd.full_rebuilds"] = {sum("crowd.full_rebuilds"), "count"};
  const core::PhaseTimings& timings = traced.stack->platform().timings();
  m["core.acquisition_ms"] = {timings.acquisition_ms, "ms"};
  m["core.mining_ms"] = {timings.mining_ms, "ms"};
  m["core.crowd_ms"] = {timings.crowd_ms, "ms"};
  m["core.worker_start_ms"] = {traced.stack->worker_start_ms(), "ms"};
  const ReadBook& book = traced.book;
  m["http.hit_us"] = {p50_us("http.hit"), "us"};
  m["http.miss_ms"] = {p50_ms("http.miss"), "ms"};
  m["http.hit_ratio"] = {book.hits + book.misses > 0
                             ? static_cast<double>(book.hits) /
                                   static_cast<double>(book.hits + book.misses)
                             : 0.0,
                         "ratio"};
  m["http.response_kb"] = {mid("http.response_kb"), "KB"};
  m["http.unchanged_rerenders"] = {book.misses > 0 ? static_cast<double>(book.unchanged_rerenders) /
                                                         static_cast<double>(book.misses)
                                                   : 0.0,
                                   "ratio"};
  for (const char* render :
       {"core.render_crowd", "core.render_geojson", "core.render_groups", "core.render_flow",
        "core.render_user_patterns", "viz.render_crowd_map", "viz.render_flow_map",
        "viz.render_user_graph", "viz.render_timeline", "viz.render_animation"})
    m[std::string(render) + "_ms"] = {p50_ms(render), "ms"};
  m["shard.route_us"] = {p50_us("shard.route"), "us"};
  m["shard.merge_ms"] = {p50_ms("shard.merge"), "ms"};
  m["shard.publish_spread_ms"] = {mid("shard.publish_spread_ms"), "ms"};
  return m;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const MetricMap& metrics) {
  std::string out = crowdweb::format("{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, "
                                     "\"metrics\": {{",
                                     correct ? "true" : "false", attempted, failed);
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    char number[64];
    std::snprintf(number, sizeof number, "%.10g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    out += crowdweb::format("{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", first ? "" : ", ",
                            name, number, metric.unit);
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void print_errors(const Errors& errors) {
  for (std::size_t i = 0; i < errors.size() && i < 20; ++i)
    std::fprintf(stderr, "check failed: %s\n", errors[i].c_str());
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::kError);
  const auto parsed = parse_args(argc, argv);
  if (!parsed) return usage(argv[0]);
  const Args& args = *parsed;
  const Workload& workload = *args.workload;
  pin_cpus(args.cpus);

  const auto generated = workload.routine
                             ? routine_inputs(args.seed, kRoutineUsers, kRoutineBaseDays,
                                              kRoutineFeedDays)
                             : sparse_inputs(args.seed, kSparseUsers);
  if (!generated.is_ok()) {
    std::fprintf(stderr, "corpus: %s\n", generated.status().to_string().c_str());
    return 1;
  }
  const Inputs& inputs = *generated;
  // Hand the generator's freed temporaries back to the system, so
  // peak_rss_mb starts from the inputs alone.
  malloc_trim(0);
  const Feed feed(inputs.feed, workload.batch);
  std::printf("workload %s seed %llu: %zu users x %zu days, %zu feed events, batches of %zu\n",
              workload.name, static_cast<unsigned long long>(args.seed), inputs.users, inputs.days,
              inputs.feed.size(), workload.batch);
  WorkDir work(args.work_dir);

  if (!args.trace) {
    Tracer off(false);
    auto run = measure(args, inputs, feed, args.seconds, off, nullptr, work);
    if (run == nullptr) return 1;
    check_run(*run, feed.batch_size());
    report_tails(workload, *run);
    print_errors(run->errors);
    const MetricMap metrics = end_to_end(workload, *run);
    run->stack.reset();
    print_result(run->errors.empty(), run->attempted, run->failed, metrics);
    return 0;
  }

  // Traced run: the untraced figures first, then the same cycles with
  // spans and publish hooks on, so the overhead is their difference.
  // Each gets a third of the run length, the layer replay the rest.
  const double third = args.seconds / 3;
  Tracer off(false);
  auto untraced = measure(args, inputs, feed, third, off, nullptr, work);
  if (untraced == nullptr) return 1;
  const MetricMap plain = end_to_end(workload, *untraced);
  untraced.reset();

  Tracer tracer(true);
  PublishLog log;
  auto traced = measure(args, inputs, feed, third, tracer, &log, work);
  if (traced == nullptr) return 1;
  const MetricMap with_spans = end_to_end(workload, *traced);
  // The log and the layer replay cover the last cycle.
  const PhaseResult& last = traced->cycles.back();
  const std::vector<ingest::IngestEvent> events = feed.first(last.batches_sent);
  const data::Dataset final_dataset = check_run(*traced, feed.batch_size());
  Errors& errors = traced->errors;
  sweep_renders(traced->stack->platform(), *traced->stack->worker(), tracer, errors);
  frame_path_metrics(last, log, tracer);
  std::vector<std::size_t> epoch_ends;
  for (const PublishLog::Entry& entry : log.entries())
    if (entry.epoch > 1) epoch_ends.push_back(entry.live);
  const std::map<std::string, double> stages = stage_means_ms(traced->stack->metrics());
  traced->stack->stop();
  replay_layers(traced->stack->platform(), events, epoch_ends, final_dataset, work.fresh("layers"),
                third, tracer, errors);

  // The shard layer, which no workload's own stack crosses, gets a short
  // replay on a 4-shard stack.
  shard_side_replay(inputs, feed, 64, stack_options(args, true, work), tracer, errors);

  const MetricMap layers = per_layer(workload, tracer, *traced);
  const std::string trace_path = args.work_dir + "/trace-" + workload.name + "-" +
                                 std::to_string(args.seed) + ".jsonl";
  if (Status written = tracer.write(trace_path); !written.is_ok())
    std::fprintf(stderr, "%s\n", written.to_string().c_str());
  else
    std::printf("spans written to %s\n", trace_path.c_str());

  std::printf("tracing overhead (traced - untraced):\n");
  for (const auto& [name, metric] : plain)
    std::printf("  %-16s %12.4f -> %12.4f %s (%+.4f)\n", name.c_str(), metric.value,
                with_spans.at(name).value, metric.unit.c_str(),
                with_spans.at(name).value - metric.value);
  std::printf("cross-check, crowdweb_ingest_rebuild_stage_duration_seconds mean vs spans:\n");
  const std::map<std::string, std::string> stage_span = {
      {"merge", "data.merge_ms"}, {"mine", "mining.mine_ms"}, {"grid", "geo.grid_ms"},
      {"crowd", "crowd.update_ms"}};
  for (const auto& [stage, mean_ms] : stages)
    std::printf("  %-6s histogram mean %.4f ms, span p50 %s = %.4f ms\n", stage.c_str(), mean_ms,
                stage_span.count(stage) ? stage_span.at(stage).c_str() : "-",
                stage_span.count(stage) ? layers.at(stage_span.at(stage)).value : 0.0);
  report_tails(workload, *traced);
  print_errors(errors);
  print_result(errors.empty(), traced->attempted, traced->failed, layers);
  return 0;
}
