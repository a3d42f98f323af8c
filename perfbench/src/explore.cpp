// Workload explore_zoo: ScheduleExplorer::explore over protocol_zoo() (12
// protocols, default options — nemesis on — 200 seeds each) through a
// RunDriver of 2 workers. Stresses per-seed Cluster construction, the
// crash/partition paths, EventBus recording, thousands of small checks and
// the driver itself.
//
// Timed repetitions call explore() exactly as the explorer's users do.
// Once per run the benchmark also sweeps the same seeds itself, calling
// run_seed through the same driver in explore()'s seed blocks: each call
// is timed (the traced view), and the flight recorder it leaves behind
// yields the simulated latencies, message and lock counts no report
// carries. Its seed lines must equal explore()'s byte for byte.
#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_map>

#include "check/explorer.hpp"
#include "driver/pool.hpp"
#include "layers.hpp"
#include "ledger.hpp"
#include "obs/event_bus.hpp"
#include "txn/cluster.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace atrcp;

constexpr std::size_t kSeedsPerProtocol = 200;
constexpr std::size_t kSmokeSeedsPerProtocol = 4;
constexpr std::size_t kWorkers = 2;
/// explore()'s seed block: seeds per driver job.
constexpr std::size_t kSeedBlock = 8;

std::uint64_t first_seed(const RunConfig& config) {
  return 1 + SplitMix64(config.seed ^ 0xE9A10E5ULL).next() % 1'000'000'000;
}
std::size_t seeds_per_protocol(const RunConfig& config) {
  return config.smoke ? kSmokeSeedsPerProtocol : kSeedsPerProtocol;
}

/// The explorer's world: the zoo, the explorer and its driver.
struct World {
  std::vector<ZooEntry> zoo = protocol_zoo();
  ScheduleExplorer explorer{ExplorerOptions{}};
  RunDriver driver{kWorkers};
};

/// What the sweep builds before a seed's first transaction: the world, a
/// worker's scratch flight recorder, and one cluster per zoo protocol
/// shaped like run_seed's (its clients, history recording, reused bus).
struct SetUp {
  World world;
  std::unique_ptr<EventBus> bus = world.explorer.make_scratch_bus();
  std::vector<std::unique_ptr<Cluster>> clusters;

  explicit SetUp(std::uint64_t seed) {
    for (const ZooEntry& entry : world.zoo) {
      ClusterOptions options;
      options.seed = seed;
      options.clients = world.explorer.options().clients;
      options.record_history = true;
      options.external_events = bus.get();
      clusters.push_back(std::make_unique<Cluster>(entry.factory(), options));
    }
  }
};

/// Fold of explore()'s per-seed lines ("seed=N ok commit=C abort=A ...").
void tally_line(Counts& counts, const std::string& line) {
  unsigned long long seed = 0, commit = 0, abort = 0, block = 0;
  char verdict[8] = {0};
  if (std::sscanf(line.c_str(), "seed=%llu %7s commit=%llu abort=%llu block=%llu",
                  &seed, verdict, &commit, &abort, &block) != 5) {
    return;
  }
  counts.committed += commit;
  counts.aborted += abort;
  counts.blocked += block;
  counts.history += commit + abort + block;
  counts.digest = fnv1a(line + "\n", counts.digest);
}

struct Repetition {
  double setup_s = 0;
  double sweep_s = 0;
  Counts counts;
  std::size_t failing_seeds = 0;
  std::string failures;  ///< the failing protocols' reports
};

Repetition run_explore_once(const RunConfig& config) {
  Repetition rep;
  const auto setup_start = Clock::now();
  const SetUp setup(first_seed(config));
  rep.setup_s = seconds_since(setup_start);
  const World& world = setup.world;
  const std::size_t seeds = seeds_per_protocol(config);
  const auto start = Clock::now();
  std::vector<ExploreReport> reports;
  for (const ZooEntry& entry : world.zoo) {
    reports.push_back(world.explorer.explore(entry.factory, entry.label,
                                             first_seed(config), seeds, false,
                                             &world.driver));
  }
  rep.sweep_s = seconds_since(start);
  rep.counts.digest = fnv1a("");
  for (const ExploreReport& report : reports) {
    std::size_t pos = 0;
    while (pos < report.text.size()) {
      std::size_t eol = report.text.find('\n', pos);
      if (eol == std::string::npos) eol = report.text.size();
      tally_line(rep.counts, report.text.substr(pos, eol - pos));
      pos = eol + 1;
    }
    rep.failing_seeds += report.failing_seeds.size();
    if (!report.ok) rep.failures += report.text;
  }
  rep.counts.issued = world.zoo.size() * seeds *
                      world.explorer.options().clients *
                      world.explorer.options().txns_per_client;
  return rep;
}

/// One run_seed call as the benchmark's own sweep saw it.
struct SeedTrace {
  SeedReport report;
  std::uint64_t ns = 0;        ///< the run_seed call
  std::uint64_t scan_ns = 0;   ///< reading its flight recorder back
  std::uint64_t setup_ns = 0;  ///< the block's scratch bus (first seed)
  std::vector<std::uint64_t> latencies;  ///< committed, simulated us
  EventTally tally;
  /// Deliveries by message type, to replica sites and to other sites.
  std::array<std::vector<std::pair<std::string, std::uint64_t>>, 2> deliveries;
  bool overflow = false;  ///< the flight recorder evicted records
};

SeedTrace trace_seed(const ScheduleExplorer& explorer, const ZooEntry& entry,
                     std::size_t replicas, std::uint64_t seed, EventBus& bus) {
  SeedTrace out;
  const auto start = Clock::now();
  out.report = explorer.run_seed(entry.factory, seed, &bus);
  out.ns = ns_between(start, Clock::now());
  out.overflow = bus.total_published() > bus.size();
  const auto scan_start = Clock::now();
  std::unordered_map<std::uint64_t, std::uint64_t> begun;
  for (std::size_t i = 0; i < bus.size(); ++i) {
    const Event& event = bus.at(i);
    out.tally.add(event);
    if (event.kind == EventKind::kTxnBegin) {
      begun[event.txn_id] = event.time;
    } else if (event.kind == EventKind::kTxnFinish &&
               event.label == "committed") {
      out.latencies.push_back(event.time - begun.at(event.txn_id));
    } else if (event.kind == EventKind::kMsgDeliver) {
      auto& counts = out.deliveries[event.site < replicas ? 0 : 1];
      auto it = std::find_if(counts.begin(), counts.end(), [&](const auto& c) {
        return c.first == event.label;
      });
      if (it == counts.end()) it = counts.insert(counts.end(), {event.label, 0});
      ++it->second;
    }
  }
  out.scan_ns = ns_between(scan_start, Clock::now());
  return out;
}

struct Sweep {
  double wall_s = 0;
  std::vector<SeedTrace> seeds;  ///< protocol-major, seed order
  RunStats driver;               ///< summed over the per-protocol sweeps
};

Sweep trace_sweep(const RunConfig& config, const World& world) {
  Sweep sweep;
  const std::size_t seeds = seeds_per_protocol(config);
  const std::uint64_t first = first_seed(config);
  const auto start = Clock::now();
  for (const ZooEntry& entry : world.zoo) {
    const std::size_t replicas = entry.factory()->universe_size();
    const std::size_t blocks = (seeds + kSeedBlock - 1) / kSeedBlock;
    RunStats stats;
    const auto traced = world.driver.map<std::vector<SeedTrace>>(
        blocks,
        [&](std::size_t block) {
          const auto start = Clock::now();
          const std::unique_ptr<EventBus> bus = world.explorer.make_scratch_bus();
          const std::uint64_t setup_ns = ns_between(start, Clock::now());
          std::vector<SeedTrace> out;
          for (std::size_t i = block * kSeedBlock;
               i < std::min(seeds, (block + 1) * kSeedBlock); ++i) {
            out.push_back(
                trace_seed(world.explorer, entry, replicas, first + i, *bus));
          }
          out.front().setup_ns = setup_ns;
          return out;
        },
        &stats);
    for (const auto& block : traced) {
      sweep.seeds.insert(sweep.seeds.end(), block.begin(), block.end());
    }
    sweep.driver.workers = std::max(sweep.driver.workers, stats.workers);
    sweep.driver.jobs_run += stats.jobs_run;
    sweep.driver.chunk_claims += stats.chunk_claims;
    sweep.driver.steals += stats.steals;
  }
  sweep.wall_s = seconds_since(start);
  return sweep;
}

}  // namespace

RunResult run_explore(const RunConfig& config) {
  RunResult result;
  const World world;
  const Sweep sweep = trace_sweep(config, world);

  // Deterministic counts of the run_seed sweep, in explore()'s terms.
  Counts traced;
  traced.digest = fnv1a("");
  std::vector<std::uint64_t> latencies;
  EventTally tally;
  std::map<std::string, std::uint64_t> deliveries;
  std::vector<std::uint64_t> seed_ns;
  std::uint64_t total_ns = 0, scan_ns = 0, setup_ns = 0;
  std::uint64_t lin_keys = 0, lin_skipped = 0;
  for (const SeedTrace& seed : sweep.seeds) {
    tally_line(traced, seed.report.line());
    latencies.insert(latencies.end(), seed.latencies.begin(), seed.latencies.end());
    tally.merge(seed.tally);
    for (const auto& [type, count] : seed.deliveries[0]) {
      deliveries["replica." + type] += count;
    }
    for (const auto& [type, count] : seed.deliveries[1]) {
      deliveries["txn." + type] += count;
    }
    seed_ns.push_back(seed.ns);
    total_ns += seed.ns;
    scan_ns += seed.scan_ns;
    setup_ns += seed.setup_ns;
    lin_keys += seed.report.lin_keys_checked;
    lin_skipped += seed.report.lin_keys_skipped;
    if (!seed.report.ok) {
      result.fail("explore_zoo violation: seed " +
                  std::to_string(seed.report.seed) + "\n" + seed.report.detail);
    }
    if (seed.overflow) {
      result.fail("explore_zoo: flight recorder overflowed on seed " +
                  std::to_string(seed.report.seed));
    }
  }
  traced.issued = world.zoo.size() * seeds_per_protocol(config) *
                  world.explorer.options().clients *
                  world.explorer.options().txns_per_client;
  fill_latency(traced, latencies);
  traced.messages = tally.kind(EventKind::kMsgSend);
  traced.dropped = tally.kind(EventKind::kMsgDrop);

  // Timed explore() repetitions.
  std::vector<Counts> counts;
  std::vector<double> setup, sweep_s;
  const double budget = config.trace ? config.seconds / 2 : config.seconds;
  repeat_for(budget, config.trace ? 2 : 3, [&] {
    Repetition rep = run_explore_once(config);
    // The recorder-only fields come from the run_seed sweep.
    rep.counts.messages = traced.messages;
    rep.counts.dropped = traced.dropped;
    rep.counts.lat_p50_us = traced.lat_p50_us;
    rep.counts.lat_p95_us = traced.lat_p95_us;
    rep.counts.lat_p99_us = traced.lat_p99_us;
    rep.counts.lat_samples = traced.lat_samples;
    rep.counts.lat_sum_us = traced.lat_sum_us;
    const std::size_t seeds = world.zoo.size() * seeds_per_protocol(config);
    result.attempted += seeds;
    result.failed += rep.failing_seeds;
    if (!rep.failures.empty()) {
      result.fail("explore_zoo violations:\n" + rep.failures);
    }
    counts.push_back(rep.counts);
    setup.push_back(rep.setup_s);
    sweep_s.push_back(rep.sweep_s);
    char line[64];
    std::snprintf(line, sizeof(line), " setup_s=%.4f sweep_s=%.4f", rep.setup_s,
                  rep.sweep_s);
    result.log.push_back("explore_zoo explore()" + std::string(line));
  });
  result.log.push_back("explore_zoo counts seed=" + std::to_string(config.seed) +
                       " first_explorer_seed=" +
                       std::to_string(first_seed(config)) + " " +
                       counts.front().line());
  guard_counts(result, counts, "explore_zoo explore()");
  counts.push_back(traced);
  guard_counts(result, counts, "explore_zoo run_seed sweep vs explore()");
  if (traced.history != traced.issued) {
    result.fail("explore_zoo: " + std::to_string(traced.issued - traced.history) +
                " transactions left open");
  }

  auto& m = result.metrics;
  const Counts& c = counts.front();
  if (!config.trace) {
    const double seeds = world.zoo.size() * seeds_per_protocol(config);
    m["setup_s"] = fastest(setup);
    m["wall_s"] = fastest(sweep_s);
    m["commit_per_s"] = c.committed / m["wall_s"];
    m["check_txn_per_s"] = c.history / m["wall_s"];
    m["seeds_per_s"] = seeds / m["wall_s"];
    m["commit_frac"] =
        static_cast<double>(c.committed) / static_cast<double>(c.issued);
    m["sim_lat_mean_us"] = c.lat_mean_us();
    m["sim_lat_p95_us"] = static_cast<double>(c.lat_p95_us);
    m["peak_rss_mib"] = peak_rss_mib();
    return result;
  }

  const double commits = static_cast<double>(c.committed);
  const auto per = [](double value, double base) {
    return base > 0 ? value / base : 0.0;
  };
  m["explore.seed_ms_p50"] = nearest_rank(seed_ns, 0.50) / 1e6;
  m["explore.seed_ms_p99"] = nearest_rank(seed_ns, 0.99) / 1e6;
  m["driver.speedup"] = total_ns / 1e9 / sweep.wall_s;
  m["driver.steals"] = static_cast<double>(sweep.driver.steals);
  m["driver.chunk_claims"] = static_cast<double>(sweep.driver.chunk_claims);
  m["check.history_txns"] = static_cast<double>(c.history);
  m["check.lin_keys"] = static_cast<double>(lin_keys);
  m["check.lin_skipped"] = static_cast<double>(lin_skipped);
  m["sim.lat_samples"] = static_cast<double>(c.lat_samples);
  m["sim.lat_p50_us"] = static_cast<double>(c.lat_p50_us);
  m["sim.lat_p99_us"] = static_cast<double>(c.lat_p99_us);
  m["net.msgs_per_commit"] = per(traced.messages, commits);
  m["net.drop_frac"] = per(traced.dropped, traced.messages);
  m["txn.failed_frac"] = per(c.aborted + c.blocked, c.issued);
  m["txn.lock_waits_per_commit"] = per(tally.lock_waits(), commits);
  m["txn.reassembly_per_commit"] =
      per(tally.kind(EventKind::kQuorumReassembly), commits);
  for (const char* type : kReplicaTypes) {
    m[std::string("replica.") + type + ".count"] =
        deliveries[std::string("replica.") + type];
  }
  for (const char* type : kReplyTypes) {
    m[std::string("txn.") + type + ".count"] =
        deliveries[std::string("txn.") + type];
  }
  std::vector<std::unique_ptr<ReplicaControlProtocol>> protocols;
  std::vector<const ReplicaControlProtocol*> views;
  for (const ZooEntry& entry : world.zoo) {
    protocols.push_back(entry.factory());
    views.push_back(protocols.back().get());
  }
  time_assembly(views, {}, config.seed, m);
  // Against the explore() repetition that ran right after the sweep, so
  // both saw the same host speed.
  m["trace.overhead_frac"] = sweep.wall_s / sweep_s.front() - 1.0;
  // Worker time: the sweep's wall time on every worker. What the layers
  // below do not cover is the driver's scheduling and idle tail.
  const double worker_ns =
      sweep.wall_s * 1e9 * static_cast<double>(sweep.driver.workers);
  m["trace.unattributed_frac"] = 1.0 - (total_ns + setup_ns + scan_ns) / worker_ns;
  char line[160];
  std::snprintf(line, sizeof(line), " wall_s=%.4f workers=%zu jobs=%zu",
                sweep.wall_s, sweep.driver.workers, sweep.driver.jobs_run);
  result.log.push_back("explore_zoo run_seed sweep" + std::string(line));
  const std::pair<const char*, std::uint64_t> layers[] = {
      {"explore.run_seed", total_ns},
      {"explore.block_setup", setup_ns},
      {"trace.recorder_scan", scan_ns}};
  for (const auto& [layer, ns] : layers) {
    std::snprintf(line, sizeof(line), " self_ms=%.3f share=%.4f", ns / 1e6,
                  ns / worker_ns);
    result.log.push_back("  layer " + std::string(layer) + line);
  }
  // run_seed builds and steps its clusters internally: the per-event and
  // registry layers are not observable from outside on this workload.
  not_exercised(result, {"sim.", "replica.", "txn.", "obs.", "check.",
                         "keyspace."});
  return result;
}

}  // namespace perfbench
