// Workload bigtree_read90: one Algorithm 1 cluster at n = 16384, four
// closed-loop clients, 90% single-key reads over 64 uniform keys, replica 3
// crashed transiently at 40 ms for 120 ms. Large n makes per-event
// substrate and metrics cost dominate the wall time.
//
// Untraced repetitions run the library's run_workload; traced ones drive
// the same four client loops through Coordinator::run and step the
// scheduler through the ledger. The recorded history is checked
// (SerializabilityChecker::check plus per-key linearizability) after
// every repetition.
#include <memory>
#include <string>

#include "check/serializability.hpp"
#include "core/config.hpp"
#include "core/quorums.hpp"
#include "layers.hpp"
#include "txn/cluster.hpp"
#include "txn/workload.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace atrcp;

constexpr std::size_t kSites = 16384;
constexpr std::size_t kClients = 4;
constexpr std::size_t kTxnsPerClient = 500;
constexpr std::size_t kSmokeTxnsPerClient = 8;
constexpr ReplicaId kCrashedReplica = 3;
constexpr SimTime kCrashAt = 40'000;
constexpr SimTime kCrashFor = 120'000;
constexpr std::size_t kMaxLinOps = 48;

struct Plan {
  ClusterOptions cluster;
  WorkloadOptions workload;
};

Plan make_plan(const RunConfig& config, bool traced) {
  SplitMix64 streams(config.seed ^ 0xB16EE90ULL);
  Plan plan;
  plan.cluster.seed = streams.next();
  plan.cluster.clients = kClients;
  plan.cluster.link = LinkParams{.base_latency = 50, .jitter = 10};
  plan.cluster.record_history = true;
  plan.cluster.event_bus_capacity = traced ? kTraceBusCapacity : 0;
  plan.workload.transactions_per_client =
      config.smoke ? kSmokeTxnsPerClient : kTxnsPerClient;
  plan.workload.ops_per_txn = 1;
  plan.workload.read_fraction = 0.9;
  plan.workload.num_keys = 64;
  plan.workload.zipf_exponent = 0.0;
  plan.workload.seed = streams.next();
  return plan;
}

std::unique_ptr<Cluster> build(const Plan& plan) {
  auto cluster = std::make_unique<Cluster>(make_arbitrary(kSites), plan.cluster);
  cluster->injector().transient_failure(kCrashAt, kCrashedReplica, kCrashFor);
  return cluster;
}

/// The closed loop of run_workload (txn/workload.cpp), issued through
/// Coordinator::run: the same per-client Rng forks, key draws and values,
/// so a traced repetition replays the untraced schedule event for event.
class ClientLoops {
 public:
  ClientLoops(Cluster& cluster, const WorkloadOptions& options)
      : cluster_(cluster),
        options_(options),
        keys_(options.num_keys, options.zipf_exponent) {
    Rng seeder(options.seed);
    for (std::size_t c = 0; c < cluster.client_count(); ++c) {
      loops_.push_back({seeder.fork(), 0});
    }
  }

  void start() {
    for (std::size_t c = 0; c < loops_.size(); ++c) issue(c);
  }

 private:
  struct Loop {
    Rng rng;
    std::size_t issued;
  };

  void issue(std::size_t c) {
    Loop& loop = loops_[c];
    if (loop.issued >= options_.transactions_per_client) return;
    ++loop.issued;
    std::vector<TxnOp> ops;
    for (std::size_t i = 0; i < options_.ops_per_txn; ++i) {
      const Key key = static_cast<Key>(keys_.sample(loop.rng));
      if (loop.rng.chance(options_.read_fraction)) {
        ops.push_back(TxnOp::read(key));
      } else {
        std::string value = "c";  // "c<client>-t<txn>-o<op>", as run_workload
        value += std::to_string(c);
        value += "-t";
        value += std::to_string(loop.issued);
        value += "-o";
        value += std::to_string(i);
        ops.push_back(TxnOp::write(key, std::move(value)));
      }
    }
    cluster_.client(c).run(std::move(ops), [this, c](TxnResult) { issue(c); });
  }

  Cluster& cluster_;
  const WorkloadOptions& options_;
  ZipfSampler keys_;
  std::vector<Loop> loops_;
};

struct HistoryCheck {
  bool ok = true;
  std::string report;
  std::uint64_t lin_keys = 0;
  std::uint64_t lin_skipped = 0;
};

/// SerializabilityChecker::check plus per-key linearizability over one
/// cluster's history, each phase booked to the ledger when tracing.
HistoryCheck check_history(const std::vector<HistoryTxn>& txns,
                           Ledger* ledger) {
  HistoryCheck out;
  const auto phase = [ledger](const char* layer, auto&& fn) {
    if (ledger != nullptr) {
      ledger->timed(layer, fn);
    } else {
      fn();
    }
  };
  std::unique_ptr<SerializabilityChecker> checker;
  phase("check.serializability", [&] {
    checker = std::make_unique<SerializabilityChecker>(txns);
    const CheckResult serial = checker->check();
    if (!serial.ok) {
      out.ok = false;
      out.report += serial.report;
    }
  });
  phase("check.lin", [&] {
    for (const Key key : checker->keys()) {
      const LinResult lin = checker->check_key_linearizable(key, kMaxLinOps);
      if (lin.skipped) {
        ++out.lin_skipped;
        continue;
      }
      ++out.lin_keys;
      if (!lin.ok) {
        out.ok = false;
        out.report += lin.report;
      }
    }
  });
  return out;
}

SimRepetition run_once(const RunConfig& config, Ledger* ledger,
                       std::map<std::string, double>* layers) {
  const Plan plan = make_plan(config, ledger != nullptr);
  SimRepetition rep;
  const auto t0 = Clock::now();
  const std::unique_ptr<Cluster> cluster = build(plan);
  const auto t1 = Clock::now();
  if (ledger == nullptr) {
    run_workload(*cluster, plan.workload);
  } else {
    ClientLoops loops(*cluster, plan.workload);
    ledger->timed("txn.issue", [&] { loops.start(); });
    while (ledger->step(cluster->scheduler(), *cluster->events(), kSites)) {
    }
  }
  const auto t2 = Clock::now();
  const HistoryCheck check = check_history(cluster->history().txns(), ledger);
  const auto t3 = Clock::now();
  rep.setup_s = seconds_between(t0, t1);
  rep.sim_s = seconds_between(t1, t2);
  rep.check_s = seconds_between(t2, t3);

  Counts& counts = rep.counts;
  counts.events = cluster->scheduler().executed();
  counts.messages = cluster->network().messages_sent();
  counts.dropped = cluster->network().messages_dropped();
  counts.issued = kClients * plan.workload.transactions_per_client;
  tally_histories(counts, {&cluster->history()});
  counts.digest = fnv1a(std::to_string(check.lin_keys) + "/" +
                        std::to_string(check.lin_skipped));

  if (!check.ok) rep.failure = "history check: " + check.report;
  if (cluster->history().open_count() != 0 || counts.history != counts.issued) {
    rep.failure += "open transactions: issued=" + std::to_string(counts.issued) +
                   " finished=" + std::to_string(counts.history) +
                   " open=" + std::to_string(cluster->history().open_count());
  }
  if (layers != nullptr) {
    (*layers)["check.history_txns"] = static_cast<double>(counts.history);
    (*layers)["check.lin_keys"] = static_cast<double>(check.lin_keys);
    (*layers)["check.lin_skipped"] = static_cast<double>(check.lin_skipped);
    (*layers)["keyspace.hot_shard_share"] = 1.0;  // one cluster serves all
    observe_registries({&cluster->metrics()}, *layers);
    // Assembly as the coordinators see it inside the crash window.
    time_assembly({&cluster->protocol()}, {kCrashedReplica}, config.seed,
                  *layers);
  }
  return rep;
}

}  // namespace

RunResult run_bigtree(const RunConfig& config) {
  return drive_simulation(
      config, "bigtree_read90",
      [&](Ledger* ledger, std::map<std::string, double>* layers) {
        return run_once(config, ledger, layers);
      },
      {"explore.", "driver.", "keyspace.route_ns", "check.merge_ms"});
}

}  // namespace perfbench
