// Workload ycsb_a_64k: a ShardedKeyspace of 8 home shards, each an n = 64
// Algorithm 1 tree, four closed-loop clients running YCSB-A (50% reads,
// 50% updates, scrambled Zipf 0.99) over 65536 records with history
// recorded; check_keyspace_histories checks the merged history after every
// repetition. Small n keeps per-link observation cheap, so the lock
// manager and the checker carry the wall time.
//
// Untraced repetitions run the library's run_keyspace_workload; traced
// ones replay its single-batch loop through ShardedKeyspace::route and
// Coordinator::run, pump each shard through the ledger in the runner's
// round-robin chunks, and time the checker pipeline phase by phase.
#include <algorithm>
#include <memory>
#include <string>

#include "check/serializability.hpp"
#include "core/config.hpp"
#include "core/quorums.hpp"
#include "keyspace/keyspace.hpp"
#include "keyspace/multi_history.hpp"
#include "layers.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace atrcp;

constexpr std::size_t kShards = 8;
constexpr std::size_t kShardSites = 64;
constexpr std::size_t kClients = 4;
constexpr std::uint64_t kRecords = 65536;
constexpr std::size_t kOpsPerClient = 4096;
constexpr std::size_t kSmokeOpsPerClient = 64;
constexpr std::size_t kMaxLinOps = 48;
/// run_keyspace_workload's round-robin pumping chunk.
constexpr std::size_t kPumpChunk = 1024;

struct Plan {
  KeyspaceOptions keyspace;
  KeyspaceRunOptions run;
};

Plan make_plan(const RunConfig& config, bool traced) {
  SplitMix64 streams(config.seed ^ 0xC5B4A64ULL);
  Plan plan;
  plan.keyspace.shards = kShards;
  plan.keyspace.shard_protocol = [] { return make_arbitrary(kShardSites); };
  plan.keyspace.clients = kClients;
  plan.keyspace.seed = streams.next();
  plan.keyspace.link = LinkParams{.base_latency = 50, .jitter = 10};
  plan.keyspace.record_history = true;
  plan.keyspace.event_bus_capacity = traced ? kTraceBusCapacity : 0;
  plan.run.mix = standard_mixes().front();  // ycsb_a
  plan.run.records = kRecords;
  plan.run.ops_per_client = config.smoke ? kSmokeOpsPerClient : kOpsPerClient;
  plan.run.workload_seed = streams.next();
  return plan;
}

/// run_keyspace_workload (keyspace/keyspace.cpp) for a single batch
/// without a light shard — every YCSB-A op is one single-key transaction —
/// with routing, issuing and every scheduler step booked to the ledger.
KeyspaceStats run_traced(ShardedKeyspace& keyspace,
                         const KeyspaceRunOptions& options, Ledger& ledger) {
  KeyspaceWorkloadOptions generator_options;
  generator_options.mix = options.mix;
  generator_options.records = options.records;
  generator_options.clients = kClients;
  generator_options.ops_per_client = options.ops_per_client;
  generator_options.seed = options.workload_seed;
  KeyspaceWorkloadGenerator generator(generator_options);

  KeyspaceStats stats;
  stats.txns_per_cluster.assign(keyspace.cluster_count(), 0);
  struct Client {
    std::size_t issued = 0;
    std::uint64_t value_seq = 0;
    bool pending = false;
  };
  std::vector<Client> clients(kClients);
  const auto on_done = [&stats](Client* client, TxnResult result) {
    client->pending = false;
    switch (result.outcome) {
      case TxnOutcome::kCommitted: ++stats.committed; break;
      case TxnOutcome::kAborted: ++stats.aborted; break;
      case TxnOutcome::kBlocked: ++stats.blocked; break;
    }
  };

  for (;;) {
    bool busy = false;
    bool progressed = false;
    for (std::size_t c = 0; c < kClients; ++c) {
      Client& client = clients[c];
      if (!client.pending && client.issued < options.ops_per_client) {
        const KeyspaceOp op = generator.next(c);
        ++stats.issued;
        ++stats.ops_by_kind[static_cast<std::size_t>(op.kind)];
        ++client.issued;
        const bool write = op.kind != KeyspaceOp::Kind::kRead;
        std::vector<TxnOp> ops;
        if (write) {
          std::string value = "c";  // "c<client>#<seq>", as the runner
          value += std::to_string(c);
          value += "#";
          value += std::to_string(client.value_seq++);
          ops.push_back(TxnOp::write(op.key, std::move(value)));
        } else {
          ops.push_back(TxnOp::read(op.key));
        }
        keyspace.hotness().record(op.key);
        const std::size_t idx = ledger.timed(
            "keyspace.route", [&] { return keyspace.route(op.key, write); });
        ++stats.txns;
        ++stats.txns_per_cluster[idx];
        client.pending = true;
        Client* client_ptr = &client;
        ledger.timed("txn.issue", [&] {
          keyspace.cluster(idx).client(c).run(
              std::move(ops), [&on_done, client_ptr](TxnResult result) {
                on_done(client_ptr, std::move(result));
              });
        });
        progressed = true;
      }
      if (client.pending || client.issued < options.ops_per_client) busy = true;
    }
    if (!busy) break;
    std::uint64_t executed = 0;
    for (std::size_t i = 0; i < keyspace.cluster_count(); ++i) {
      Cluster& cluster = keyspace.cluster(i);
      for (std::size_t n = 0; n < kPumpChunk; ++n) {
        if (!ledger.step(cluster.scheduler(), *cluster.events(), kShardSites)) {
          break;
        }
        ++executed;
      }
    }
    if (executed == 0 && !progressed) {
      throw std::logic_error("ycsb_a_64k: stalled with transactions in flight");
    }
  }
  // settle_all: drain every shard to a fixpoint.
  for (bool drained = false; !drained;) {
    drained = true;
    for (std::size_t i = 0; i < keyspace.cluster_count(); ++i) {
      Cluster& cluster = keyspace.cluster(i);
      while (ledger.step(cluster.scheduler(), *cluster.events(), kShardSites)) {
        drained = false;
      }
    }
  }
  stats.batches = 1;
  return stats;
}

/// check_keyspace_histories (keyspace/multi_history.cpp) with no remapped
/// keys, one ledger layer per phase.
KeyspaceCheckResult check_traced(const std::vector<const HistoryRecorder*>& shards,
                                 Ledger& ledger) {
  KeyspaceCheckResult out;
  const MergedKeyspaceHistory merged = ledger.timed(
      "check.merge", [&] { return merge_keyspace_histories(shards, {}); });
  for (const std::string& violation : merged.routing_violations) {
    out.ok = false;
    out.report += violation + "\n";
  }
  ledger.timed("check.serializability", [&] {
    const CheckResult serial = SerializabilityChecker(merged.txns).check();
    if (!serial.ok) {
      out.ok = false;
      out.report += serial.report;
    }
  });
  ledger.timed("check.lin", [&] {
    for (std::size_t s = 0; s < shards.size(); ++s) {
      const SerializabilityChecker checker(shards[s]->txns());
      for (const Key key : checker.keys()) {
        const LinResult lin = checker.check_key_linearizable(key, kMaxLinOps);
        if (lin.skipped) {
          ++out.lin_keys_skipped;
          continue;
        }
        ++out.lin_keys_checked;
        if (!lin.ok) {
          out.ok = false;
          out.report += "shard " + std::to_string(s) + ": " + lin.report;
        }
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
  ShardedKeyspace keyspace(plan.keyspace);
  const auto t1 = Clock::now();
  const KeyspaceStats stats = ledger == nullptr
                                  ? run_keyspace_workload(keyspace, plan.run)
                                  : run_traced(keyspace, plan.run, *ledger);
  const auto t2 = Clock::now();
  const KeyspaceCheckResult check =
      ledger == nullptr
          ? check_keyspace_histories(keyspace.histories(), {}, kMaxLinOps)
          : check_traced(keyspace.histories(), *ledger);
  const auto t3 = Clock::now();
  rep.setup_s = seconds_between(t0, t1);
  rep.sim_s = seconds_between(t1, t2);
  rep.check_s = seconds_between(t2, t3);

  Counts& counts = rep.counts;
  std::vector<const MetricsRegistry*> registries;
  std::size_t open = 0;
  for (std::size_t i = 0; i < keyspace.cluster_count(); ++i) {
    Cluster& cluster = keyspace.cluster(i);
    counts.events += cluster.scheduler().executed();
    counts.messages += cluster.network().messages_sent();
    counts.dropped += cluster.network().messages_dropped();
    open += cluster.history().open_count();
    registries.push_back(&cluster.metrics());
  }
  counts.issued = stats.txns;
  tally_histories(counts, keyspace.histories());
  counts.digest = fnv1a(stats.line() + " lin=" +
                        std::to_string(check.lin_keys_checked) + "/" +
                        std::to_string(check.lin_keys_skipped));

  if (!check.ok) rep.failure = "keyspace check: " + check.report;
  if (open != 0 || counts.history != counts.issued ||
      counts.committed + counts.aborted + counts.blocked != stats.txns) {
    rep.failure += "open transactions: issued=" + std::to_string(stats.txns) +
                   " finished=" + std::to_string(counts.history) +
                   " open=" + std::to_string(open);
  }
  if (layers != nullptr) {
    (*layers)["check.history_txns"] = static_cast<double>(counts.history);
    (*layers)["check.lin_keys"] = static_cast<double>(check.lin_keys_checked);
    (*layers)["check.lin_skipped"] = static_cast<double>(check.lin_keys_skipped);
    const std::uint64_t hottest = *std::max_element(
        stats.txns_per_cluster.begin(), stats.txns_per_cluster.end());
    (*layers)["keyspace.hot_shard_share"] =
        static_cast<double>(hottest) / static_cast<double>(stats.txns);
    observe_registries(registries, *layers);
    time_assembly({&keyspace.cluster(0).protocol()}, {}, config.seed, *layers);
  }
  return rep;
}

}  // namespace

RunResult run_ycsb(const RunConfig& config) {
  return drive_simulation(
      config, "ycsb_a_64k",
      [&](Ledger* ledger, std::map<std::string, double>* layers) {
        return run_once(config, ledger, layers);
      },
      {"explore.", "driver."});
}

}  // namespace perfbench
