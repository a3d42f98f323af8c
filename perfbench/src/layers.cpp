#include "layers.hpp"

#include <cstdio>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace atrcp;

constexpr std::size_t kAssembleCalls = 2000;

std::string format(const char* fmt, double a, double b, double c) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer), fmt, a, b, c);
  return buffer;
}

/// Hands the freed heap of the last repetition back to the system, so
/// every repetition starts from the same allocator state: without it,
/// construction after a torn-down n = 16384 cluster swings between ~10 ms
/// and ~150 ms.
void release_heap() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

void gate(RunResult& result, const SimRepetition& rep) {
  ++result.attempted;
  if (!rep.failure.empty()) {
    ++result.failed;
    result.fail(rep.failure);
  }
}

}  // namespace

RunResult drive_simulation(const RunConfig& config, const std::string& name,
                           const SimOnce& once,
                           const std::vector<std::string>& not_on_path) {
  RunResult result;
  std::vector<SimRepetition> untraced;
  std::vector<Counts> counts;
  std::vector<std::map<std::string, double>> traced;

  const auto run_untraced = [&] {
    SimRepetition rep = once(nullptr, nullptr);
    release_heap();
    gate(result, rep);
    counts.push_back(rep.counts);
    result.log.push_back(
        name + " untraced" +
        format(" setup_s=%.4f sim_s=%.4f check_s=%.4f", rep.setup_s, rep.sim_s,
               rep.check_s));
    untraced.push_back(std::move(rep));
  };
  // A traced repetition, compared with the untraced one just before it.
  const auto run_traced = [&] {
    Ledger ledger;
    std::map<std::string, double> layers;
    const SimRepetition rep = once(&ledger, &layers);
    release_heap();
    gate(result, rep);
    counts.push_back(rep.counts);
    const SimRepetition& base = untraced.back();
    const double work_s = rep.sim_s + rep.check_s;
    simulation_layer_metrics(ledger, rep.counts, base.sim_s, layers);
    const auto ms = [&](const char* layer) {
      return static_cast<double>(ledger.layer(layer).ns) / 1e6;
    };
    layers["check.merge_ms"] = ms("check.merge");
    layers["check.serializability_ms"] = ms("check.serializability");
    layers["check.lin_ms"] = ms("check.lin");
    const Ledger::Slot route = ledger.layer("keyspace.route");
    if (route.count > 0) {
      layers["keyspace.route_ns"] =
          static_cast<double>(route.ns) / static_cast<double>(route.count);
    }
    layers["trace.overhead_frac"] = work_s / (base.sim_s + base.check_s) - 1.0;
    layers["trace.unattributed_frac"] =
        1.0 - static_cast<double>(ledger.total_ns()) / (work_s * 1e9);
    result.log.push_back(
        name + " traced" +
        format(" work_s=%.4f attributed_s=%.4f unattributed_frac=%.4f", work_s,
               static_cast<double>(ledger.total_ns()) / 1e9,
               layers["trace.unattributed_frac"]));
    for (const auto& [layer, slot] : ledger.layers()) {
      result.log.push_back(
          "  layer " + layer +
          format(" self_ms=%.3f count=%.0f share=%.4f", slot.ns / 1e6,
                 static_cast<double>(slot.count), slot.ns / (work_s * 1e9)));
    }
    traced.push_back(std::move(layers));
  };

  if (config.trace) {
    // Alternating, so both kinds of repetition see the same host speed.
    repeat_for(config.seconds, 2, [&] {
      run_untraced();
      run_traced();
    });
  } else {
    repeat_for(config.seconds, 3, run_untraced);
  }
  result.log.push_back(name + " counts seed=" + std::to_string(config.seed) +
                       " " + counts.front().line());
  guard_counts(result, counts, name + " repetitions, traced and untraced");

  if (config.trace) {
    result.metrics = median_metrics(traced);
    not_exercised(result, not_on_path);
    return result;
  }
  std::vector<double> setup, sim, check, wall;
  for (const SimRepetition& rep : untraced) {
    setup.push_back(rep.setup_s);
    sim.push_back(rep.sim_s);
    check.push_back(rep.check_s);
    wall.push_back(rep.sim_s + rep.check_s);
  }
  const Counts& c = counts.front();
  auto& m = result.metrics;
  m["setup_s"] = fastest(setup);
  m["wall_s"] = fastest(wall);
  m["commit_per_s"] = c.committed / fastest(sim);
  m["check_txn_per_s"] = c.history / fastest(check);
  m["seeds_per_s"] = 1.0 / m["wall_s"];
  m["commit_frac"] =
      static_cast<double>(c.committed) / static_cast<double>(c.issued);
  m["sim_lat_mean_us"] = c.lat_mean_us();
  m["sim_lat_p95_us"] = static_cast<double>(c.lat_p95_us);
  m["peak_rss_mib"] = peak_rss_mib();
  return result;
}

void tally_histories(Counts& counts,
                     const std::vector<const HistoryRecorder*>& histories) {
  std::vector<std::uint64_t> latencies;
  for (const HistoryRecorder* history : histories) {
    for (const HistoryTxn& txn : history->txns()) {
      ++counts.history;
      switch (txn.outcome) {
        case HistoryOutcome::kCommitted:
          ++counts.committed;
          latencies.push_back(txn.span.total_latency());
          break;
        case HistoryOutcome::kAborted: ++counts.aborted; break;
        case HistoryOutcome::kBlocked: ++counts.blocked; break;
      }
    }
  }
  fill_latency(counts, latencies);
}

void observe_registries(const std::vector<const MetricsRegistry*>& registries,
                        std::map<std::string, double>& layers) {
  double series = 0;
  std::uint64_t export_ns = 0;
  for (const MetricsRegistry* registry : registries) {
    series += static_cast<double>(
        registry->counter_count() + registry->gauge_count() +
        registry->histogram_count() + registry->qsketch_count());
    const auto start = Clock::now();
    registry->to_json_string();
    export_ns += ns_between(start, Clock::now());
  }
  layers["obs.series"] = series;
  layers["obs.export_ms"] = static_cast<double>(export_ns) / 1e6;
}

void time_assembly(const std::vector<const ReplicaControlProtocol*>& protocols,
                   const std::vector<ReplicaId>& failed, std::uint64_t seed,
                   std::map<std::string, double>& layers) {
  Rng rng(seed ^ 0xA55E3B1EULL);
  std::uint64_t read_ns = 0, write_ns = 0, read_members = 0, write_members = 0;
  std::uint64_t reads = 0, writes = 0;
  for (const ReplicaControlProtocol* protocol : protocols) {
    FailureSet failures(protocol->universe_size());
    for (const ReplicaId replica : failed) failures.fail(replica);
    auto start = Clock::now();
    for (std::size_t i = 0; i < kAssembleCalls; ++i) {
      if (const auto q = protocol->assemble_read_quorum(failures, rng)) {
        read_members += q->size();
        ++reads;
      }
    }
    auto mid = Clock::now();
    for (std::size_t i = 0; i < kAssembleCalls; ++i) {
      if (const auto q = protocol->assemble_write_quorum(failures, rng)) {
        write_members += q->size();
        ++writes;
      }
    }
    read_ns += ns_between(start, mid);
    write_ns += ns_between(mid, Clock::now());
  }
  const double calls = static_cast<double>(kAssembleCalls * protocols.size());
  layers["quorum.read_assemble_ns"] = read_ns / calls;
  layers["quorum.write_assemble_ns"] = write_ns / calls;
  layers["quorum.read_size"] = reads ? double(read_members) / reads : 0.0;
  layers["quorum.write_size"] = writes ? double(write_members) / writes : 0.0;
}

}  // namespace perfbench
