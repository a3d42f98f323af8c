// What the two simulation workloads (bigtree_read90, ycsb_a_64k) share:
// the repetition loop that yields the end-to-end metrics (untraced) or the
// per-layer ledger (traced), and the per-layer probes timed as calls —
// registry export and quorum assembly.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "check/history.hpp"
#include "common.hpp"
#include "ledger.hpp"
#include "obs/metrics.hpp"
#include "protocols/protocol.hpp"

namespace perfbench {

/// Flight-recorder ring of a traced repetition; far above the records one
/// scheduler step publishes, so step() always sees all of them.
inline constexpr std::size_t kTraceBusCapacity = 1 << 14;

/// One repetition of a simulation workload.
struct SimRepetition {
  double setup_s = 0;  ///< cluster/keyspace construction
  double sim_s = 0;    ///< issuing and running every transaction
  double check_s = 0;  ///< history check
  Counts counts;
  std::string failure;  ///< empty when every gate passed
};

/// Runs one repetition; traced when `ledger` is non-null, and then also
/// fills `layers` with the probes only the workload can take (check sizes,
/// registry export, quorum assembly, keyspace balance).
using SimOnce = std::function<SimRepetition(
    Ledger* ledger, std::map<std::string, double>* layers)>;

/// Untraced repetitions for the whole budget (trace 0), or untraced and
/// traced repetitions in turn (trace 1); gates every repetition and
/// requires all of them to share one set of deterministic counts.
RunResult drive_simulation(const RunConfig& config, const std::string& name,
                           const SimOnce& once,
                           const std::vector<std::string>& not_on_path);

/// committed/aborted/blocked/history and committed-latency percentiles of
/// the given histories.
void tally_histories(Counts& counts,
                     const std::vector<const atrcp::HistoryRecorder*>& histories);

/// obs.series (distinct registry names, summed) and obs.export_ms
/// (MetricsRegistry::to_json, summed) over the workload's registries.
void observe_registries(const std::vector<const atrcp::MetricsRegistry*>& registries,
                        std::map<std::string, double>& layers);

/// quorum.{read,write}_assemble_ns and quorum.{read,write}_size: mean over
/// timed assemble_*_quorum calls on each protocol with the replicas in
/// `failed` down.
void time_assembly(const std::vector<const atrcp::ReplicaControlProtocol*>& protocols,
                   const std::vector<atrcp::ReplicaId>& failed,
                   std::uint64_t seed, std::map<std::string, double>& layers);

}  // namespace perfbench
