// The per-layer cost ledger of a traced run, kept entirely outside the
// simulator: the benchmark executes a cluster one Scheduler::step at a
// time, times each step, and books it to the layer that the step's
// EventBus records name.
//
//   step delivered a message to a replica site   -> replica.<MessageType>
//   step delivered a message to any other site   -> txn.<MessageType>
//   step delivered nothing (timeouts, commit
//   ticks, crash/recover, in-flight drops)       -> sim.timer
//
// Calls the benchmark makes itself (issuing a transaction, routing a key,
// a checker phase) are booked with timed(). Publishing draws no
// randomness and step() runs events in Scheduler::run order, so a traced
// repetition reproduces the untraced one exactly; only wall time differs.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common.hpp"
#include "obs/event_bus.hpp"
#include "sim/scheduler.hpp"

namespace perfbench {

/// Counts of flight-recorder records by kind, plus lock waits: lock
/// requests granted at a later simulated time than they were made, or
/// timed out.
class EventTally {
 public:
  void add(const atrcp::Event& event);
  void merge(const EventTally& other);

  std::uint64_t kind(atrcp::EventKind kind) const noexcept {
    return kinds_[static_cast<std::size_t>(kind)];
  }
  std::uint64_t lock_waits() const noexcept { return lock_waits_; }

 private:
  std::array<std::uint64_t, 32> kinds_{};
  std::uint64_t lock_waits_ = 0;
  std::unordered_map<std::uint64_t, std::uint64_t> lock_requested_;
};

class Ledger {
 public:
  struct Slot {
    std::uint64_t ns = 0;
    std::uint64_t count = 0;
  };

  /// Runs one event of `scheduler` (whose cluster publishes into `bus`
  /// and hosts its replicas on sites [0, replicas)). False when idle.
  bool step(atrcp::Scheduler& scheduler, const atrcp::EventBus& bus,
            std::size_t replicas);

  /// Runs fn() and books its wall time to `layer`.
  template <typename Fn>
  decltype(auto) timed(const std::string& layer, Fn&& fn) {
    const auto start = Clock::now();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      add(layer, ns_between(start, Clock::now()));
    } else {
      decltype(auto) out = fn();
      add(layer, ns_between(start, Clock::now()));
      return out;
    }
  }

  void add(const std::string& layer, std::uint64_t ns, std::uint64_t count = 1);

  /// Self time and count per layer name.
  const std::map<std::string, Slot>& layers() const noexcept {
    return layers_;
  }
  Slot layer(const std::string& name) const;
  std::uint64_t total_ns() const noexcept { return total_ns_; }

  /// Every record the stepped buses published, inside steps or not.
  const EventTally& tally() const noexcept { return tally_; }

 private:
  Slot& slot_for(bool replica, const std::string& label);

  std::map<std::string, Slot> layers_;
  /// Hot-path cache of the message-typed slots, searched linearly (a
  /// cluster speaks about a dozen message types).
  std::vector<std::pair<std::string, Slot*>> replica_slots_;
  std::vector<std::pair<std::string, Slot*>> txn_slots_;
  Slot* timer_ = nullptr;
  std::uint64_t total_ns_ = 0;
  EventTally tally_;
  /// Per bus: records already tallied.
  std::vector<std::pair<const atrcp::EventBus*, std::uint64_t>> seen_;
};

/// The sim / net / replica / txn per-layer metrics of one traced
/// repetition of a simulation workload. `untraced_sim_s` is the
/// simulation wall time of an untraced repetition of the same work
/// (sim.ns_per_event).
void simulation_layer_metrics(const Ledger& ledger, const Counts& counts,
                              double untraced_sim_s,
                              std::map<std::string, double>& out);

/// Per-metric median over the traced repetitions' metric maps.
std::map<std::string, double> median_metrics(
    const std::vector<std::map<std::string, double>>& runs);

}  // namespace perfbench
