#include "ledger.hpp"

#include <algorithm>

namespace perfbench {

Ledger::Slot& Ledger::slot_for(bool replica, const std::string& label) {
  auto& cache = replica ? replica_slots_ : txn_slots_;
  for (auto& [name, slot] : cache) {
    if (name == label) return *slot;
  }
  Slot* slot = &layers_[(replica ? "replica." : "txn.") + label];
  cache.emplace_back(label, slot);
  return *slot;
}

void EventTally::add(const atrcp::Event& event) {
  using atrcp::EventKind;
  ++kinds_[static_cast<std::size_t>(event.kind)];
  switch (event.kind) {
    case EventKind::kLockWait:
      lock_requested_[event.txn_id] = event.time;
      break;
    case EventKind::kLockGranted: {
      const auto it = lock_requested_.find(event.txn_id);
      if (it != lock_requested_.end()) {
        if (event.time > it->second) ++lock_waits_;
        lock_requested_.erase(it);
      }
      break;
    }
    case EventKind::kLockTimeout:
      ++lock_waits_;
      lock_requested_.erase(event.txn_id);
      break;
    default:
      break;
  }
}

void EventTally::merge(const EventTally& other) {
  for (std::size_t k = 0; k < kinds_.size(); ++k) kinds_[k] += other.kinds_[k];
  lock_waits_ += other.lock_waits_;
}

bool Ledger::step(atrcp::Scheduler& scheduler, const atrcp::EventBus& bus,
                  std::size_t replicas) {
  std::uint64_t* seen = nullptr;
  for (auto& [known, count] : seen_) {
    if (known == &bus) seen = &count;
  }
  if (seen == nullptr) seen = &seen_.emplace_back(&bus, 0).second;
  // The i-th most recent record of the bus.
  const auto recent = [&bus](std::uint64_t back) -> const atrcp::Event& {
    return bus.at(bus.size() - static_cast<std::size_t>(back));
  };
  // Records published outside steps (by the benchmark's own calls) count
  // too; a full ring keeps only the newest bus.size() of them.
  const std::uint64_t before = bus.total_published();
  for (std::uint64_t i = std::min<std::uint64_t>(before - *seen, bus.size());
       i > 0; --i) {
    tally_.add(recent(i));
  }
  *seen = before;

  const auto start = Clock::now();
  if (!scheduler.step()) return false;
  const std::uint64_t ns = ns_between(start, Clock::now());

  const std::uint64_t after = bus.total_published();
  *seen = after;
  const atrcp::Event* delivered = nullptr;
  for (std::uint64_t i = std::min<std::uint64_t>(after - before, bus.size());
       i > 0; --i) {
    const atrcp::Event& event = recent(i);
    tally_.add(event);
    if (delivered == nullptr && event.kind == atrcp::EventKind::kMsgDeliver) {
      delivered = &event;
    }
  }
  Slot* slot = timer_;
  if (delivered != nullptr) {
    slot = &slot_for(delivered->site < replicas, delivered->label);
  } else if (slot == nullptr) {
    slot = timer_ = &layers_["sim.timer"];
  }
  slot->ns += ns;
  ++slot->count;
  total_ns_ += ns;
  return true;
}

void Ledger::add(const std::string& layer, std::uint64_t ns,
                 std::uint64_t count) {
  Slot& slot = layers_[layer];
  slot.ns += ns;
  slot.count += count;
  total_ns_ += ns;
}

Ledger::Slot Ledger::layer(const std::string& name) const {
  const auto it = layers_.find(name);
  return it == layers_.end() ? Slot{} : it->second;
}


void simulation_layer_metrics(const Ledger& ledger, const Counts& counts,
                              double untraced_sim_s,
                              std::map<std::string, double>& out) {
  const auto per = [](double value, double base) {
    return base > 0 ? value / base : 0.0;
  };
  const auto mean_ns = [](const Ledger::Slot& slot) {
    return slot.count ? static_cast<double>(slot.ns) / slot.count : 0.0;
  };
  const double commits = static_cast<double>(counts.committed);
  out["sim.events_per_commit"] = per(counts.events, commits);
  out["sim.ns_per_event"] = per(untraced_sim_s * 1e9, counts.events);
  const Ledger::Slot timer = ledger.layer("sim.timer");
  out["sim.timer_ns"] = mean_ns(timer);
  out["sim.timer_steps"] = static_cast<double>(timer.count);
  out["sim.lat_samples"] = static_cast<double>(counts.lat_samples);
  out["sim.lat_p50_us"] = static_cast<double>(counts.lat_p50_us);
  out["sim.lat_p99_us"] = static_cast<double>(counts.lat_p99_us);
  out["net.msgs_per_commit"] = per(counts.messages, commits);
  out["net.drop_frac"] = per(counts.dropped, counts.messages);
  for (const char* type : kReplicaTypes) {
    const Ledger::Slot slot = ledger.layer(std::string("replica.") + type);
    out[std::string("replica.") + type + ".ns"] = mean_ns(slot);
    out[std::string("replica.") + type + ".count"] = slot.count;
  }
  for (const char* type : kReplyTypes) {
    const Ledger::Slot slot = ledger.layer(std::string("txn.") + type);
    out[std::string("txn.") + type + ".ns"] = mean_ns(slot);
    out[std::string("txn.") + type + ".count"] = slot.count;
  }
  out["txn.issue_ns"] = mean_ns(ledger.layer("txn.issue"));
  out["txn.failed_frac"] = per(counts.aborted + counts.blocked, counts.issued);
  out["txn.lock_waits_per_commit"] = per(ledger.tally().lock_waits(), commits);
  out["txn.reassembly_per_commit"] = per(
      ledger.tally().kind(atrcp::EventKind::kQuorumReassembly), commits);
}

std::map<std::string, double> median_metrics(
    const std::vector<std::map<std::string, double>>& runs) {
  std::map<std::string, std::vector<double>> columns;
  for (const auto& run : runs) {
    for (const auto& [name, value] : run) columns[name].push_back(value);
  }
  std::map<std::string, double> out;
  for (const auto& [name, values] : columns) out[name] = median(values);
  return out;
}

}  // namespace perfbench
