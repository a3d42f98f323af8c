// Shared plumbing of the benchmark driver: wall-clock helpers, order
// statistics, the per-run deterministic counts the determinism guard
// compares, and the result every workload hands back to main.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point start) {
  return seconds_between(start, Clock::now());
}
inline std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Median of a non-empty sample (mean of the middle pair when even).
double median(std::vector<double> values);

/// The fastest of a non-empty sample of repetition times: the time one
/// unit of work takes when the host is quiet. Other tenants only ever slow
/// a repetition, in spells of seconds to minutes, so the fastest of a run's
/// 25 or more repetitions varies less from run to run than the median.
double fastest(const std::vector<double>& seconds);

/// Nearest-rank percentile (q in (0, 1]) of a non-empty sample.
std::uint64_t nearest_rank(std::vector<std::uint64_t> values, double q);

/// Peak resident set size of this process so far, MiB.
double peak_rss_mib();

/// Everything about one repetition that a fixed (workload, seed) pins
/// exactly: the determinism guard requires every repetition, traced or
/// not, to reproduce it field for field. Fields a workload cannot observe
/// stay 0.
struct Counts {
  std::uint64_t events = 0;    ///< scheduler events executed
  std::uint64_t messages = 0;  ///< messages sent
  std::uint64_t dropped = 0;   ///< messages dropped
  std::uint64_t issued = 0;    ///< transactions issued
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t blocked = 0;
  std::uint64_t history = 0;   ///< transactions in the checked history
  std::uint64_t lat_p50_us = 0;
  std::uint64_t lat_p95_us = 0;
  std::uint64_t lat_p99_us = 0;
  std::uint64_t lat_samples = 0;
  std::uint64_t lat_sum_us = 0;
  std::uint64_t digest = 0;    ///< FNV-1a of workload-specific report text

  /// Mean simulated latency of the committed transactions, us.
  double lat_mean_us() const;
  std::string line() const;
  bool operator==(const Counts&) const = default;
};

/// Sample count, sum and nearest-rank p50/p95/p99 of committed
/// transactions' simulated latencies, written into `counts`.
void fill_latency(Counts& counts, const std::vector<std::uint64_t>& latencies);

std::uint64_t fnv1a(const std::string& text,
                    std::uint64_t hash = 0xcbf29ce484222325ULL);

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Shrinks every workload's per-repetition work (self-test only).
  bool smoke = false;
};

/// What a workload run hands back: the gate verdict, the work counted
/// against it, and every metric of the requested kind by name (units come
/// from the metric table in main.cpp).
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;  ///< checked units of work (runs or seeds)
  std::uint64_t failed = 0;     ///< units whose check failed
  std::map<std::string, double> metrics;
  /// Human-readable lines printed before the result document.
  std::vector<std::string> log;

  void fail(const std::string& why) {
    correct = false;
    log.push_back("FAIL " + why);
  }
};

/// Calls once() until `seconds` of wall time have passed and at least
/// `min_calls` times.
template <typename Fn>
void repeat_for(double seconds, std::size_t min_calls, Fn&& once) {
  const auto start = Clock::now();
  std::size_t calls = 0;
  do {
    once();
  } while (++calls < min_calls || seconds_since(start) < seconds);
}

/// Fails `result` when `repeats` do not all share the first one's counts.
void guard_counts(RunResult& result, const std::vector<Counts>& repeats,
                  const std::string& what);

/// Request types a replica handles and reply types a coordinator handles:
/// the message-typed layers of the ledger (replica.<T>.*, txn.<T>.*).
inline constexpr const char* kReplicaTypes[] = {
    "ReadRequest",   "VersionRequest", "PrepareRequest",
    "CommitRequest", "AbortRequest",   "ApplyRequest"};
inline constexpr const char* kReplyTypes[] = {
    "ReadReply", "VersionReply", "PrepareVote", "CommitAck", "AbortAck"};

/// Names and units of every metric, in BENCHMARK.json order (main.cpp).
struct MetricSpec {
  std::string name;
  std::string unit;
  std::string better;  ///< "lower" / "higher"
  double bound = 0;    ///< end-to-end only
};
const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& per_layer_metrics();

/// Sets every per-layer metric whose name starts with one of `prefixes`
/// and that the workload did not measure to 0: the layer is not on this
/// workload's path.
void not_exercised(RunResult& result, const std::vector<std::string>& prefixes);

RunResult run_bigtree(const RunConfig& config);
RunResult run_ycsb(const RunConfig& config);
RunResult run_explore(const RunConfig& config);

}  // namespace perfbench
