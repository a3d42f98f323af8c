#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

namespace perfbench {

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

double fastest(const std::vector<double>& seconds) {
  return *std::min_element(seconds.begin(), seconds.end());
}

std::uint64_t nearest_rank(std::vector<std::uint64_t> values, double q) {
  std::sort(values.begin(), values.end());
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string Counts::line() const {
  return "events=" + std::to_string(events) +
         " msgs=" + std::to_string(messages) +
         " dropped=" + std::to_string(dropped) +
         " issued=" + std::to_string(issued) +
         " committed=" + std::to_string(committed) +
         " aborted=" + std::to_string(aborted) +
         " blocked=" + std::to_string(blocked) +
         " history=" + std::to_string(history) +
         " lat_p50_us=" + std::to_string(lat_p50_us) +
         " lat_p95_us=" + std::to_string(lat_p95_us) +
         " lat_p99_us=" + std::to_string(lat_p99_us) +
         " lat_samples=" + std::to_string(lat_samples) +
         " lat_sum_us=" + std::to_string(lat_sum_us) +
         " digest=" + std::to_string(digest);
}

double Counts::lat_mean_us() const {
  return lat_samples ? static_cast<double>(lat_sum_us) / lat_samples : 0.0;
}

void fill_latency(Counts& counts, const std::vector<std::uint64_t>& latencies) {
  counts.lat_samples = latencies.size();
  if (latencies.empty()) return;
  counts.lat_p50_us = nearest_rank(latencies, 0.50);
  counts.lat_p95_us = nearest_rank(latencies, 0.95);
  counts.lat_p99_us = nearest_rank(latencies, 0.99);
  counts.lat_sum_us = 0;
  for (const std::uint64_t latency : latencies) counts.lat_sum_us += latency;
}

std::uint64_t fnv1a(const std::string& text, std::uint64_t hash) {
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

void guard_counts(RunResult& result, const std::vector<Counts>& repeats,
                  const std::string& what) {
  for (std::size_t i = 1; i < repeats.size(); ++i) {
    if (!(repeats[i] == repeats[0])) {
      result.fail("determinism: " + what + " repetition " + std::to_string(i) +
                  " {" + repeats[i].line() + "} != repetition 0 {" +
                  repeats[0].line() + "}");
      return;
    }
  }
}

}  // namespace perfbench
