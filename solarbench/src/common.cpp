#include "common.h"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace solarnet::solarbench {

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

void rotate_cpu(std::size_t n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  const int count = CPU_COUNT(&allowed);
  if (count <= 1) return;
  int target = static_cast<int>(n % static_cast<std::size_t>(count));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    if (target-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof one, &one);
    break;
  }
  sched_setaffinity(0, sizeof allowed, &allowed);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t InputRng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double InputRng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::size_t InputRng::below(std::size_t n) {
  return static_cast<std::size_t>(uniform() * static_cast<double>(n));
}

Percentile percentile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    throw std::invalid_argument("percentile: no samples");
  }
  if (!(q > 0.0 && q <= 1.0)) {
    throw std::invalid_argument("percentile: q outside (0, 1]");
  }
  const std::size_t n = samples.size();
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  const std::size_t index = std::clamp<std::size_t>(rank, 1, n) - 1;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return {samples[index], n};
}

const std::vector<std::string>& report_countries() {
  static const std::vector<std::string> countries = {
      "US", "GB", "CN", "IN", "SG", "ZA", "AU", "NZ", "BR"};
  return countries;
}

services::ServiceSpec datacenter_service(datasets::DataCenterOperator op,
                                         std::size_t write_quorum) {
  std::vector<geo::GeoPoint> sites;
  for (const datasets::DataCenter& dc : datasets::datacenters_of(op)) {
    sites.push_back(dc.location);
  }
  return services::service_from_datacenters(
      std::string(datasets::to_string(op)), sites,
      std::max<std::size_t>(1, std::min(write_quorum, sites.size())));
}

void append_digest(std::string& out, std::uint64_t value) {
  char bytes[sizeof value];
  std::memcpy(bytes, &value, sizeof value);
  out.append(bytes, sizeof bytes);
}

void append_digest(std::string& out, double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  append_digest(out, bits);
}

void append_digest(std::string& out, const util::RunningStats& stats) {
  const util::RunningStats::State s = stats.state();
  append_digest(out, static_cast<std::uint64_t>(s.n));
  append_digest(out, s.mean);
  append_digest(out, s.m2);
  append_digest(out, s.min);
  append_digest(out, s.max);
}

}  // namespace solarnet::solarbench
