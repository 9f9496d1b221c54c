#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <numeric>
#include <system_error>

#include "core/clock.h"

namespace perfbench {

using censys::IPv4Address;

double NowUs() {
  static const censys::WallTimer epoch;
  return epoch.ElapsedMicros();
}

Scale ScaleFor(const Args& args) {
  Scale scale;
  if (args.tiny) {
    // Same service density as the pinned scale, 64x smaller.
    scale.universe_bits = 12;
    scale.services = 40000 >> 6;
  }
  return scale;
}

void Samples::Merge(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

std::optional<double> Samples::Percentile(double p) const {
  const std::size_t n = values_.size();
  if (n == 0) return std::nullopt;
  // Nearest rank: the smallest value with at least p*n samples at or
  // below it.
  std::size_t rank = static_cast<std::size_t>(std::ceil(p * n));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < kTailSamples) return std::nullopt;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  return values_[rank - 1];
}

double Samples::Sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

ScratchDir::ScratchDir(const std::string& root, const std::string& name) {
  path_ = root + "/" + name + "-" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
  std::filesystem::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

std::vector<IPv4Address> TrackedHosts(
    const censys::engines::CensysEngine& engine) {
  std::vector<IPv4Address> hosts;
  engine.write_side().ForEachTracked(
      [&](const censys::pipeline::ServiceState& s) {
        hosts.push_back(s.key.ip);
      });
  const auto less = [](IPv4Address a, IPv4Address b) {
    return a.value() < b.value();
  };
  const auto same = [](IPv4Address a, IPv4Address b) {
    return a.value() == b.value();
  };
  std::sort(hosts.begin(), hosts.end(), less);
  hosts.erase(std::unique(hosts.begin(), hosts.end(), same), hosts.end());
  return hosts;
}

std::string ViewFingerprint(const censys::pipeline::HostView& view) {
  std::string out = view.ip.ToString() + "|" + view.country + "|" +
                    std::to_string(view.asn) + "|" + view.as_org + "|" +
                    view.network_type + "|w" +
                    std::to_string(view.watermark) + "\n";
  for (const censys::pipeline::ServiceView& s : view.services) {
    out += s.record.key.ToString();
    for (const auto& [k, v] : s.record.ToFields()) out += "|" + k + "=" + v;
    out += "|seen=" + (s.last_seen.has_value()
                           ? std::to_string(s.last_seen->minutes)
                           : std::string("-"));
    out += s.pending_eviction ? "|evict" : "|keep";
    if (s.labels.has_value()) {
      out += "|" + s.labels->manufacturer + "/" + s.labels->product + "/" +
             s.labels->device_type + "/" + s.labels->cpe;
    }
    for (const std::string& cve : s.cves) out += "|" + cve;
    out += "|cvss=" + std::to_string(s.max_cvss) + (s.kev ? "|kev" : "");
    out += "\n";
  }
  return out;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace perfbench
