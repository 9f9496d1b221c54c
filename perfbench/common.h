// Shared pieces of the censysim benchmark: command-line options, the
// pinned scale, exact latency percentiles, the metric report, scratch
// directories, and the correctness helpers every workload uses.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/types.h"
#include "engines/censys_engine.h"
#include "pipeline/read_side.h"

namespace perfbench {

// Microseconds since process start, from core/clock.h's WallTimer (the
// one time source every span, latency and rate below is measured with).
double NowUs();

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Universe 2^12 instead of 2^18 (the smoke test's scale).
  bool tiny = false;
  // Test hook: corrupts one checked answer (a digest, a served view, an
  // aggregate) before its check, so the smoke test can prove the checks
  // fail.
  bool corrupt = false;
  // Root of the run's scratch files (WAL, segments, traces).
  std::string work_dir = ".bench_build/work";
};

// The size of the World a run builds.
struct Scale {
  int universe_bits = 18;
  std::uint32_t services = 40000;
  double ics_scale = 64.0;
  // Simulated time the set-up ticks past bootstrap before measuring.
  double settle_days = 0.5;
};
Scale ScaleFor(const Args& args);

// Exact latency percentiles over every recorded sample (no histogram
// buckets). A percentile is only reported when at least kTailSamples
// samples lie beyond it.
class Samples {
 public:
  static constexpr std::size_t kTailSamples = 10;

  void Add(double v) { values_.push_back(v); }
  void Merge(const Samples& other);
  std::size_t size() const { return values_.size(); }
  // Nearest-rank percentile, p in (0, 1); nullopt when fewer than
  // kTailSamples samples lie beyond it.
  std::optional<double> Percentile(double p) const;
  double Sum() const;

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
};

struct Metric {
  double value = 0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

// What one workload run hands back to main().
struct Result {
  bool correct = true;
  std::vector<std::string> failures;  // failed correctness checks
  std::uint64_t attempted = 0;  // serving queries + ticks + pumps
  std::uint64_t failed = 0;     // of those: failed, shed, threw
  MetricMap end_to_end;
  MetricMap per_layer;

  void Fail(std::string why) {
    correct = false;
    failures.push_back(std::move(why));
  }
};

// A directory under Args::work_dir, created empty and removed with
// everything in it on destruction.
class ScratchDir {
 public:
  ScratchDir(const std::string& root, const std::string& name);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Distinct tracked host addresses, ascending.
std::vector<censys::IPv4Address> TrackedHosts(
    const censys::engines::CensysEngine& engine);

// A canonical text form of everything a lookup returns, for comparing a
// served view with an uncached replay.
std::string ViewFingerprint(const censys::pipeline::HostView& view);

// Peak resident set size of this process so far, MiB.
double PeakRssMb();

// Median of a non-empty list.
double Median(std::vector<double> values);

}  // namespace perfbench
