// Open-loop read traffic through serving::ServingFrontend::ServeOne.
//
// A step is one fixed schedule: request g is due g / rate seconds after
// the step starts, and its content depends only on (seed, g). Reader
// threads share the schedule: a free reader takes the next request,
// waits until it is due, and serves it; when every reader is busy,
// requests wait. Every latency is timed from when the request was due,
// so a stall shows on every request queued behind it.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/rng.h"
#include "core/thread_safety.h"
#include "serving/frontend.h"
#include "spans.h"

namespace perfbench {

inline constexpr int kClasses = 5;
inline constexpr std::array<const char*, kClasses> kClassNames = {
    "lookup", "history", "search", "analytics", "aggregate"};

// The 70/10/10/9/1 lookup/history/search/analytics/aggregate query mix.
// Thread-safe: readers draw from it concurrently while the command thread
// may publish a new clock or hot set (the mixed workload).
class QueryMix {
 public:
  // `hosts` (tracked hosts) must be non-empty and outlive the mix.
  QueryMix(const std::vector<censys::IPv4Address>& hosts,
           censys::Timestamp now);

  censys::serving::Query Draw(censys::Rng& rng) const;

  // Simulated "now" for history / analytics / aggregate queries.
  void SetNow(censys::Timestamp now) {
    now_minutes_.store(now.minutes, std::memory_order_relaxed);
  }
  // Lookups draw from `hot` with probability `share` (the rest stay
  // uniform over all tracked hosts). An empty set disables the bias.
  void SetHotSet(std::vector<censys::IPv4Address> hot, double share);

  static const std::vector<std::string>& SearchTexts();
  static const std::vector<std::string>& Protocols();
  // The aggregate query's field suffix (every port's service name).
  static constexpr const char* kAggregateSuffix = ".service.name";

 private:
  const std::vector<censys::IPv4Address>& hosts_;
  std::atomic<std::int64_t> now_minutes_;
  mutable censys::core::Mutex mu_;
  std::shared_ptr<const std::vector<censys::IPv4Address>> hot_
      CENSYS_GUARDED_BY(mu_);
  double hot_share_ CENSYS_GUARDED_BY(mu_) = 0;
};

struct StepPlan {
  double rate = 1000;   // offered queries per second, all readers
  double seconds = 1;   // schedule length
  int readers = 3;
  // Capture every Nth lookup's served view for the correctness check
  // (0 = none). Captured views are compared after the step, untimed.
  int capture_every = 0;
  // When set, readers stop issuing once it turns true (the step then
  // ends early; its backlog is not counted).
  const std::atomic<bool>* stop = nullptr;
  // Readers sleep until a request is due instead of spinning, leaving
  // the cores to other work; wake-up lag then shows as generator lateness.
  bool sleep_wait = false;
  // When > 0, the step is abandoned (no further requests issued) once a
  // request starts this late: the offered rate is clearly lost.
  double abandon_late_us = 0;
};

struct StepResult {
  double rate = 0;
  double seconds = 0;
  std::array<Samples, kClasses> latency;  // due -> answered
  std::array<Samples, kClasses> service;  // inside ServeOne
  Samples queue_wait;      // due -> start, every request
  Samples generator_late;  // start - due after an idle wait (wake-up lag)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // failed or shed
  std::uint64_t shed = 0;
  std::uint64_t degraded = 0;
  std::uint64_t retries = 0;
  std::uint64_t search_results = 0;
  // Requests due before the step's end that had not started by then.
  std::uint64_t backlog_end = 0;
  bool abandoned = false;
  std::vector<censys::pipeline::HostView> captured;

  void Merge(StepResult&& other);
  // Lookup p99 within `slo_us`, nothing failed, not abandoned, and the
  // backlog at the end no larger than what arrives within one SLO window.
  bool MeetsSlo(double slo_us) const;
};

// Runs one open-loop step; spans (when enabled) wrap every ServeOne,
// named "serve.<class>".
StepResult RunOpenLoop(censys::serving::ServingFrontend& frontend,
                       const QueryMix& mix, const StepPlan& plan,
                       std::uint64_t seed, SpanRecorder& spans);

}  // namespace perfbench
