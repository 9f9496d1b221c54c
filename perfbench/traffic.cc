#include "traffic.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <thread>

namespace perfbench {
namespace {

using censys::serving::Query;

constexpr std::array<const char*, kClasses> kServeSpanNames = {
    "serve.lookup", "serve.history", "serve.search", "serve.analytics",
    "serve.aggregate"};

// Waits until `due_us` by spinning. Sleeping is not an option here: on a
// virtual machine a sleeping thread can wake milliseconds late, and that
// lag would be charged to every request as latency.
void WaitUntil(double due_us) {
  while (NowUs() < due_us) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
}

void SleepUntil(double due_us) {
  const double ahead = due_us - NowUs();
  if (ahead > 0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<long>(ahead)));
  }
}

}  // namespace

QueryMix::QueryMix(const std::vector<censys::IPv4Address>& hosts,
                   censys::Timestamp now)
    : hosts_(hosts), now_minutes_(now.minutes) {}

const std::vector<std::string>& QueryMix::SearchTexts() {
  static const std::vector<std::string> texts = {
      "service.name: http", "service.name: ssh", "service.name: ftp",
      "nginx", "openssh"};
  return texts;
}

const std::vector<std::string>& QueryMix::Protocols() {
  static const std::vector<std::string> protocols = {"HTTP", "SSH", "FTP",
                                                     "SMTP", "TELNET"};
  return protocols;
}

void QueryMix::SetHotSet(std::vector<censys::IPv4Address> hot,
                         double share) {
  auto published =
      std::make_shared<const std::vector<censys::IPv4Address>>(
          std::move(hot));
  const censys::core::MutexLock lock(mu_);
  hot_ = std::move(published);
  hot_share_ = share;
}

Query QueryMix::Draw(censys::Rng& rng) const {
  Query q;
  const std::int64_t now = now_minutes_.load(std::memory_order_relaxed);
  q.at = censys::Timestamp{now};
  q.ip = hosts_[rng.NextBelow(hosts_.size())];
  const double roll = rng.NextDouble();
  if (roll < 0.70) {
    q.kind = Query::Kind::kLookup;
    std::shared_ptr<const std::vector<censys::IPv4Address>> hot;
    double share = 0;
    {
      const censys::core::MutexLock lock(mu_);
      hot = hot_;
      share = hot_share_;
    }
    if (hot != nullptr && !hot->empty() && rng.NextDouble() < share) {
      q.ip = (*hot)[rng.NextBelow(hot->size())];
    }
  } else if (roll < 0.80) {
    q.kind = Query::Kind::kHistory;
    // Up to a week back, clamped at the start of simulated time.
    const auto back = static_cast<std::int64_t>(rng.NextBelow(7 * 24 * 60));
    q.at = censys::Timestamp{std::max<std::int64_t>(0, now - back)};
  } else if (roll < 0.90) {
    q.kind = Query::Kind::kSearch;
    q.text = SearchTexts()[rng.NextBelow(SearchTexts().size())];
  } else if (roll < 0.99) {
    q.kind = Query::Kind::kAnalytics;
    q.text = Protocols()[rng.NextBelow(Protocols().size())];
  } else {
    q.kind = Query::Kind::kAggregate;
    q.text = kAggregateSuffix;
    q.suffix_aggregate = true;
  }
  return q;
}

void StepResult::Merge(StepResult&& other) {
  for (int c = 0; c < kClasses; ++c) {
    latency[c].Merge(other.latency[c]);
    service[c].Merge(other.service[c]);
  }
  queue_wait.Merge(other.queue_wait);
  generator_late.Merge(other.generator_late);
  attempted += other.attempted;
  failed += other.failed;
  shed += other.shed;
  degraded += other.degraded;
  retries += other.retries;
  search_results += other.search_results;
  // The earliest request that started after the step's end bounds it.
  backlog_end = std::max(backlog_end, other.backlog_end);
  abandoned = abandoned || other.abandoned;
  for (auto& view : other.captured) captured.push_back(std::move(view));
}

bool StepResult::MeetsSlo(double slo_us) const {
  const auto p99 = latency[0].Percentile(0.99);
  const double window_arrivals = rate * slo_us * 1e-6;
  return !abandoned && p99.has_value() && *p99 <= slo_us && failed == 0 &&
         static_cast<double>(backlog_end) <= std::max(1.0, window_arrivals);
}

StepResult RunOpenLoop(censys::serving::ServingFrontend& frontend,
                       const QueryMix& mix, const StepPlan& plan,
                       std::uint64_t seed, SpanRecorder& spans) {
  const int readers = std::max(1, plan.readers);
  const auto total =
      static_cast<std::uint64_t>(plan.rate * plan.seconds);
  const double interval_us = 1e6 / plan.rate;
  std::vector<StepResult> parts(readers);
  // Start a little in the future so every reader is up before the first
  // request is due.
  const double t0 = NowUs() + 2000;
  const double end_us = t0 + plan.seconds * 1e6;

  std::atomic<std::uint64_t> next{0};
  std::atomic<bool> abandon{false};
  auto reader = [&](int r) {
    StepResult& out = parts[r];
    std::uint64_t lookups = 0;
    for (;;) {
      if ((plan.stop != nullptr &&
           plan.stop->load(std::memory_order_relaxed)) ||
          abandon.load(std::memory_order_relaxed)) {
        break;
      }
      const std::uint64_t g = next.fetch_add(1, std::memory_order_relaxed);
      if (g >= total) break;
      const double due = t0 + static_cast<double>(g) * interval_us;
      // Request g's content depends on (seed, g) alone, whichever reader
      // serves it.
      censys::Rng rng(censys::SplitMix64(seed * 0x9E3779B97F4A7C15ULL + g));
      const Query q = mix.Draw(rng);
      const int cls = static_cast<int>(q.kind);
      const bool capture = cls == 0 && plan.capture_every > 0 &&
                           lookups++ % plan.capture_every == 0;
      double start = NowUs();
      if (start < due) {
        plan.sleep_wait ? SleepUntil(due) : WaitUntil(due);
        start = NowUs();
        out.generator_late.Add(start - due);
      }
      if (start >= end_us && out.backlog_end == 0) {
        // The first request started after the step's end: everything
        // from here on was due before the end and is backlog.
        out.backlog_end = total - g;
      }
      if (plan.abandon_late_us > 0 && start - due > plan.abandon_late_us) {
        out.abandoned = true;
        abandon.store(true, std::memory_order_relaxed);
      }
      censys::serving::QueryOutcome outcome;
      {
        const SpanRecorder::Scope span(spans, kServeSpanNames[cls]);
        try {
          outcome = frontend.ServeOne(q, capture);
        } catch (const std::exception&) {
          outcome.failed = true;  // counted below, never lost
        }
      }
      const double done = NowUs();
      out.queue_wait.Add(start - due);
      out.latency[cls].Add(done - due);
      out.service[cls].Add(done - start);
      ++out.attempted;
      if (outcome.failed || outcome.shed) ++out.failed;
      if (outcome.shed) ++out.shed;
      if (outcome.degraded) ++out.degraded;
      out.retries += outcome.retries;
      if (cls == 2) out.search_results += outcome.results;
      if (capture && outcome.view.has_value()) {
        out.captured.push_back(std::move(*outcome.view));
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(readers);
  for (int r = 0; r < readers; ++r) threads.emplace_back(reader, r);
  for (std::thread& t : threads) t.join();

  StepResult result;
  result.rate = plan.rate;
  result.seconds = plan.seconds;
  for (StepResult& part : parts) result.Merge(std::move(part));
  return result;
}

}  // namespace perfbench
