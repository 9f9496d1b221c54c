#include "workloads.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/clock.h"
#include "engines/enrichment.h"
#include "engines/world.h"
#include "fingerprint/fingerprints.h"
#include "fingerprint/vulns.h"
#include "query/columnar.h"
#include "query/standing.h"
#include "replicate/follower.h"
#include "replicate/group.h"
#include "serving/frontend.h"
#include "spans.h"
#include "storage/journal.h"
#include "traffic.h"

namespace perfbench {
namespace {

using censys::IPv4Address;
using censys::Timestamp;
using censys::engines::CensysEngine;
using censys::engines::TickStats;
using censys::engines::World;

// --- fixed workload parameters (README.md) --------------------------------
constexpr double kSloUs = 5000;        // lookup p99 limit for max_qps_at_slo
constexpr int kSetups = 3;             // World builds per run (median)
constexpr int kIngestWorkers = 3;      // engine workers on ingest and serve
constexpr int kMixedWorkers = 1;       // engine workers on mixed
constexpr int kFrozenReaders = 3;      // reader threads on a frozen World
constexpr int kMixedReaders = 2;       // reader threads beside mixed ticks
constexpr double kReferenceRate = 2000;  // q/s of every frozen latency step
constexpr double kMixedRate = 1500;      // q/s beside mixed ticks
// Every frozen latency step offers at least this many queries, so each
// class with a reported p99 (9% analytics is the scarcest) collects well
// over a thousand samples.
constexpr double kLatencyStepQueries = 18000;
// A discarded step before it: the first second after set-up serves
// several times slower.
constexpr double kWarmupSeconds = 1.5;
constexpr double kRampStepSeconds = 1.0;
constexpr double kAbandonUs = 50'000;  // a ramp step this late is lost
constexpr int kCaptureEvery = 64;  // lookups per captured view (frozen)
constexpr std::size_t kStandingQueries = 200;
constexpr double kHotShare = 0.8;  // mixed lookups drawn from the hot set

double Days(std::uint64_t ticks, const World& world) {
  return static_cast<double>(ticks) *
         static_cast<double>(world.config().tick.minutes) / (24.0 * 60.0);
}

// --- ticks -------------------------------------------------------------------

// The benchmark's own timing of every tick plus the engine's TickReport
// for it, summed.
struct TickLog {
  std::vector<double> wall_us;
  TickStats sum;
  std::uint64_t ticks = 0;

  void Add(double wall, const TickStats& s) {
    wall_us.push_back(wall);
    ++ticks;
    sum.discovery_us += s.discovery_us;
    sum.interrogate_us += s.interrogate_us;
    sum.refresh_us += s.refresh_us;
    sum.daily_us += s.daily_us;
    sum.commit_us += s.commit_us;
    sum.help_runs += s.help_runs;
    sum.commit_stalls += s.commit_stalls;
    sum.pipeline_wall_us += s.pipeline_wall_us;
    sum.worker_busy_us += s.worker_busy_us;
    sum.commit_busy_us += s.commit_busy_us;
  }
  double WallUs() const {
    double total = 0;
    for (double w : wall_us) total += w;
    return total;
  }
  double StagesUs() const {
    return sum.discovery_us + sum.interrogate_us + sum.refresh_us +
           sum.daily_us + sum.commit_us;
  }
};

// Cumulative counters the per-layer metrics are differences of.
class Counters {
 public:
  static Counters Take(const CensysEngine& engine) {
    Counters c;
    const auto& m = engine.metrics();
    for (const char* name :
         {"censys.scan.candidates", "censys.scan.probes_filtered",
          "censys.interrogate.attempts", "censys.interrogate.handshakes",
          "censys.pipeline.ingest_scans", "censys.pipeline.ingest_failures",
          "censys.pipeline.evictions", "censys.storage.events",
          "censys.storage.delta_bytes", "censys.storage.snapshot_bytes",
          "censys.storage.wal.bytes", "censys.storage.wal.fsyncs",
          "censys.query.scan_rows", "censys.query.scans",
          "censys.query.standing.evals"}) {
      c.values_[name] = static_cast<double>(m.CounterValue(name));
    }
    c.values_["probes_sent"] = static_cast<double>(engine.probes_sent());
    c.values_["predict.candidates_emitted"] =
        static_cast<double>(engine.predictor_stats().candidates_emitted);
    if (const auto* cache = engine.read_side().cache()) {
      c.values_["cache.hits"] = static_cast<double>(cache->hits());
      c.values_["cache.misses"] = static_cast<double>(cache->misses());
      c.values_["cache.evictions"] = static_cast<double>(cache->evictions());
      c.values_["cache.invalidations"] =
          static_cast<double>(cache->invalidations());
    }
    return c;
  }
  Counters Minus(const Counters& before) const {
    Counters d = *this;
    for (auto& [name, v] : d.values_) v -= before.Get(name);
    return d;
  }
  double Get(const std::string& name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
  }

 private:
  std::map<std::string, double> values_;
};

// --- the set-up World (a "rig") ----------------------------------------------

// The mixed workload's extra consumers of the journal.
struct Consumers {
  censys::query::StandingQueryRegistry standing;
  std::unique_ptr<censys::replicate::ReplicationGroup> group;
  // Hosts committed since the last tick ended (command thread only).
  std::vector<IPv4Address> committed;
  double observer_us = 0;
  std::uint64_t observed_events = 0;
  std::uint64_t build_day_failures = 0;
};

struct Rig {
  Rig() = default;
  ~Rig() {
    // The journal outlives the consumers its observer points into.
    if (world != nullptr) world->censys().journal().SetCommitObserver({});
  }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  CensysEngine& engine() { return world->censys(); }

  std::unique_ptr<ScratchDir> dir;
  std::unique_ptr<World> world;
  std::unique_ptr<censys::query::AnalyticsTier> tier;
  std::unique_ptr<Consumers> consumers;
  std::unique_ptr<censys::serving::ServingFrontend> frontend;
  std::vector<IPv4Address> hosts;
  TickLog settle;
  Counters settle_delta;
  double rebuild_ms = 0;
  double build_day_ms = 0;
};

// TickReport stages as children of their tick span, laid out back to back
// so they end where the tick ends (the engine runs them in this order;
// the Internet's advance before them is the tick's own, unattributed,
// time).
void AddStageSpans(SpanRecorder& spans, int tick_span, double end_us,
                   const TickStats& s) {
  if (!spans.enabled()) return;
  const std::array<std::pair<const char*, double>, 5> stages = {{
      {"stage.commit", s.commit_us},
      {"stage.daily", s.daily_us},
      {"stage.refresh", s.refresh_us},
      {"stage.interrogate", s.interrogate_us},
      {"stage.discovery", s.discovery_us},
  }};
  double at = end_us;
  for (const auto& [name, us] : stages) {
    if (us <= 0) continue;
    spans.AddChild(tick_span, name, at - us, at);
    at -= us;
  }
}

// Advances the World by one tick, timing it from outside.
void TickOnce(Rig& rig, SpanRecorder& spans, TickLog& log) {
  World& world = *rig.world;
  const Timestamp to = world.now() + world.config().tick;
  const SpanRecorder::Scope span(spans, "tick");
  const double t0 = NowUs();
  world.RunUntil(to);
  const double t1 = NowUs();
  const TickStats& stats = rig.engine().TickReport();
  AddStageSpans(spans, span.id(), t1, stats);
  log.Add(t1 - t0, stats);
}

// 200 standing queries: field-constrained service terms (shortlisted by
// the fields a delta touches), a NOT slice, and a few any-field words.
std::vector<std::string> StandingPopulation(std::size_t target) {
  static const char* kPorts[] = {"21",  "22",  "23",   "25",   "80",
                                 "110", "143", "443",  "993",  "1883",
                                 "3306", "5432", "6379", "8080", "8443"};
  static const char* kNames[] = {"http", "ssh",   "ftp",   "smtp",
                                 "imap", "pop3",  "mysql", "redis",
                                 "mqtt", "https", "telnet"};
  static const char* kWords[] = {"nginx", "apache", "openssh", "login",
                                 "admin"};
  std::vector<std::string> out;
  for (const char* word : kWords) out.push_back(word);
  for (const char* port : {"80", "443", "22"}) {
    out.push_back(std::string("NOT svc.") + port + "/tcp.service.name: http");
  }
  for (std::size_t i = 0; out.size() < target; ++i) {
    const std::string prefix =
        std::string("svc.") + kPorts[i % std::size(kPorts)] + "/tcp.";
    switch ((i / std::size(kPorts)) % 3) {
      case 0:
        out.push_back(prefix + "service.name: " +
                      kNames[i % std::size(kNames)]);
        break;
      case 1:
        out.push_back(prefix + "service.banner: " +
                      kWords[i % std::size(kWords)]);
        break;
      default:
        out.push_back(prefix + "service.validated: true");
        break;
    }
  }
  return out;
}

void AttachConsumers(Rig& rig, SpanRecorder& spans) {
  CensysEngine& engine = rig.engine();
  rig.consumers = std::make_unique<Consumers>();
  Consumers& c = *rig.consumers;
  c.standing.BindMetrics(&engine.metrics());
  for (const std::string& expr : StandingPopulation(kStandingQueries)) {
    std::string error;
    // No backfill: matches build up from the commits that follow.
    if (!c.standing.Register(expr, expr, &error)) {
      throw std::runtime_error("standing query '" + expr + "': " + error);
    }
  }
  engine.journal().SetCommitObserver(
      [&c, &spans](const std::vector<censys::storage::AppliedEvent>& batch) {
        const SpanRecorder::Scope span(spans, "observer.standing");
        const double t0 = NowUs();
        c.standing.OnCommit(batch);
        c.observer_us += NowUs() - t0;
        c.observed_events += batch.size();
        for (const auto& ev : batch) {
          if (auto ip = IPv4Address::Parse(ev.entity_id)) {
            c.committed.push_back(*ip);
          }
        }
      });
  censys::query::AnalyticsTier* tier = rig.tier.get();
  engine.AddDailyJob([&c, &spans, tier](Timestamp day_start) {
    const SpanRecorder::Scope span(spans, "daily.build_day");
    std::string error;
    if (!tier->BuildDay(day_start.minutes / (24 * 60), &error)) {
      ++c.build_day_failures;
    }
  });
  censys::replicate::ReplicationGroup::Options options;
  options.max_records_per_shipment = 1024;
  c.group = std::make_unique<censys::replicate::ReplicationGroup>(
      engine.journal(), options);
  c.group->BindMetrics(&engine.metrics());
  c.group->AddFollower("follower-0");
  std::string error;
  if (!c.group->BootstrapFollower(0, &error)) {
    throw std::runtime_error("follower bootstrap: " + error);
  }
}

// The repeated part of set-up: a fresh World, bootstrapped and settled.
std::unique_ptr<Rig> BuildWorld(const Args& args, const Scale& scale,
                                int workers, int ordinal,
                                SpanRecorder& spans) {
  auto rig = std::make_unique<Rig>();
  rig->dir = std::make_unique<ScratchDir>(
      args.work_dir, args.workload + "-" + std::to_string(ordinal));

  censys::engines::WorldConfig cfg;
  cfg.universe.seed = args.seed;
  cfg.universe.universe_size = 1u << scale.universe_bits;
  cfg.universe.target_services = scale.services;
  cfg.universe.ics_scale = scale.ics_scale;
  cfg.with_alternatives = false;
  cfg.censys.threads = workers;
  // Default flush policy: no fsync per append, a sync on every segment
  // rotation and checkpoint.
  cfg.censys.journal_options.wal.dir = rig->dir->path() + "/wal";
  {
    const SpanRecorder::Scope span(spans, "setup.construct");
    rig->world = std::make_unique<World>(cfg);
  }
  {
    const SpanRecorder::Scope span(spans, "setup.bootstrap");
    rig->world->Bootstrap();
  }
  const SpanRecorder::Scope span(spans, "setup.settle");
  const Counters before = Counters::Take(rig->engine());
  const Timestamp until =
      rig->world->now() + censys::Duration::Days(scale.settle_days);
  while (rig->world->now() < until) TickOnce(*rig, spans, rig->settle);
  rig->settle_delta = Counters::Take(rig->engine()).Minus(before);
  return rig;
}

// The once-only rest of set-up: search index, analytics tier, frontend,
// and (mixed) the journal's extra consumers.
void FinishSetup(Rig& rig, bool consumers, SpanRecorder& spans) {
  CensysEngine& engine = rig.engine();
  {
    const SpanRecorder::Scope span(spans, "setup.rebuild_index");
    const double t0 = NowUs();
    engine.RebuildSearchIndex();
    rig.rebuild_ms = (NowUs() - t0) / 1000.0;
  }
  rig.tier = std::make_unique<censys::query::AnalyticsTier>(
      engine.journal(), censys::query::AnalyticsTier::Options{});
  rig.tier->BindMetrics(&engine.metrics());
  {
    const SpanRecorder::Scope span(spans, "setup.build_day");
    const double t0 = NowUs();
    std::string error;
    if (!rig.tier->BuildDay(rig.world->now().minutes / (24 * 60), &error)) {
      throw std::runtime_error("analytics BuildDay: " + error);
    }
    rig.build_day_ms = (NowUs() - t0) / 1000.0;
  }
  censys::serving::ServingFrontend::Options fo;
  fo.threads = 0;  // queries run on the benchmark's reader threads
  rig.frontend = std::make_unique<censys::serving::ServingFrontend>(
      engine.read_side(), engine.search_index(), engine.analytics(), fo);
  rig.frontend->AttachAnalyticsTier(rig.tier.get());
  rig.frontend->BindMetrics(&engine.metrics());
  if (consumers) {
    const SpanRecorder::Scope span(spans, "setup.consumers");
    AttachConsumers(rig, spans);
  }
  rig.hosts = TrackedHosts(engine);
  if (rig.hosts.empty()) throw std::runtime_error("no tracked hosts");
}

// Builds the World kSetups times, each from scratch after tearing the
// previous one down, keeps the last and finishes its set-up. setup_s is
// the median World build plus the once-only rest; *settle_rate collects
// each build's settle-tick rate.
std::unique_ptr<Rig> SetUp(const Args& args, int workers, bool consumers,
                           SpanRecorder& spans, double* setup_s,
                           std::vector<double>* settle_rate) {
  const Scale scale = ScaleFor(args);
  const SpanRecorder::Scope span(spans, "setup");
  std::unique_ptr<Rig> rig;
  std::vector<double> build_s;
  for (int i = 0; i < kSetups; ++i) {
    rig.reset();
    const double t0 = NowUs();
    rig = BuildWorld(args, scale, workers, i, spans);
    build_s.push_back((NowUs() - t0) * 1e-6);
    settle_rate->push_back(Days(rig->settle.ticks, *rig->world) /
                           (rig->settle.WallUs() * 1e-6));
    std::printf("setup: world build %d %.3f s (settle ticks %.3f s)\n", i,
                build_s.back(), rig->settle.WallUs() * 1e-6);
  }
  // Set-up is deterministic for a seed; the smoke test compares this.
  std::printf("setup: journal digest %016llx\n",
              static_cast<unsigned long long>(
                  censys::replicate::JournalDigest(rig->engine().journal())));
  const double t0 = NowUs();
  FinishSetup(*rig, consumers, spans);
  const double finish_s = (NowUs() - t0) * 1e-6;
  *setup_s = Median(build_s) + finish_s;
  std::printf("setup: finish %.3f s (index rebuild %.1f ms, analytics "
              "build %.1f ms) -> setup_s %.3f s [t=%.1f s]\n",
              finish_s, rig->rebuild_ms, rig->build_day_ms, *setup_s,
              NowUs() * 1e-6);
  return rig;
}

// --- read phases -------------------------------------------------------------

// The max_qps_at_slo ramp's offered rates: 3000 q/s and up in 5% steps.
double RampRate(int i) { return 3000.0 * std::pow(1.05, i); }
constexpr int kRampRates = 40;  // up to ~20k q/s

struct Ramp {
  std::vector<StepResult> steps;
  double max_qps_at_slo = 0;
};

// Bisects the fixed ladder of offered rates on a frozen World for the
// highest one whose step meets the SLO. A step that is clearly lost
// (requests starting kAbandonUs late) is cut short and fails.
Ramp RunRamp(Rig& rig, const QueryMix& mix, std::uint64_t seed,
             double step_seconds, SpanRecorder& spans) {
  Ramp ramp;
  int lo = -1;  // highest index known to meet the SLO
  int hi = kRampRates;  // lowest index known to miss it
  while (hi - lo > 1) {
    const int mid = (lo + hi) / 2;
    StepPlan plan;
    plan.rate = RampRate(mid);
    // Long enough for a thousand-odd lookups at low rates.
    plan.seconds = std::max(step_seconds, 1600 / (0.7 * plan.rate));
    plan.readers = kFrozenReaders;
    plan.abandon_late_us = kAbandonUs;
    StepResult step =
        RunOpenLoop(*rig.frontend, mix, plan, seed * 131 + mid, spans);
    const bool ok = step.MeetsSlo(kSloUs);
    std::printf("ramp %8.0f q/s: lookup p99 %9.1f us (n=%zu), service p99 "
                "%.1f us, late p99 %.1f us, failed %llu, backlog %llu%s -> "
                "%s\n",
                plan.rate, step.latency[0].Percentile(0.99).value_or(-1),
                step.latency[0].size(),
                step.service[0].Percentile(0.99).value_or(-1),
                step.generator_late.Percentile(0.99).value_or(-1),
                static_cast<unsigned long long>(step.failed),
                static_cast<unsigned long long>(step.backlog_end),
                step.abandoned ? ", abandoned" : "",
                ok ? "meets SLO" : "misses SLO");
    (ok ? lo : hi) = mid;
    ramp.steps.push_back(std::move(step));
  }
  ramp.max_qps_at_slo = lo >= 0 ? RampRate(lo) : 0.0;
  return ramp;
}

// Compares captured views with an uncached ReadSide replay of the same
// hosts (the World is frozen, so they must be identical).
void CheckViews(Rig& rig, const StepResult& step, const Args& args,
                Result& result) {
  const auto fingerprints = censys::fingerprint::FingerprintEngine::BuiltIn();
  const auto cves = censys::fingerprint::CveDatabase::BuiltIn();
  const censys::engines::ContextEnricher enricher(
      rig.world->internet().blocks(), &fingerprints, &cves);
  const censys::pipeline::ReadSide uncached(
      rig.engine().journal(), rig.engine().write_side(), &enricher);
  std::size_t mismatched = 0;
  for (std::size_t i = 0; i < step.captured.size(); ++i) {
    const auto& served = step.captured[i];
    const auto replay = uncached.GetHost(served.ip);
    std::string want = replay.has_value() ? ViewFingerprint(*replay) : "";
    if (args.corrupt && i == 0) want += "!";
    if (ViewFingerprint(served) != want) ++mismatched;
  }
  std::printf("check: %zu served views vs uncached replay, %zu differ\n",
              step.captured.size(), mismatched);
  if (step.captured.empty()) result.Fail("no lookup views captured");
  if (mismatched > 0) {
    result.Fail(std::to_string(mismatched) +
                " served views differ from an uncached replay");
  }
}

// The aggregate answer the frontend serves must equal the journal walk.
void CheckAggregate(Rig& rig, const Args& args, Result& result) {
  const std::int64_t day = rig.world->now().minutes / (24 * 60);
  const auto served =
      rig.tier->GroupCountSuffix(day, QueryMix::kAggregateSuffix);
  auto walk = rig.tier->WalkJournalSuffix(QueryMix::kAggregateSuffix);
  if (args.corrupt && !walk.groups.empty()) {
    ++walk.groups.begin()->second;
  }
  const bool same = served.from_segment && served.groups == walk.groups;
  std::printf("check: aggregate over %zu groups (segment day %lld) %s the "
              "journal walk\n",
              served.groups.size(), static_cast<long long>(served.day),
              same ? "equals" : "DIFFERS FROM");
  if (!same) result.Fail("aggregate answer differs from the journal walk");
}

// Exact percentile or a failed run: a metric is only printed when enough
// samples lie beyond it.
double Pct(const Samples& s, double p, const std::string& what,
           Result& result) {
  const auto v = s.Percentile(p);
  if (!v.has_value()) {
    result.Fail("too few samples for " + what + " (" +
                std::to_string(s.size()) + ")");
    return 0;
  }
  return *v;
}

void PrintLatencies(const char* what, const StepResult& step) {
  for (int c = 0; c < kClasses; ++c) {
    std::printf("%s %-9s n=%-7zu p50 %9.1f us  p99 %9.1f us  "
                "(service p50 %9.1f us  p99 %9.1f us)\n",
                what, kClassNames[c], step.latency[c].size(),
                step.latency[c].Percentile(0.5).value_or(-1),
                step.latency[c].Percentile(0.99).value_or(-1),
                step.service[c].Percentile(0.5).value_or(-1),
                step.service[c].Percentile(0.99).value_or(-1));
  }
}

// The medians are end-to-end metrics, and so is the search p99 (its tail
// is the cost of the free-text queries, steady from run to run). The
// other p99s move with stalls of the host between identical runs by more
// than any bound the end-to-end metrics can carry, so they are reported
// per layer.
void AddLatencyMetrics(const StepResult& step, Result& result) {
  PrintLatencies("latency", step);
  for (int c = 0; c < kClasses; ++c) {
    const std::string name = kClassNames[c];
    result.end_to_end[name + "_p50_us"] = {
        Pct(step.latency[c], 0.5, name + " p50", result), "us"};
    // Aggregates are 1% of the mix: too few samples for a p99.
    if (c == 4) continue;
    auto& map = c == 2 ? result.end_to_end : result.per_layer;
    map[name + "_p99_us"] = {
        Pct(step.latency[c], 0.99, name + " p99", result), "us"};
  }
}

// --- per-layer metrics -------------------------------------------------------

// Everything the per-layer report is computed from. Phases a workload
// skips stay empty and report zero work.
struct LayerInputs {
  const Rig* rig = nullptr;
  const TickLog* ticks = nullptr;      // the ticks the write path ran
  Counters write_delta;                // counters across those ticks
  const StepResult* reads = nullptr;   // the latency step
  Counters read_delta;                 // counters across that step
  std::vector<double> pump_us;         // per tick (mixed)
  std::uint64_t shipped_records = 0;
  std::uint64_t max_lag = 0;
  double standing_us = 0;
  std::uint64_t standing_events = 0;
  double trace_overhead_pct = 0;
};

void AddLayerMetrics(const LayerInputs& in, Result& result) {
  auto& m = result.per_layer;
  const TickLog& t = *in.ticks;
  const double days = std::max(1e-9, Days(t.ticks, *in.rig->world));
  const auto per_day = [&](double v) { return v / days; };
  const Counters& w = in.write_delta;

  std::vector<double> tick_ms;
  for (double us : t.wall_us) tick_ms.push_back(us / 1000.0);
  m["engines.tick_ms_p50"] = {tick_ms.empty() ? 0.0 : Median(tick_ms), "ms"};
  m["engines.tick_wall_ms"] = {per_day(t.WallUs() / 1000.0), "ms/day"};
  m["engines.stage_discovery_ms"] = {per_day(t.sum.discovery_us / 1000.0),
                                     "ms/day"};
  m["engines.stage_interrogate_ms"] = {
      per_day(t.sum.interrogate_us / 1000.0), "ms/day"};
  m["engines.stage_refresh_ms"] = {per_day(t.sum.refresh_us / 1000.0),
                                   "ms/day"};
  m["engines.stage_daily_ms"] = {per_day(t.sum.daily_us / 1000.0), "ms/day"};
  m["engines.stage_commit_ms"] = {per_day(t.sum.commit_us / 1000.0),
                                  "ms/day"};
  m["engines.unattributed_ms"] = {
      per_day((t.WallUs() - t.StagesUs()) / 1000.0), "ms/day"};
  const int workers = in.rig->world->config().censys.threads;
  const double pipe_wall = t.sum.pipeline_wall_us;
  m["engines.worker_occupancy"] = {
      pipe_wall > 0 && workers > 0
          ? t.sum.worker_busy_us / (pipe_wall * workers)
          : 0.0,
      "ratio"};
  m["engines.commit_occupancy"] = {
      pipe_wall > 0 ? t.sum.commit_busy_us / pipe_wall : 0.0, "ratio"};
  m["engines.commit_stalls"] = {
      per_day(static_cast<double>(t.sum.commit_stalls)), "count/day"};
  m["engines.help_runs"] = {per_day(static_cast<double>(t.sum.help_runs)),
                            "count/day"};

  m["scan.probes_sent"] = {per_day(w.Get("probes_sent")), "count/day"};
  m["scan.candidates"] = {per_day(w.Get("censys.scan.candidates")),
                          "count/day"};
  m["scan.probes_filtered"] = {per_day(w.Get("censys.scan.probes_filtered")),
                               "count/day"};
  const double attempts = w.Get("censys.interrogate.attempts");
  m["interrogate.attempts"] = {per_day(attempts), "count/day"};
  m["interrogate.handshake_ratio"] = {
      attempts > 0 ? w.Get("censys.interrogate.handshakes") / attempts : 0.0,
      "ratio"};
  m["predict.candidates_emitted"] = {
      per_day(w.Get("predict.candidates_emitted")), "count/day"};
  m["pipeline.ingest_scans"] = {per_day(w.Get("censys.pipeline.ingest_scans")),
                                "count/day"};
  m["pipeline.ingest_failures"] = {
      per_day(w.Get("censys.pipeline.ingest_failures")), "count/day"};
  m["pipeline.evictions"] = {per_day(w.Get("censys.pipeline.evictions")),
                             "count/day"};
  m["pipeline.tracked_services"] = {
      static_cast<double>(in.rig->world->censys().write_side().tracked_count()),
      "count"};
  const double events = w.Get("censys.storage.events");
  m["storage.events"] = {per_day(events), "count/day"};
  m["storage.delta_bytes"] = {per_day(w.Get("censys.storage.delta_bytes")),
                              "B/day"};
  m["storage.snapshot_bytes"] = {
      per_day(w.Get("censys.storage.snapshot_bytes")), "B/day"};
  m["storage.wal_bytes_per_event"] = {
      events > 0 ? w.Get("censys.storage.wal.bytes") / events : 0.0, "B"};
  m["storage.wal_fsyncs"] = {per_day(w.Get("censys.storage.wal.fsyncs")),
                             "count/day"};

  const Counters& r = in.read_delta;
  const double lookups = r.Get("cache.hits") + r.Get("cache.misses");
  m["pipeline.cache_hit_ratio"] = {
      lookups > 0 ? r.Get("cache.hits") / lookups : 0.0, "ratio"};
  m["pipeline.cache_evictions"] = {r.Get("cache.evictions"), "count"};
  m["pipeline.cache_invalidations"] = {r.Get("cache.invalidations"),
                                       "count"};
  m["search.rebuild_ms"] = {in.rig->rebuild_ms, "ms"};
  m["query.build_day_ms"] = {in.rig->build_day_ms, "ms"};
  const double scans = r.Get("censys.query.scans");
  m["query.scan_rows"] = {scans > 0 ? r.Get("censys.query.scan_rows") / scans
                                    : 0.0,
                          "rows"};
  m["query.standing_us_per_event"] = {
      in.standing_events > 0 ? in.standing_us / in.standing_events : 0.0,
      "us"};
  m["query.standing_evals"] = {per_day(w.Get("censys.query.standing.evals")),
                               "count/day"};

  const StepResult& s = *in.reads;
  const double searches = static_cast<double>(s.latency[2].size());
  m["search.results_per_query"] = {
      searches > 0 ? static_cast<double>(s.search_results) / searches : 0.0,
      "count"};
  for (int c = 0; c < kClasses; ++c) {
    m[std::string("serving.") + kClassNames[c] + "_service_us_p50"] = {
        s.service[c].Percentile(0.5).value_or(0), "us"};
  }
  m["serving.queue_wait_us_p99"] = {s.queue_wait.Percentile(0.99).value_or(0),
                                    "us"};
  m["serving.retries"] = {static_cast<double>(s.retries), "count"};
  m["serving.degraded"] = {static_cast<double>(s.degraded), "count"};
  m["serving.shed"] = {static_cast<double>(s.shed), "count"};
  m["serving.failed"] = {static_cast<double>(s.failed), "count"};

  double pump_us = 0;
  for (double us : in.pump_us) pump_us += us;
  m["replicate.pump_ms_per_tick"] = {
      in.pump_us.empty() ? 0.0 : pump_us / 1000.0 / in.pump_us.size(), "ms"};
  m["replicate.shipped_records"] = {static_cast<double>(in.shipped_records),
                                    "count"};
  m["replicate.max_lag"] = {static_cast<double>(in.max_lag), "records"};

  m["bench.generator_late_us_p99"] = {
      s.generator_late.Percentile(0.99).value_or(0), "us"};
  m["bench.trace_overhead_pct"] = {in.trace_overhead_pct, "%"};
}

void PrintSpanReport(const SpanRecorder& spans) {
  if (!spans.enabled()) return;
  const auto self = spans.SelfTimeUs();
  const auto totals = spans.TotalsUs();
  std::printf("\nspan self time (%zu spans):\n", spans.span_count());
  std::printf("  %-24s %10s %12s %12s\n", "span", "count", "total ms",
              "self ms");
  for (const auto& [name, total] : totals) {
    const auto it = self.find(name);
    std::printf("  %-24s %10llu %12.2f %12.2f%s\n", name.c_str(),
                static_cast<unsigned long long>(total.second),
                total.first / 1000.0,
                it == self.end() ? 0.0 : it->second / 1000.0,
                name == "tick" ? "  (= unattributed)" : "");
  }
}

// --- workloads ---------------------------------------------------------------


// Ticks whole simulated days (12 ticks each, so every batch holds one
// daily stage) until at least `seconds` of wall time have gone by.
void TickDays(Rig& rig, double seconds, SpanRecorder& spans, TickLog& log,
              const std::function<void()>& after_tick = {}) {
  const double t0 = NowUs();
  const auto ticks_per_day = static_cast<int>(
      24 * 60 / rig.world->config().tick.minutes);
  do {
    for (int i = 0; i < ticks_per_day; ++i) {
      TickOnce(rig, spans, log);
      if (after_tick) after_tick();
    }
  } while (NowUs() - t0 < seconds * 1e6);
}

// Wall seconds of each simulated day in `log` (12 ticks apiece).
void PrintDayWalls(const char* what, const TickLog& log) {
  std::printf("%s: seconds per simulated day:", what);
  for (std::size_t i = 0; i + 12 <= log.wall_us.size(); i += 12) {
    double day = 0;
    for (std::size_t j = i; j < i + 12; ++j) day += log.wall_us[j];
    std::printf(" %.3f", day * 1e-6);
  }
  std::printf("\n");
}

double SimDaysPerSecond(const TickLog& log, const World& world) {
  return Days(log.ticks, world) / (log.WallUs() * 1e-6);
}

// How much slower the traced run was, percent.
double OverheadPct(double traced_cost, double untraced_cost) {
  return untraced_cost > 0
             ? 100.0 * (traced_cost - untraced_cost) / untraced_cost
             : 0.0;
}

double MeanServiceUs(const StepResult& step) {
  double total = 0;
  for (const Samples& s : step.service) total += s.Sum();
  return step.attempted > 0 ? total / static_cast<double>(step.attempted)
                            : 0.0;
}

// One frozen latency step at the reference rate, after a short discarded
// step that wakes the readers and touches the read path.
StepResult LatencyStep(Rig& rig, const QueryMix& mix, double seconds,
                       std::uint64_t seed, bool capture, SpanRecorder& spans,
                       Counters* read_delta) {
  StepPlan plan;
  plan.rate = kReferenceRate;
  plan.readers = kFrozenReaders;
  plan.seconds = kWarmupSeconds;
  {
    const bool traced = spans.enabled();
    spans.set_enabled(false);
    RunOpenLoop(*rig.frontend, mix, plan, seed ^ 0x5eed, spans);
    spans.set_enabled(traced);
  }
  plan.seconds = std::max(seconds, kLatencyStepQueries / kReferenceRate);
  plan.capture_every = capture ? kCaptureEvery : 0;
  const Counters before = Counters::Take(rig.engine());
  StepResult step = RunOpenLoop(*rig.frontend, mix, plan, seed, spans);
  if (read_delta != nullptr) {
    *read_delta = Counters::Take(rig.engine()).Minus(before);
  }
  return step;
}

// The analytics build a day of ticking ends with, so aggregates answer
// from a segment of the current day.
void BuildTodaySegment(Rig& rig, Result& result) {
  std::string error;
  if (!rig.tier->BuildDay(rig.world->now().minutes / (24 * 60), &error)) {
    result.Fail("analytics BuildDay: " + error);
  }
}

// The read half every workload reports: the latency step, the
// max_qps_at_slo ramp (traced runs only, where the per-layer report
// carries it), and their correctness checks.
StepResult FrozenReads(Rig& rig, const Args& args, double seconds,
                       bool ramp, Result& result, SpanRecorder& spans,
                       Counters* read_delta) {
  const QueryMix mix(rig.hosts, rig.world->now());
  StepResult step = LatencyStep(rig, mix, seconds, args.seed,
                                /*capture=*/true, spans, read_delta);
  result.attempted += step.attempted;
  result.failed += step.failed;
  AddLatencyMetrics(step, result);
  if (ramp) {
    // A capacity measurement: untraced even in a traced run.
    const bool traced = spans.enabled();
    spans.set_enabled(false);
    const Ramp r = RunRamp(rig, mix, args.seed, kRampStepSeconds, spans);
    spans.set_enabled(traced);
    for (const StepResult& s : r.steps) {
      result.attempted += s.attempted;
      result.failed += s.failed;
    }
    result.per_layer["max_qps_at_slo"] = {r.max_qps_at_slo, "1/s"};
  }
  CheckViews(rig, step, args, result);
  CheckAggregate(rig, args, result);
  std::printf("reads: done [t=%.1f s]\n", NowUs() * 1e-6);
  return step;
}

Result RunIngest(const Args& args, SpanRecorder& spans) {
  Result result;
  double setup_s = 0;
  std::vector<double> settle_rate;
  const bool trace = spans.enabled();
  auto rig = SetUp(args, kIngestWorkers, false, spans, &setup_s, &settle_rate);
  spans.set_enabled(false);
  const double tick_seconds = 0.5 * args.seconds;

  // The timed write path: no reads, 3 engine workers.
  double untraced_rate = 0;
  if (trace) {
    TickLog untraced;
    TickDays(*rig, tick_seconds, spans, untraced);
    untraced_rate = SimDaysPerSecond(untraced, *rig->world);
    result.attempted += untraced.ticks;
    spans.set_enabled(true);
  }
  TickLog log;
  const Counters before = Counters::Take(rig->engine());
  TickDays(*rig, tick_seconds, spans, log);
  const Counters write_delta = Counters::Take(rig->engine()).Minus(before);
  result.attempted += log.ticks;
  const double rate = SimDaysPerSecond(log, *rig->world);
  PrintDayWalls("ingest", log);
  std::printf("ingest: %llu ticks, %.2f sim days in %.3f s -> %.4f "
              "sim-days/s\n",
              static_cast<unsigned long long>(log.ticks),
              Days(log.ticks, *rig->world), log.WallUs() * 1e-6, rate);

  // Durability, untimed: a fresh journal recovered from the WAL must
  // digest like the live one.
  {
    censys::storage::EventJournal recovered(
        rig->engine().config().journal_options);
    const auto report = recovered.Recover();
    const std::uint64_t live =
        censys::replicate::JournalDigest(rig->engine().journal());
    std::uint64_t got = censys::replicate::JournalDigest(recovered);
    if (args.corrupt) got ^= 1;
    std::printf("check: WAL recovery replayed %llu records, digest "
                "%016llx vs live %016llx\n",
                static_cast<unsigned long long>(report.replayed_records),
                static_cast<unsigned long long>(got),
                static_cast<unsigned long long>(live));
    if (!report.ok) result.Fail("WAL recovery failed: " + report.error);
    if (got != live) result.Fail("recovered journal digest differs");
  }

  // The read metrics, on the map ingest leaves behind (frozen).
  BuildTodaySegment(*rig, result);
  Counters read_delta;
  const StepResult reads = FrozenReads(*rig, args, 0.3 * args.seconds,
                                       trace, result, spans, &read_delta);

  auto& m = result.end_to_end;
  m["setup_s"] = {setup_s, "s"};
  m["sim_days_per_s"] = {rate, "1/s"};
  if (trace) {
    LayerInputs in;
    in.rig = rig.get();
    in.ticks = &log;
    in.write_delta = write_delta;
    in.reads = &reads;
    in.read_delta = read_delta;
    in.trace_overhead_pct = OverheadPct(1.0 / rate, 1.0 / untraced_rate);
    AddLayerMetrics(in, result);
  }
  return result;
}

Result RunServe(const Args& args, SpanRecorder& spans) {
  Result result;
  double setup_s = 0;
  std::vector<double> settle_rate;
  const bool trace = spans.enabled();
  auto rig = SetUp(args, kIngestWorkers, false, spans, &setup_s, &settle_rate);
  spans.set_enabled(false);
  const double step_seconds = 0.5 * args.seconds;

  double untraced_service_us = 0;
  if (trace) {
    const QueryMix mix(rig->hosts, rig->world->now());
    const StepResult untraced =
        LatencyStep(*rig, mix, step_seconds, args.seed + 7,
                    /*capture=*/false, spans, nullptr);
    result.attempted += untraced.attempted;
    result.failed += untraced.failed;
    untraced_service_us = MeanServiceUs(untraced);
    spans.set_enabled(true);
  }
  Counters read_delta;
  const StepResult reads = FrozenReads(*rig, args, step_seconds, trace,
                                       result, spans, &read_delta);

  auto& m = result.end_to_end;
  m["setup_s"] = {setup_s, "s"};
  // Serve never ticks while measuring: its upkeep rate is that of the
  // settle ticks every World build runs (3 workers, no reads).
  m["sim_days_per_s"] = {Median(settle_rate), "1/s"};
  if (trace) {
    LayerInputs in;
    in.rig = rig.get();
    in.ticks = &rig->settle;
    in.write_delta = rig->settle_delta;
    in.reads = &reads;
    in.read_delta = read_delta;
    in.trace_overhead_pct =
        OverheadPct(MeanServiceUs(reads), untraced_service_us);
    AddLayerMetrics(in, result);
  }
  return result;
}

// One mixed phase: whole days ticked on this thread while the readers
// serve at a fixed rate; the readers stop when the last day is ticked.
struct MixedPhase {
  TickLog log;
  StepResult reads;
  Counters delta;
  std::vector<double> pump_us;
  std::uint64_t max_lag = 0;
  std::uint64_t pumps = 0;
  std::uint64_t pump_failures = 0;
  double standing_us = 0;
  std::uint64_t standing_events = 0;
};

// Mixed's upkeep rate: catching the follower up after every tick is part
// of keeping the map, so the pumps count with the ticks.
double MixedRate(const MixedPhase& phase, const World& world) {
  double pump_us = 0;
  for (double us : phase.pump_us) pump_us += us;
  return Days(phase.log.ticks, world) /
         ((phase.log.WallUs() + pump_us) * 1e-6);
}

MixedPhase RunMixedPhase(Rig& rig, double seconds, std::uint64_t seed,
                         SpanRecorder& spans) {
  MixedPhase phase;
  Consumers& c = *rig.consumers;
  QueryMix mix(rig.hosts, rig.world->now());
  const double observer0 = c.observer_us;
  const std::uint64_t events0 = c.observed_events;
  c.committed.clear();

  // The schedule runs well past the ticking; the readers stop when it
  // ends.
  std::atomic<bool> stop{false};
  StepPlan plan;
  plan.rate = kMixedRate;
  plan.seconds = 4 * seconds + 60;
  plan.readers = kMixedReaders;
  plan.stop = &stop;
  plan.sleep_wait = true;  // the ticking keeps the cores
  const Counters before = Counters::Take(rig.engine());
  std::thread readers([&] {
    phase.reads = RunOpenLoop(*rig.frontend, mix, plan, seed, spans);
  });
  const auto pump = [&] {
    mix.SetNow(rig.world->now());
    mix.SetHotSet(std::move(c.committed), kHotShare);
    c.committed.clear();
    const SpanRecorder::Scope span(spans, "replicate.pump");
    const double t0 = NowUs();
    phase.max_lag = std::max(phase.max_lag, c.group->MaxLag());
    for (int round = 0; round < 10000 && c.group->MaxLag() > 0; ++round) {
      std::string error;
      ++phase.pumps;
      if (!c.group->PumpAll(&error)) ++phase.pump_failures;
    }
    phase.pump_us.push_back(NowUs() - t0);
  };
  try {
    TickDays(rig, seconds, spans, phase.log, pump);
  } catch (...) {
    stop.store(true);
    readers.join();
    throw;
  }
  stop.store(true);
  readers.join();
  phase.delta = Counters::Take(rig.engine()).Minus(before);
  phase.standing_us = c.observer_us - observer0;
  phase.standing_events = c.observed_events - events0;
  return phase;
}

Result RunMixed(const Args& args, SpanRecorder& spans) {
  Result result;
  double setup_s = 0;
  std::vector<double> settle_rate;
  const bool trace = spans.enabled();
  auto rig = SetUp(args, kMixedWorkers, true, spans, &setup_s, &settle_rate);
  spans.set_enabled(false);
  const double phase_seconds = 0.5 * args.seconds;
  Consumers& c = *rig->consumers;

  double untraced_rate = 0;
  if (trace) {
    const MixedPhase untraced =
        RunMixedPhase(*rig, phase_seconds, args.seed + 7, spans);
    untraced_rate = MixedRate(untraced, *rig->world);
    result.attempted +=
        untraced.log.ticks + untraced.pumps + untraced.reads.attempted;
    result.failed += untraced.pump_failures + untraced.reads.failed;
    spans.set_enabled(true);
  }
  const std::uint64_t shipped0 = c.group->shipped_records();
  const MixedPhase phase = RunMixedPhase(*rig, phase_seconds, args.seed, spans);
  result.attempted += phase.log.ticks + phase.pumps + phase.reads.attempted;
  result.failed += phase.pump_failures + phase.reads.failed;
  const double rate = MixedRate(phase, *rig->world);
  PrintDayWalls("mixed", phase.log);
  std::printf("mixed: %llu ticks + %llu pump rounds, %.2f sim days -> "
              "%.4f sim-days/s; %llu queries at %.0f q/s\n",
              static_cast<unsigned long long>(phase.log.ticks),
              static_cast<unsigned long long>(phase.pumps),
              Days(phase.log.ticks, *rig->world), rate,
              static_cast<unsigned long long>(phase.reads.attempted),
              kMixedRate);
  PrintLatencies("latency under ticks", phase.reads);
  if (c.build_day_failures > 0) result.Fail("daily analytics build failed");

  // Replica convergence, untimed: catch the follower up, compare digests.
  {
    std::string error;
    const bool caught_up = c.group->CatchUp(0, 100000, &error);
    const std::uint64_t leader =
        censys::replicate::JournalDigest(rig->engine().journal());
    std::uint64_t got = c.group->follower(0).Digest();
    if (args.corrupt) got ^= 1;
    std::printf("check: follower digest %016llx vs leader %016llx\n",
                static_cast<unsigned long long>(got),
                static_cast<unsigned long long>(leader));
    if (!caught_up) result.Fail("follower did not catch up: " + error);
    if (got != leader) result.Fail("follower digest differs from the leader");
  }

  const std::uint64_t shipped = c.group->shipped_records() - shipped0;

  // The read metrics, on the map mixed leaves behind (frozen from here
  // on); the reads beside the ticks above feed the per-layer serving and
  // cache numbers.
  BuildTodaySegment(*rig, result);
  FrozenReads(*rig, args, 0, trace, result, spans, nullptr);

  auto& m = result.end_to_end;
  m["setup_s"] = {setup_s, "s"};
  m["sim_days_per_s"] = {rate, "1/s"};
  if (trace) {
    LayerInputs in;
    in.rig = rig.get();
    in.ticks = &phase.log;
    in.write_delta = phase.delta;
    in.reads = &phase.reads;
    in.read_delta = phase.delta;
    in.pump_us = phase.pump_us;
    in.shipped_records = shipped;
    in.max_lag = phase.max_lag;
    in.standing_us = phase.standing_us;
    in.standing_events = phase.standing_events;
    in.trace_overhead_pct = OverheadPct(1.0 / rate, 1.0 / untraced_rate);
    AddLayerMetrics(in, result);
  }
  return result;
}

}  // namespace

Result RunWorkload(const Args& args) {
  SpanRecorder spans(args.trace);
  Result result;
  if (args.workload == "ingest") {
    result = RunIngest(args, spans);
  } else if (args.workload == "serve") {
    result = RunServe(args, spans);
  } else if (args.workload == "mixed") {
    result = RunMixed(args, spans);
  } else {
    throw std::invalid_argument("unknown workload '" + args.workload + "'");
  }
  result.end_to_end["peak_rss_mb"] = {PeakRssMb(), "MB"};
  result.end_to_end["ok_ratio"] = {
      result.attempted > 0
          ? static_cast<double>(result.attempted - result.failed) /
                static_cast<double>(result.attempted)
          : 0.0,
      "ratio"};
  if (args.trace) {
    PrintSpanReport(spans);
    const std::string dir = args.work_dir + "/traces";
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".json";
    if (spans.WriteChromeTrace(path)) {
      std::printf("trace: %s\n", path.c_str());
    }
  }
  return result;
}

}  // namespace perfbench
