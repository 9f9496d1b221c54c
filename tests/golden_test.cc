// Cross-version golden values: a small World run for four simulated days
// must reproduce figures pinned from an earlier build of the engine.
//
// The determinism suites compare runs of one build against each other (the
// serial run against threaded ones), so a change that alters behaviour the
// same way at every thread count passes them. This test pins absolute
// values instead: the replicated-journal digest, the last daily analytics
// snapshot and the predictive engine's counters. Four days is long enough
// for 72-hour evictions to land and for the pruned services to come back
// through re-injection. A deliberate behaviour change must re-measure and
// re-pin these values in the same change, and say so.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>

#include "engines/world.h"
#include "replicate/follower.h"

namespace censys::engines {
namespace {

struct Golden {
  std::uint64_t journal_digest = 0;
  std::uint64_t journal_events = 0;
  std::uint64_t tracked = 0;
  std::uint64_t evicted = 0;
  std::int64_t snapshot_day = 0;
  std::uint64_t snapshot_services = 0;
  std::uint64_t snapshot_hosts = 0;
  std::uint64_t snapshot_maps = 0;  // FNV-1a over the three breakdowns
  std::uint64_t observations = 0;
  std::uint64_t candidates_emitted = 0;
  std::uint64_t affinity_candidates = 0;
  std::uint64_t cooccurrence_candidates = 0;
};

std::uint64_t Mix(std::uint64_t h, std::string_view s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t SnapshotMapsDigest(const search::DailySnapshot& snapshot) {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& [name, count] : snapshot.by_protocol) {
    h = Mix(Mix(h, name), std::to_string(count));
  }
  for (const auto& [port, count] : snapshot.by_port) {
    h = Mix(Mix(h, std::to_string(port)), std::to_string(count));
  }
  for (const auto& [country, count] : snapshot.by_country) {
    h = Mix(Mix(h, country), std::to_string(count));
  }
  return h;
}

// BM_EngineTick's world (bench/micro_core.cc), run for four days.
Golden RunFourDays(int threads) {
  WorldConfig cfg;
  cfg.universe.seed = 5;
  cfg.universe.universe_size = 1u << 16;
  cfg.universe.target_services = 9000;
  cfg.universe.ics_scale = 128;
  cfg.with_alternatives = false;
  cfg.censys.threads = threads;
  World world(cfg);
  world.Bootstrap();
  world.RunForDays(4.0);

  CensysEngine& engine = world.censys();
  Golden g;
  g.journal_digest = replicate::JournalDigest(engine.journal());
  g.journal_events = engine.journal().event_count();
  g.tracked = engine.write_side().tracked_count();
  g.evicted = engine.write_side().services_evicted();
  const auto snapshot = engine.analytics().GetLatestUpToCopy(
      world.now().minutes / 1440);
  if (snapshot.has_value()) {
    g.snapshot_day = snapshot->day;
    g.snapshot_services = snapshot->total_services;
    g.snapshot_hosts = snapshot->total_hosts;
    g.snapshot_maps = SnapshotMapsDigest(*snapshot);
  }
  const predict::PredictorStats& stats = engine.predictor_stats();
  g.observations = stats.observations;
  g.candidates_emitted = stats.candidates_emitted;
  g.affinity_candidates = stats.affinity_candidates;
  g.cooccurrence_candidates = stats.cooccurrence_candidates;
  return g;
}

// Measured on the engine before the command thread's per-tick scans were
// replaced by incrementally maintained indexes; that change kept them.
void ExpectPinned(const Golden& g) {
  EXPECT_EQ(g.journal_digest, 0x354a8316d6360627ull);
  EXPECT_EQ(g.journal_events, 8538u);
  EXPECT_EQ(g.tracked, 7710u);
  EXPECT_EQ(g.evicted, 150u);
  EXPECT_EQ(g.snapshot_day, 4);
  EXPECT_EQ(g.snapshot_services, 7734u);
  EXPECT_EQ(g.snapshot_hosts, 6999u);
  EXPECT_EQ(g.snapshot_maps, 0x6ae23e5e48915531ull);
  EXPECT_EQ(g.observations, 26203u);
  EXPECT_EQ(g.candidates_emitted, 13104u);
  EXPECT_EQ(g.affinity_candidates, 7824u);
  EXPECT_EQ(g.cooccurrence_candidates, 5280u);
}

TEST(GoldenDigestTest, FourDaySerialRunMatchesPinnedValues) {
  ExpectPinned(RunFourDays(0));
}

// The same figures from a threaded run: the pinned values hold at any
// worker count, not only the serial fallback.
TEST(GoldenDigestTest, FourDayThreadedRunMatchesPinnedValues) {
  int threads = 3;
  if (const char* env = std::getenv("CENSYSIM_THREADS")) {
    threads = std::atoi(env);
  }
  ExpectPinned(RunFourDays(threads));
}

}  // namespace
}  // namespace censys::engines
