// Tests for the predictive scan engine and the web-property catalog.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/rng.h"

#include "cert/ct.h"
#include "predict/predictive.h"
#include "proto/tls.h"
#include "simnet/internet.h"
#include "web/webprops.h"

namespace censys {
namespace {

simnet::UniverseConfig SmallConfig() {
  simnet::UniverseConfig cfg;
  cfg.seed = 17;
  cfg.universe_size = 1u << 16;
  cfg.target_services = 8000;
  cfg.ics_scale = 0.0;
  return cfg;
}

// ------------------------------------------------------------------ predictive

TEST(PredictiveTest, AffinityProposalsTargetHotBlockPorts) {
  simnet::Internet net(SmallConfig());
  predict::PredictiveEngine engine(net.blocks(), 5);

  // Train: port 8443 is hot in one specific block.
  const simnet::NetworkBlock* block =
      net.blocks().BlocksOfType(simnet::NetworkType::kHosting).front();
  for (std::uint64_t i = 0; i < 24; ++i) {
    engine.ObserveService(
        {block->cidr.AddressAt(i * 3), 8443, Transport::kTcp});
  }

  const auto candidates = engine.GenerateCandidates(Timestamp{0}, 200);
  ASSERT_FALSE(candidates.empty());
  std::size_t in_block_on_port = 0;
  for (const ServiceKey& key : candidates) {
    if (block->cidr.Contains(key.ip) && key.port == 8443) ++in_block_on_port;
  }
  // The affinity model should focus most proposals on the hot (block, port).
  EXPECT_GT(in_block_on_port, candidates.size() / 2);
}

TEST(PredictiveTest, CooccurrenceProposesCorrelatedPortsOnNewHosts) {
  simnet::Internet net(SmallConfig());
  predict::PredictiveEngine::Options options;
  options.min_cooccurrence_support = 4;
  predict::PredictiveEngine engine(net.blocks(), 5, options);

  // Train the pair (80, 4567) on several multi-service hosts.
  for (std::uint32_t host = 100; host < 110; ++host) {
    engine.ObserveService({IPv4Address(host), 80, Transport::kTcp});
    engine.ObserveService({IPv4Address(host), 4567, Transport::kTcp});
  }
  engine.GenerateCandidates(Timestamp{0}, 1000);  // drain training hosts

  // A brand-new host shows up with port 80 open.
  engine.ObserveService({IPv4Address(7777), 80, Transport::kTcp});
  const auto candidates =
      engine.GenerateCandidates(Timestamp::FromHours(1), 400);
  bool proposed = false;
  for (const ServiceKey& key : candidates) {
    if (key.ip == IPv4Address(7777) && key.port == 4567) proposed = true;
  }
  EXPECT_TRUE(proposed);
}

TEST(PredictiveTest, CooldownPreventsImmediateReproposal) {
  simnet::Internet net(SmallConfig());
  predict::PredictiveEngine engine(net.blocks(), 5);
  const simnet::NetworkBlock* block =
      net.blocks().BlocksOfType(simnet::NetworkType::kHosting).front();
  for (std::uint64_t i = 0; i < 16; ++i) {
    engine.ObserveService({block->cidr.AddressAt(i), 9999, Transport::kTcp});
  }
  const auto first = engine.GenerateCandidates(Timestamp{0}, 100);
  const auto second = engine.GenerateCandidates(Timestamp{60}, 100);
  std::set<std::uint64_t> first_keys;
  for (const ServiceKey& k : first) first_keys.insert(k.Pack());
  for (const ServiceKey& k : second) {
    EXPECT_FALSE(first_keys.contains(k.Pack()))
        << k.ToString() << " re-proposed within cooldown";
  }
}

TEST(PredictiveTest, UntrainedEngineProposesNothing) {
  simnet::Internet net(SmallConfig());
  predict::PredictiveEngine engine(net.blocks(), 5);
  EXPECT_TRUE(engine.GenerateCandidates(Timestamp{0}, 100).empty());
}

TEST(PredictiveTest, StatsAreTracked) {
  simnet::Internet net(SmallConfig());
  predict::PredictiveEngine engine(net.blocks(), 5);
  const simnet::NetworkBlock* block =
      net.blocks().BlocksOfType(simnet::NetworkType::kCloud).front();
  for (std::uint64_t i = 0; i < 10; ++i) {
    engine.ObserveService({block->cidr.AddressAt(i), 8080, Transport::kTcp});
  }
  engine.GenerateCandidates(Timestamp{0}, 50);
  EXPECT_EQ(engine.stats().observations, 10u);
  EXPECT_GT(engine.stats().candidates_emitted, 0u);
}

// The full-rebuild reference for the predictive rankings: replays the same
// observations into plain count maps and ranks them from scratch, as the
// engine did before it kept the rankings up to date incrementally.
class RankingOracle {
 public:
  RankingOracle(const simnet::BlockPlan& plan,
                predict::PredictiveEngine::Options options)
      : plan_(plan), options_(options) {}

  void Observe(ServiceKey key) {
    const std::uint32_t block = plan_.BlockOf(key.ip).id;
    ++block_port_counts_[(static_cast<std::uint64_t>(block) << 16) | key.port];
    auto& ports = host_ports_[key.ip.value()];
    if (std::find(ports.begin(), ports.end(), key.port) != ports.end()) return;
    if (pair_counts_.size() < options_.max_pairs) {
      for (Port existing : ports) {
        ++pair_counts_[{std::min(existing, key.port),
                        std::max(existing, key.port)}];
      }
    }
    if (ports.size() < 16) ports.push_back(key.port);
  }

  std::vector<predict::PredictiveEngine::AffinityEntry> Affinities() const {
    std::vector<predict::PredictiveEngine::AffinityEntry> hot;
    for (const auto& [key, count] : block_port_counts_) {
      if (count < options_.min_affinity_support) continue;
      hot.push_back({static_cast<std::uint32_t>(key >> 16),
                     static_cast<Port>(key & 0xffff), count});
    }
    std::sort(hot.begin(), hot.end(), [](const auto& a, const auto& b) {
      if (a.support != b.support) return a.support > b.support;
      if (a.block_id != b.block_id) return a.block_id < b.block_id;
      return a.port < b.port;
    });
    return hot;
  }

  std::map<Port, std::vector<predict::PredictiveEngine::Correlation>>
  Correlated() const {
    std::map<Port, std::vector<predict::PredictiveEngine::Correlation>> out;
    for (const auto& [pair, count] : pair_counts_) {
      if (count < options_.min_cooccurrence_support) continue;
      out[pair.first].emplace_back(pair.second, count);
      out[pair.second].emplace_back(pair.first, count);
    }
    for (auto& [port, list] : out) {
      std::sort(list.begin(), list.end(), [](const auto& x, const auto& y) {
        if (x.second != y.second) return x.second > y.second;
        return x.first < y.first;
      });
      if (list.size() > predict::PredictiveEngine::kMaxCorrelated) {
        list.resize(predict::PredictiveEngine::kMaxCorrelated);
      }
    }
    return out;
  }

 private:
  const simnet::BlockPlan& plan_;
  predict::PredictiveEngine::Options options_;
  std::map<std::uint64_t, std::uint32_t> block_port_counts_;
  std::map<std::uint32_t, std::vector<Port>> host_ports_;
  std::map<std::pair<Port, Port>, std::uint32_t> pair_counts_;
};

// Seeded random observation streams over a few blocks, hosts and ports (so
// counts tie, lists overflow kMaxCorrelated and entries get displaced),
// interleaved with candidate generation. Both rankings must equal the full
// rebuild element for element — affinity sampling indexes into the list.
TEST(PredictiveTest, IncrementalRankingsMatchFullRebuild) {
  simnet::Internet net(SmallConfig());
  const std::vector<const simnet::NetworkBlock*> blocks =
      net.blocks().BlocksOfType(simnet::NetworkType::kHosting);
  ASSERT_GE(blocks.size(), 3u);
  for (const std::size_t max_pairs : {std::size_t{1} << 20, std::size_t{40}}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " max_pairs=" + std::to_string(max_pairs));
      predict::PredictiveEngine::Options options;
      options.max_pairs = max_pairs;
      predict::PredictiveEngine engine(net.blocks(), seed, options);
      RankingOracle oracle(net.blocks(), options);
      Rng rng(seed * 7919);
      for (int step = 0; step < 3000; ++step) {
        const simnet::NetworkBlock& block = *blocks[rng.NextBelow(3)];
        const ServiceKey key{block.cidr.AddressAt(rng.NextBelow(40)),
                             static_cast<Port>(8000 + rng.NextBelow(24)),
                             Transport::kTcp};
        engine.ObserveService(key);
        oracle.Observe(key);
        if (rng.NextBelow(50) != 0) continue;
        if (rng.NextBelow(2) == 0) {
          engine.GenerateCandidates(Timestamp{step}, 32);
        }
        ASSERT_EQ(engine.AffinityRanking(), oracle.Affinities())
            << "step " << step;
        const auto correlated = oracle.Correlated();
        for (Port port = 8000; port < 8024; ++port) {
          const auto it = correlated.find(port);
          const std::vector<predict::PredictiveEngine::Correlation> want =
              it == correlated.end()
                  ? std::vector<predict::PredictiveEngine::Correlation>{}
                  : it->second;
          ASSERT_EQ(engine.CorrelatedPorts(port), want)
              << "port " << port << " step " << step;
        }
      }
    }
  }
}

// Expired cooldown entries are dropped once per simulated day: over two
// simulated months of 2-hour ticks the map stays near one cooldown window
// of proposals instead of growing with every proposal ever made.
TEST(PredictiveTest, CooldownMapStaysBoundedOverLongRuns) {
  simnet::Internet net(SmallConfig());
  predict::PredictiveEngine engine(net.blocks(), 5);
  for (const simnet::NetworkBlock* block :
       net.blocks().BlocksOfType(simnet::NetworkType::kHosting)) {
    for (std::uint64_t i = 0; i < 8; ++i) {
      engine.ObserveService({block->cidr.AddressAt(i), 8443, Transport::kTcp});
    }
  }
  std::vector<std::size_t> emitted_per_day;
  std::size_t peak = 0;
  for (int day = 0; day < 60; ++day) {
    std::size_t emitted = 0;
    for (int tick = 0; tick < 12; ++tick) {
      const Timestamp now{day * 1440 + tick * 120};
      emitted += engine.GenerateCandidates(now, 100).size();
    }
    emitted_per_day.push_back(emitted);
    // Nothing older than the 7-day cooldown plus the day being pruned
    // survives: at most the last eight days' proposals.
    std::size_t window = 0;
    for (std::size_t d = emitted_per_day.size() >= 8
                             ? emitted_per_day.size() - 8
                             : 0;
         d < emitted_per_day.size(); ++d) {
      window += emitted_per_day[d];
    }
    EXPECT_LE(engine.cooldown_entries(), window) << "day " << day;
    peak = std::max(peak, engine.cooldown_entries());
  }
  EXPECT_LT(peak, engine.stats().candidates_emitted / 4);
}

// ------------------------------------------------------------------------- web

class WebTest : public ::testing::Test {
 protected:
  WebTest()
      : net_(WebConfig()), profile_{1, "t", 300.0, 1280.0},
        interrogator_(net_, profile_), catalog_(net_, interrogator_) {}

  static simnet::UniverseConfig WebConfig() {
    simnet::UniverseConfig cfg;
    cfg.seed = 23;
    cfg.universe_size = 1u << 16;
    cfg.target_services = 8000;
    cfg.sni_only_fraction = 0.10;
    cfg.ics_scale = 0.0;
    return cfg;
  }

  // Fills the CT log with certificates of current name-addressed services.
  std::size_t FillCtLog(Timestamp t) {
    std::size_t added = 0;
    net_.ForEachActiveService(t, [&](const simnet::SimService& svc) {
      if (!svc.requires_sni) return;
      const auto tls = proto::DeriveTls(svc.protocol, svc.seed, true);
      if (!tls) return;
      ct_log_.Append(cert::SynthesizeCertificate(tls->cert_seed, svc.sni_name,
                                                 Timestamp{0}),
                     t);
      ++added;
    });
    return added;
  }

  simnet::Internet net_;
  simnet::ScannerProfile profile_;
  interrogate::Interrogator interrogator_;
  cert::CtLog ct_log_;
  web::WebPropertyCatalog catalog_;
};

TEST_F(WebTest, CtPollingDiscoversWebProperties) {
  const std::size_t logged = FillCtLog(Timestamp{0});
  ASSERT_GT(logged, 50u);
  const std::size_t added = catalog_.PollCtLog(ct_log_, Timestamp{0});
  EXPECT_GT(added, logged / 2);  // wildcards skipped, rest registered
  EXPECT_EQ(catalog_.size(), added);
  // Most registered properties resolve and serve content.
  EXPECT_GT(catalog_.reachable_count(), added * 7 / 10);
}

TEST_F(WebTest, PollingIsIncremental) {
  FillCtLog(Timestamp{0});
  catalog_.PollCtLog(ct_log_, Timestamp{0});
  // Nothing new: second poll adds nothing.
  EXPECT_EQ(catalog_.PollCtLog(ct_log_, Timestamp{10}), 0u);
}

TEST_F(WebTest, ScannedPropertyCarriesNamedContent) {
  FillCtLog(Timestamp{0});
  catalog_.PollCtLog(ct_log_, Timestamp{0});
  const web::WebProperty* reachable = nullptr;
  catalog_.ForEach([&](const web::WebProperty& prop) {
    if (reachable == nullptr && prop.reachable) reachable = &prop;
  });
  ASSERT_NE(reachable, nullptr);
  // The record was fetched with the right SNI, so it is not the generic
  // frontend page.
  EXPECT_NE(reachable->record.html_title, "Default web page");
  EXPECT_EQ(reachable->record.sni_name, reachable->name);
}

TEST_F(WebTest, RefreshDueHonorsInterval) {
  FillCtLog(Timestamp{0});
  catalog_.PollCtLog(ct_log_, Timestamp{0});
  EXPECT_EQ(catalog_.RefreshDue(Timestamp::FromDays(10)), 0u);  // too soon
  const std::size_t refreshed = catalog_.RefreshDue(Timestamp::FromDays(31));
  EXPECT_EQ(refreshed, catalog_.size());  // "at least monthly"
}

TEST_F(WebTest, DeadNamesBecomeUnreachableOnRefresh) {
  FillCtLog(Timestamp{0});
  catalog_.PollCtLog(ct_log_, Timestamp{0});
  const std::size_t before = catalog_.reachable_count();
  net_.AdvanceTo(Timestamp::FromDays(31));
  catalog_.RefreshDue(net_.now());
  // Churn killed some name-addressed services; their properties flip to
  // unreachable but remain catalogued.
  EXPECT_LT(catalog_.reachable_count(), before);
  EXPECT_GT(catalog_.reachable_count(), 0u);
}

TEST_F(WebTest, ManualNamesFromPassiveDns) {
  catalog_.AddName("nonexistent.example.com",
                   web::WebProperty::Source::kPassiveDns, Timestamp{0});
  const web::WebProperty* prop = catalog_.Get("nonexistent.example.com");
  ASSERT_NE(prop, nullptr);
  EXPECT_FALSE(prop->reachable);
  EXPECT_EQ(prop->source, web::WebProperty::Source::kPassiveDns);
}

}  // namespace
}  // namespace censys
