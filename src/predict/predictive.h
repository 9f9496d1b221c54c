// The predictive scan engine (§4.1 "Predictive Scanning").
//
// Censys "implements several dozen probabilistic models that rely on
// transport and application layer features along with network and
// geolocation data in an approach inspired by Izhikevich et al. [GPS]".
// Our engine learns two families of conditionals online from discovery
// results and proposes (ip, port) candidates:
//
//   1. network-port affinity:   P(port p open | network block b)
//      — services cluster by deployment (a hosting block full of :8443
//      panels predicts more of them);
//   2. port co-occurrence:      P(port q open on host | port p open)
//      — multi-service hosts open correlated ports (80 -> 443, 22 -> 2222).
//
// It also re-injects services pruned within the last 60 days (§4.6), so
// transiently-offline services on obscure ports are quickly re-found.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "core/rng.h"
#include "core/types.h"
#include "simnet/blocks.h"

namespace censys::predict {

struct PredictorStats {
  std::uint64_t observations = 0;
  std::uint64_t candidates_emitted = 0;
  std::uint64_t affinity_candidates = 0;
  std::uint64_t cooccurrence_candidates = 0;
};

class PredictiveEngine {
 public:
  struct Options {
    // Minimum observations of (block, port) before the affinity model
    // proposes that port across the block.
    std::uint32_t min_affinity_support = 3;
    // Minimum co-occurrence count before proposing a correlated port.
    std::uint32_t min_cooccurrence_support = 4;
    // Do not re-propose a candidate within this window.
    Duration proposal_cooldown = Duration::Days(7);
    // Cap on tracked co-occurrence pairs (memory guard).
    std::size_t max_pairs = 1u << 20;
  };

  PredictiveEngine(const simnet::BlockPlan& plan, std::uint64_t seed)
      : PredictiveEngine(plan, seed, Options()) {}
  PredictiveEngine(const simnet::BlockPlan& plan, std::uint64_t seed,
                   Options options);

  // Online training: a service was confirmed at `key`.
  void ObserveService(ServiceKey key);

  // Proposes up to `budget` candidates to probe at `now`. `now` must not
  // decrease from one call to the next.
  std::vector<ServiceKey> GenerateCandidates(Timestamp now,
                                             std::size_t budget);

  // One (block, port) affinity with at least min_affinity_support
  // observations.
  struct AffinityEntry {
    std::uint32_t block_id;
    Port port;
    std::uint32_t support;
    bool operator==(const AffinityEntry&) const = default;
  };
  // Every supported affinity, strongest first (support desc, then block,
  // then port). Candidate sampling indexes into this vector. Re-ranks only
  // the (block, port) counts that changed since the previous call.
  const std::vector<AffinityEntry>& AffinityRanking();

  // A correlated port and its co-occurrence count.
  using Correlation = std::pair<Port, std::uint32_t>;
  // The ports most often seen open beside `port` (count desc, then port
  // asc), at most kMaxCorrelated, each with min_cooccurrence_support.
  const std::vector<Correlation>& CorrelatedPorts(Port port) const;
  static constexpr std::size_t kMaxCorrelated = 8;

  // Keys held for the proposal cooldown. Expired ones are dropped once per
  // simulated day, so this stays near one cooldown's worth of proposals.
  std::size_t cooldown_entries() const { return last_proposed_.size(); }

  const PredictorStats& stats() const { return stats_; }

 private:
  bool Cooldown(ServiceKey key, Timestamp now);
  // A pair count involving `port` reached `count`: keep `port`'s top list
  // exact. Counts only grow, so `other` can enter the list only here.
  void RaiseCorrelation(Port port, Port other, std::uint32_t count);

  const simnet::BlockPlan& plan_;
  Options options_;
  Rng rng_;

  // Affinity model: (block_id, port) -> observation count.
  struct AffinityCount {
    std::uint32_t count = 0;
    std::uint32_t ranked = 0;  // support in hot_affinities_, 0 = absent
    bool queued = false;       // in rerank_
  };
  std::unordered_map<std::uint64_t, AffinityCount> block_port_counts_;
  // Ports seen per host (bounded small vectors).
  std::unordered_map<std::uint32_t, std::vector<Port>> host_ports_;
  // Co-occurrence model: (port_a << 16 | port_b) -> count, a < b.
  std::unordered_map<std::uint32_t, std::uint32_t> pair_counts_;
  // Per-port top correlated ports, updated on every pair-count increment.
  std::unordered_map<Port, std::vector<Correlation>> correlated_;
  // Hosts with fresh discoveries, drained first by candidate generation
  // (new hosts are the best co-occurrence targets).
  std::deque<std::uint32_t> recent_hosts_;
  // Proposal cooldown: packed key -> last proposal time.
  std::unordered_map<std::uint64_t, Timestamp> last_proposed_;
  std::int64_t last_prune_day_ = -1;

  // AffinityRanking's result, and the (block, port) keys whose count
  // changed since it was last brought up to date.
  std::vector<AffinityEntry> hot_affinities_;
  std::vector<std::uint64_t> rerank_;

  PredictorStats stats_;
};

}  // namespace censys::predict
