#include "predict/predictive.h"

#include <algorithm>
#include <iterator>

namespace censys::predict {
namespace {

std::uint64_t BlockPortKey(std::uint32_t block_id, Port port) {
  return (static_cast<std::uint64_t>(block_id) << 16) | port;
}

std::uint32_t PairKey(Port a, Port b) {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint32_t>(a) << 16) | b;
}

// Affinity order: strongest first, ties by block then port. Entries are
// unique per (block, port), so this is a strict total order.
bool StrongerAffinity(const PredictiveEngine::AffinityEntry& a,
                      const PredictiveEngine::AffinityEntry& b) {
  if (a.support != b.support) return a.support > b.support;
  if (a.block_id != b.block_id) return a.block_id < b.block_id;
  return a.port < b.port;
}

bool StrongerCorrelation(const PredictiveEngine::Correlation& x,
                         const PredictiveEngine::Correlation& y) {
  if (x.second != y.second) return x.second > y.second;
  return x.first < y.first;
}

}  // namespace

PredictiveEngine::PredictiveEngine(const simnet::BlockPlan& plan,
                                   std::uint64_t seed, Options options)
    : plan_(plan), options_(options), rng_(SplitMix64(seed ^ 0x93ED1C7)) {}

void PredictiveEngine::ObserveService(ServiceKey key) {
  ++stats_.observations;
  const simnet::NetworkBlock& block = plan_.BlockOf(key.ip);
  const std::uint64_t block_port = BlockPortKey(block.id, key.port);
  AffinityCount& affinity = block_port_counts_[block_port];
  ++affinity.count;
  if (!affinity.queued) {
    affinity.queued = true;
    rerank_.push_back(block_port);
  }

  auto& ports = host_ports_[key.ip.value()];
  if (std::find(ports.begin(), ports.end(), key.port) == ports.end()) {
    // Update co-occurrence with previously known ports on this host.
    if (pair_counts_.size() < options_.max_pairs) {
      for (Port existing : ports) {
        const std::uint32_t count = ++pair_counts_[PairKey(existing, key.port)];
        if (count >= options_.min_cooccurrence_support) {
          RaiseCorrelation(existing, key.port, count);
          RaiseCorrelation(key.port, existing, count);
        }
      }
    }
    if (ports.size() < 16) ports.push_back(key.port);
    // Freshly (re)discovered hosts are prime co-occurrence targets.
    if (recent_hosts_.size() < 65536) recent_hosts_.push_back(key.ip.value());
  }
}

void PredictiveEngine::RaiseCorrelation(Port port, Port other,
                                        std::uint32_t count) {
  std::vector<Correlation>& list = correlated_[port];
  const Correlation raised{other, count};
  // A listed partner's count was count - 1, so its raised entry always
  // outranks the weakest one: a full list that `raised` does not beat
  // cannot contain `other`. Most raises stop here.
  if (list.size() == kMaxCorrelated &&
      !StrongerCorrelation(raised, list.back())) {
    return;
  }
  auto it = std::find_if(list.begin(), list.end(), [other](const auto& c) {
    return c.first == other;
  });
  if (it != list.end()) {
    it->second = count;
  } else if (list.size() < kMaxCorrelated) {
    list.push_back(raised);
    it = list.end() - 1;
  } else {
    list.back() = raised;  // displaces the weakest of the top list
    it = list.end() - 1;
  }
  // The raised entry only moves toward the head.
  for (; it != list.begin() && StrongerCorrelation(*it, *(it - 1)); --it) {
    std::iter_swap(it, it - 1);
  }
}

const std::vector<PredictiveEngine::Correlation>&
PredictiveEngine::CorrelatedPorts(Port port) const {
  static const std::vector<Correlation> kNone;
  const auto it = correlated_.find(port);
  return it == correlated_.end() ? kNone : it->second;
}

const std::vector<PredictiveEngine::AffinityEntry>&
PredictiveEngine::AffinityRanking() {
  if (rerank_.empty()) return hot_affinities_;
  // Locate each re-ranked key's stale entry by its old support, and build
  // its new entry from the current count.
  std::vector<std::size_t> stale;
  std::vector<AffinityEntry> fresh;
  for (const std::uint64_t block_port : rerank_) {
    AffinityCount& affinity = block_port_counts_.at(block_port);
    const auto block_id = static_cast<std::uint32_t>(block_port >> 16);
    const auto port = static_cast<Port>(block_port & 0xffff);
    if (affinity.ranked != 0) {
      const AffinityEntry old{block_id, port, affinity.ranked};
      stale.push_back(static_cast<std::size_t>(
          std::lower_bound(hot_affinities_.begin(), hot_affinities_.end(),
                           old, StrongerAffinity) -
          hot_affinities_.begin()));
    }
    affinity.queued = false;
    affinity.ranked = 0;
    if (affinity.count >= options_.min_affinity_support) {
      fresh.push_back(AffinityEntry{block_id, port, affinity.count});
      affinity.ranked = affinity.count;
    }
  }
  rerank_.clear();
  // Every lower_bound above ran on the still-sorted list; now drop the
  // stale entries and merge the fresh ones in. The result equals a full
  // sort of every supported count.
  for (const std::size_t index : stale) hot_affinities_[index].support = 0;
  std::erase_if(hot_affinities_,
                [](const AffinityEntry& entry) { return entry.support == 0; });
  std::sort(fresh.begin(), fresh.end(), StrongerAffinity);
  std::vector<AffinityEntry> merged;
  merged.reserve(hot_affinities_.size() + fresh.size());
  std::merge(hot_affinities_.begin(), hot_affinities_.end(), fresh.begin(),
             fresh.end(), std::back_inserter(merged), StrongerAffinity);
  hot_affinities_.swap(merged);
  return hot_affinities_;
}

bool PredictiveEngine::Cooldown(ServiceKey key, Timestamp now) {
  auto [it, inserted] = last_proposed_.try_emplace(key.Pack(), now);
  if (inserted) return true;
  if (it->second + options_.proposal_cooldown > now) return false;
  it->second = now;
  return true;
}

std::vector<ServiceKey> PredictiveEngine::GenerateCandidates(
    Timestamp now, std::size_t budget) {
  std::vector<ServiceKey> out;
  out.reserve(budget);

  // Once per simulated day, drop cooldown entries that have expired: for an
  // absent key Cooldown() answers exactly as for an expired one.
  const std::int64_t day = now.minutes / 1440;
  if (day != last_prune_day_) {
    last_prune_day_ = day;
    std::erase_if(last_proposed_, [&](const auto& entry) {
      return entry.second + options_.proposal_cooldown <= now;
    });
  }

  const std::vector<AffinityEntry>& hot_affinities = AffinityRanking();

  // --- model 1: network-port affinity -----------------------------------------
  const std::size_t affinity_budget = budget * 6 / 10;
  if (!hot_affinities.empty()) {
    std::size_t emitted = 0;
    std::size_t attempts = 0;
    const std::size_t max_attempts = affinity_budget * 4;
    while (emitted < affinity_budget && attempts < max_attempts) {
      ++attempts;
      // Sample affinities with bias toward the head of the list.
      const std::size_t index = static_cast<std::size_t>(
          rng_.NextBelow(hot_affinities.size()) *
          rng_.NextDouble());  // squared-uniform: head-heavy
      const AffinityEntry& entry = hot_affinities[index];
      const simnet::NetworkBlock& block = plan_.blocks()[entry.block_id];
      const IPv4Address ip = block.cidr.AddressAt(
          rng_.NextBelow(block.cidr.size()));
      const ServiceKey key{ip, entry.port, Transport::kTcp};
      if (!Cooldown(key, now)) continue;
      out.push_back(key);
      ++emitted;
      ++stats_.affinity_candidates;
    }
  }

  // --- model 2: port co-occurrence ---------------------------------------------
  // For hosts with known services, propose the most strongly correlated
  // ports. Hosts with fresh discoveries are drained first — a brand-new
  // host with port 80 open is the best candidate for its siblings.
  std::size_t emitted = 0;
  const std::size_t cooccur_budget = budget - out.size();
  auto propose_for_host = [&](std::uint32_t ip) {
    const auto hp = host_ports_.find(ip);
    if (hp == host_ports_.end()) return;
    for (Port known : hp->second) {
      for (const auto& [candidate_port, support] : CorrelatedPorts(known)) {
        if (std::find(hp->second.begin(), hp->second.end(), candidate_port) !=
            hp->second.end())
          continue;  // already known open
        const ServiceKey key{IPv4Address(ip), candidate_port, Transport::kTcp};
        if (!Cooldown(key, now)) continue;
        out.push_back(key);
        ++emitted;
        ++stats_.cooccurrence_candidates;
        if (emitted >= cooccur_budget) return;
      }
    }
  };

  // Fresh hosts first.
  while (emitted < cooccur_budget && !recent_hosts_.empty()) {
    const std::uint32_t ip = recent_hosts_.front();
    recent_hosts_.pop_front();
    propose_for_host(ip);
  }
  // Then a random sweep over known hosts.
  if (!host_ports_.empty()) {
    std::size_t attempts = 0;
    const std::size_t max_attempts = cooccur_budget * 4 + 16;
    const std::size_t bucket_count = host_ports_.bucket_count();
    std::size_t bucket = static_cast<std::size_t>(
        SplitMix64(static_cast<std::uint64_t>(now.minutes)) % bucket_count);
    while (emitted < cooccur_budget && attempts < max_attempts) {
      ++attempts;
      bucket = (bucket + 1) % bucket_count;
      for (auto it = host_ports_.begin(bucket);
           it != host_ports_.end(bucket) && emitted < cooccur_budget; ++it) {
        propose_for_host(it->first);
      }
    }
  }

  stats_.candidates_emitted += out.size();
  return out;
}

}  // namespace censys::predict
