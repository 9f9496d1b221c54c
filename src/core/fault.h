// Deterministic, seed-driven fault injection.
//
// Robustness code paths — the WAL, the serving read path, the prober —
// declare named *injection points* ("storage.wal.append", "serving.read",
// "interrogate.probe", ...) by calling fault::Hit(point) inline. When the
// global Injector is armed with a seed and a set of rules, a hit may
// return a Fault describing what the site must simulate:
//
//   kErrorReturn  the operation reports failure (disk full, read error)
//   kTornWrite    only a prefix of the bytes lands, then the process dies
//   kBitFlip      one bit of the buffer is silently corrupted
//   kCrash        simulated process death: the site throws CrashException,
//                 which unwinds to the torture harness (nothing in src/
//                 catches it — it stands in for SIGKILL)
//   kReorder      a message overtakes its predecessor on a link (the
//                 replication shipper delivers the next run first, so the
//                 receiver sees a gap and must NACK)
//   kStall        the operation silently makes no progress this round (a
//                 slow replica / congested link; retried later)
//
// The replication layer declares "replicate.ship" (one hit per shipment
// on the leader->follower link: loss, reorder, bit-flip, torn shipment,
// stall) and "replicate.apply" (one hit per shipped record on the
// follower's apply path: kCrash dies mid-apply, anything else stalls the
// rest of the shipment).
//
// Determinism: whether hit #i of point P fires — and the fault's tear
// fraction / bit offset — is a pure stateless function of (seed, P, i),
// hashed via SplitMix64. There is no shared RNG stream to race on, so a
// schedule is reproducible even when points are hit from many threads in
// arbitrary interleavings (per-point hit numbering is the only shared
// state, a relaxed atomic).
//
// Cost: with CENSYSIM_FAULT_INJECTION compiled off (production), Hit() is
// a constant nullopt and the whole layer folds away. Compiled on but
// disarmed, a hit is one relaxed atomic load.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace censys::fault {

enum class Mode : std::uint8_t {
  kErrorReturn = 0,
  kTornWrite = 1,
  kBitFlip = 2,
  kCrash = 3,
  kReorder = 4,
  kStall = 5,
};

std::string_view ToString(Mode mode);

// What a firing injection point must simulate.
struct Fault {
  Mode mode = Mode::kErrorReturn;
  // kTornWrite: fraction of the record's bytes that reach the medium
  // before the simulated death (deterministically derived, in [0, 1)).
  double tear_frac = 0.5;
  // kBitFlip: raw bit offset to flip; sites take it modulo buffer size.
  std::uint64_t bit = 0;
};

// One scheduled fault source. A rule matches exactly one point name.
struct Rule {
  std::string point;
  Mode mode = Mode::kErrorReturn;
  // Per-hit firing probability (1.0 = every eligible hit).
  double probability = 1.0;
  // The first `skip_hits` hits of the point never fire — "crash at the
  // Nth append" is Rule{point, kCrash, 1.0, N}.
  std::uint64_t skip_hits = 0;
  // Stop firing after this many fires (the fault is transient).
  std::uint64_t max_fires = std::numeric_limits<std::uint64_t>::max();
};

// Simulated process death. Deliberately NOT derived from std::exception:
// a generic catch(const std::exception&) must not be able to swallow a
// SIGKILL stand-in. Only torture harnesses catch this type.
struct CrashException {
  std::string point;
  std::uint64_t hit = 0;
};

// Concurrency: Check() is safe from any number of threads once armed
// (per-rule hit/fire counters are relaxed atomics; the rule list is
// immutable while armed). Arm()/Disarm() must not race in-flight Check()
// calls — the harness arms and disarms while the system is quiescent.
class Injector {
 public:
  static Injector& Global();

  void Arm(std::uint64_t seed, std::vector<Rule> rules);
  void Disarm();
  bool armed() const { return armed_.load(std::memory_order_acquire); }

  // Consumes one hit of `point`; returns the fault to simulate, if any.
  // Call through fault::Hit() so the disarmed/compiled-out fast path stays
  // a single branch.
  std::optional<Fault> Check(std::string_view point);

  // Total hits / fires recorded for `point` since Arm (for assertions).
  std::uint64_t hits(std::string_view point) const;
  std::uint64_t fires(std::string_view point) const;

 private:
  struct PointState {
    Rule rule;
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> fires{0};
  };

  std::atomic<bool> armed_{false};
  std::uint64_t seed_ = 0;
  std::vector<std::unique_ptr<PointState>> points_;
};

// The one call sites make. Returns the fault to simulate at `point`, or
// nullopt. Crash semantics are the *site's* job: WAL-layer sites throw
// CrashException for Mode::kCrash; pure read paths (serving) treat every
// mode as a transient error because a reader has nothing to tear.
#if defined(CENSYSIM_FAULT_INJECTION)
inline std::optional<Fault> Hit(std::string_view point) {
  Injector& injector = Injector::Global();
  if (!injector.armed()) return std::nullopt;
  return injector.Check(point);
}
#else
inline std::optional<Fault> Hit(std::string_view) { return std::nullopt; }
#endif

// The byte arithmetic injection sites share, so every site damages its
// buffer by the same rule.
//
// kBitFlip: flips bit `bit % (n * 8)` of the n > 0 bytes at `p` and
// returns that bit's index.
inline std::size_t FlipBit(char* p, std::size_t n, std::uint64_t bit) {
  const std::size_t index = bit % (n * 8);
  p[index / 8] ^= static_cast<char>(1u << (index % 8));
  return index;
}

// kTornWrite: how many of an n-byte write's bytes land before the tear —
// `frac` of them, at least one, and (for n > 1) never all of them.
inline std::size_t TornLength(std::size_t n, double frac) {
  return std::clamp<std::size_t>(
      static_cast<std::size_t>(frac * static_cast<double>(n)), 1,
      n > 1 ? n - 1 : 1);
}

// RAII arming for tests: arms the global injector on construction,
// disarms on destruction.
class ScopedPlan {
 public:
  ScopedPlan(std::uint64_t seed, std::vector<Rule> rules) {
    Injector::Global().Arm(seed, std::move(rules));
  }
  ScopedPlan(const ScopedPlan&) = delete;
  ScopedPlan& operator=(const ScopedPlan&) = delete;
  ~ScopedPlan() { Injector::Global().Disarm(); }
};

}  // namespace censys::fault
