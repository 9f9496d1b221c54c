// Stages 3-5 of the tick pipeline: parallel execute overlapped with an
// in-order commit on the command thread.
//
//   command thread                    workers (Executor::Broadcast)
//   --------------                    -----------------------------
//   commit ready slots in SEQUENCE    claim next_.fetch_add(1) < n,
//   order (group-committed); when     interrogate (pure), stage the
//   the next slot is not ready,       result into slots_[i], release-
//   claim and execute a job itself    set its ready flag
//
// Every job index of a wave is known before the wave starts, so one atomic
// claim cursor hands out work: workers and the command thread take indices
// with fetch_add until the cursor passes n. Results land in a flat array of
// cache-line-aligned slots, one per job, that the command thread drains
// strictly in index order, group-committing journal appends through
// WriteSide::BeginCommitBatch. When the head slot is not ready it claims a
// job and runs it itself ("help") instead of idling. With threads = 0
// Broadcast is a no-op, so the same loop claims, executes and commits
// every job inline, in order.
//
// A plain ParallelFor + barrier + commit loop would serialize execute and
// commit: the command thread commits for most of the pipeline's wall time,
// so the overlap is what keeps execute off the tick's critical path.
//
// Determinism is by construction: interrogation is pure
// (InterrogateDetached), every side effect commits on the command thread
// in index order, and group-commit batch boundaries never change journal
// content.
//
// Concurrency: the claim cursor `next_` and the per-slot `ready` flags
// (release store / acquire load) carry all cross-thread communication;
// slots are reset and the cursor rewound only while no worker runs
// (Broadcast and JoinBroadcast order them). Workers read `jobs_` and the
// interrogator const-only. There are no mutexes or condition variables on
// this path (censyslint enforces the absence for src/engines/ and
// src/interrogate/).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/executor.h"
#include "interrogate/interrogator.h"
#include "pipeline/write_side.h"
#include "predict/predictive.h"

namespace censys::engines {

// One unit of stage-3 work. PoP and UDP hint are assigned serially in
// candidate-sequence order before fan-out; the commit flags say how the
// outcome feeds stage 5.
struct InterrogationJob {
  ServiceKey key;
  Timestamp at;
  int pop = 0;
  std::optional<proto::Protocol> udp_hint;
  // false: skip interrogation and commit a failure (opted-out refresh).
  bool interrogate = true;
  // Refresh semantics: a miss is journaled as a failed refresh.
  bool ingest_failure_on_miss = false;
  // Discovery semantics: a hit trains the predictive engine.
  bool observe_predictive = true;
  // Precompute the entity projection (ServiceFields + content hash) in the
  // worker. Job builders clear this for hosts already pseudo-flagged at
  // build time — their ingests are suppressed before the projection is
  // ever read, so computing it would be pure waste. Set serially, so the
  // decision is deterministic.
  bool project = true;
};

// Cumulative across Run calls; the engine resets per tick.
struct TickPipelineStats {
  std::uint64_t jobs = 0;
  std::uint64_t waves = 0;         // Run invocations
  std::uint64_t batch_flushes = 0; // group-commit flushes issued
  std::uint64_t help_runs = 0;     // jobs the command thread executed
  std::uint64_t commit_stalls = 0; // yields waiting on an unpublished slot
  double wall_us = 0;              // stage 3-5 wall clock
  double worker_busy_us = 0;       // Execute time on worker threads
  double help_busy_us = 0;         // Execute time on the command thread
  double commit_busy_us = 0;       // command-thread commit work
};

class TickPipeline {
 public:
  TickPipeline(Executor& executor, interrogate::Interrogator& interrogator,
               pipeline::WriteSide& write_side,
               predict::PredictiveEngine& predictive,
               std::uint32_t commit_batch);

  TickPipeline(const TickPipeline&) = delete;
  TickPipeline& operator=(const TickPipeline&) = delete;

  // Runs stages 3-5 for `jobs`, committing results in index order. `jobs`
  // must be in candidate-sequence order. Rethrows the first commit-side
  // exception (e.g. storage::WalIoError) after quiescing the workers.
  void Run(const std::vector<InterrogationJob>& jobs);

  const TickPipelineStats& stats() const { return stats_; }
  void ResetStats() {
    stats_ = TickPipelineStats{};
    worker_busy_us_.store(0, std::memory_order_relaxed);
  }

 private:
  // What a worker stages for the commit stage: the pure interrogation
  // result plus the projections the serial stage would otherwise compute.
  struct StagedResult {
    interrogate::InterrogationResult result;
    storage::FieldMap service_fields;  // ServiceFields(*result.record)
    std::uint64_t content_hash = 0;    // WriteSide::ContentHash
    bool projected = false;            // fields/hash above are filled in
  };

  // One job's staging cell, on its own cache line. Worker-private until
  // `ready` is release-set; command-thread-owned once an acquire load
  // observes it.
  struct alignas(64) Slot {
    std::atomic<std::uint32_t> ready{0};
    StagedResult value;
  };

  // Stage 3 for one job, into its slot; publishes when done and returns
  // its own run time in microseconds. Pure except for the slot — safe on
  // any thread.
  double Execute(std::size_t index);
  // Stage 4+5 for one published slot (command thread only).
  void Commit(std::size_t index);

  Executor& executor_;
  interrogate::Interrogator& interrogator_;
  pipeline::WriteSide& write_side_;
  predict::PredictiveEngine& predictive_;
  const std::uint32_t commit_batch_;

  // Grown to the largest wave seen; the first n are reset per wave.
  std::vector<Slot> slots_;
  const std::vector<InterrogationJob>* jobs_ = nullptr;
  // Next unclaimed job index; values >= n mean the wave has no work left.
  alignas(64) std::atomic<std::size_t> next_{0};

  TickPipelineStats stats_;
  std::atomic<std::uint64_t> worker_busy_us_{0};
};

}  // namespace censys::engines
