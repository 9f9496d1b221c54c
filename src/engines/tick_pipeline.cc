#include "engines/tick_pipeline.h"

#include <string>
#include <thread>

#include "core/metrics.h"
#include "core/trace.h"
#include "pipeline/entity.h"

namespace censys::engines {

TickPipeline::TickPipeline(Executor& executor,
                           interrogate::Interrogator& interrogator,
                           pipeline::WriteSide& write_side,
                           predict::PredictiveEngine& predictive,
                           std::uint32_t commit_batch)
    : executor_(executor),
      interrogator_(interrogator),
      write_side_(write_side),
      predictive_(predictive),
      commit_batch_(commit_batch == 0 ? 1 : commit_batch) {}

double TickPipeline::Execute(std::size_t index) {
  const metrics::ScopedTimer timer({});
  const InterrogationJob& job = (*jobs_)[index];
  Slot& slot = slots_[index];
  StagedResult& staged = slot.value;
  // Slots are reused across waves: clear before filling.
  staged = StagedResult{};
  if (job.interrogate) {
    try {
      staged.result = interrogator_.InterrogateDetached(job.key, job.at,
                                                        job.pop, job.udp_hint);
      if (job.project && staged.result.record.has_value()) {
        // Project the record into entity fields and hash its content here,
        // off the command thread — the serial stage then only diffs.
        staged.service_fields = pipeline::ServiceFields(*staged.result.record);
        staged.content_hash =
            pipeline::WriteSide::ContentHash(*staged.result.record);
        staged.projected = true;
      }
    } catch (...) {
      // Publish the (empty) slot even on failure so the commit stage never
      // waits forever on it; the exception surfaces at JoinBroadcast.
      staged = StagedResult{};
      slot.ready.store(1, std::memory_order_release);
      throw;
    }
  }
  slot.ready.store(1, std::memory_order_release);
  return timer.ElapsedMicros();
}

void TickPipeline::Commit(std::size_t index) {
  const InterrogationJob& job = (*jobs_)[index];
  const StagedResult& staged = slots_[index].value;
  interrogator_.CommitResult(staged.result);
  if (staged.result.record.has_value()) {
    if (staged.projected) {
      write_side_.IngestScan(*staged.result.record, staged.service_fields,
                             staged.content_hash);
    } else {
      write_side_.IngestScan(*staged.result.record);
    }
    if (job.observe_predictive) predictive_.ObserveService(job.key);
  } else if (job.ingest_failure_on_miss) {
    write_side_.IngestFailure(job.key, job.at);
  }
}

void TickPipeline::Run(const std::vector<InterrogationJob>& jobs) {
  if (jobs.empty()) return;
  const std::size_t n = jobs.size();
  TRACE_SPAN_VAR(span, "engine", "pipeline.run");
  span.SetArg("jobs", std::to_string(n));
  const metrics::ScopedTimer wall({});
  stats_.jobs += n;
  ++stats_.waves;

  // No worker runs between waves, so plain stores suffice here; Broadcast
  // publishes them to the workers.
  jobs_ = &jobs;
  if (slots_.size() < n) slots_ = std::vector<Slot>(n);
  for (std::size_t i = 0; i < n; ++i) {
    slots_[i].ready.store(0, std::memory_order_relaxed);
  }
  next_.store(0, std::memory_order_relaxed);

  // Workers: claim indices until the cursor passes n. Each claim is a pure
  // interrogation staged into its own slot.
  const std::function<void(std::size_t)> worker = [this, n](std::size_t) {
    TRACE_SPAN_VAR(wspan, "engine", "pipeline.worker");
    std::uint64_t executed = 0;
    double busy_us = 0;
    for (std::size_t index = next_.fetch_add(1, std::memory_order_relaxed);
         index < n; index = next_.fetch_add(1, std::memory_order_relaxed)) {
      busy_us += Execute(index);
      ++executed;
    }
    worker_busy_us_.fetch_add(static_cast<std::uint64_t>(busy_us),
                              std::memory_order_relaxed);
    wspan.SetArg("executed", std::to_string(executed));
  };
  executor_.Broadcast(worker);  // no-op with zero workers

  // Command thread: commit ready slots strictly in index order
  // (group-committed), and claim a job when the next slot is not ready —
  // help-or-commit, never idle-wait.
  std::size_t committed = 0;
  std::uint32_t since_flush = 0;
  write_side_.BeginCommitBatch();
  try {
    TRACE_SPAN_VAR(cspan, "engine", "pipeline.commit");
    while (committed < n) {
      if (slots_[committed].ready.load(std::memory_order_acquire) != 0) {
        const metrics::ScopedTimer commit_timer({});
        Commit(committed);
        ++committed;
        if (++since_flush >= commit_batch_) {
          write_side_.FlushCommitBatch();
          ++stats_.batch_flushes;
          since_flush = 0;
        }
        stats_.commit_busy_us += commit_timer.ElapsedMicros();
        continue;
      }
      const std::size_t index = next_.fetch_add(1, std::memory_order_relaxed);
      if (index < n) {
        stats_.help_busy_us += Execute(index);
        ++stats_.help_runs;
      } else {
        ++stats_.commit_stalls;
        std::this_thread::yield();
      }
    }
    write_side_.EndCommitBatch();
    cspan.SetArg("helps", std::to_string(stats_.help_runs));
    cspan.SetArg("stalls", std::to_string(stats_.commit_stalls));
  } catch (...) {
    // Stop handing out work and quiesce the workers before unwinding: they
    // reference jobs_ and slots_, which must outlive them. Their remaining
    // work is pure, so abandoning it is safe.
    next_.store(n, std::memory_order_relaxed);
    try {
      executor_.JoinBroadcast();
    } catch (...) {
    }
    jobs_ = nullptr;
    throw;
  }
  executor_.JoinBroadcast();
  jobs_ = nullptr;

  stats_.wall_us += wall.ElapsedMicros();
  stats_.worker_busy_us =
      static_cast<double>(worker_busy_us_.load(std::memory_order_relaxed));
  span.SetArg("helps", std::to_string(stats_.help_runs));
}

}  // namespace censys::engines
