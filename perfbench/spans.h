// In-memory span recorder for the traced run.
//
// Spans are recorded from the benchmark's own files, around the calls it
// makes into each layer (set-up steps, ticks, replication pumps, daily
// jobs, commit-observer callbacks, every ServeOne). Each span has a name,
// a start, an end and a parent; a parent is the innermost open span on
// the same thread, or an explicit one for spans added after the fact
// (the TickReport stages, laid out inside their tick). Spans stay in
// per-thread buffers until the run ends; then SelfTimeUs() attributes
// time and WriteChromeTrace() writes them out.
//
// A disabled recorder costs one branch per scope and records nothing.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/thread_safety.h"

namespace perfbench {

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  // Records [construction, destruction) on the calling thread, nested
  // under that thread's innermost open Scope. `name` must outlive the
  // recorder (string literals).
  class Scope {
   public:
    Scope(SpanRecorder& recorder, std::string_view name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    // Span index for AddChild; -1 when the recorder is disabled.
    int id() const { return id_; }

   private:
    SpanRecorder* recorder_ = nullptr;
    int id_ = -1;
  };

  // Adds a finished span with explicit times as a child of `parent` (a
  // Scope id on the calling thread). Real spans already recorded under
  // `parent` are re-homed, for attribution, under the added child whose
  // interval holds their midpoint.
  void AddChild(int parent, std::string_view name, double start_us,
                double end_us);

  // Self time per span name over every thread: a span's duration minus
  // the part of it its children cover.
  std::map<std::string, double> SelfTimeUs() const;
  // Total duration and count per span name.
  std::map<std::string, std::pair<double, std::uint64_t>> TotalsUs() const;
  std::size_t span_count() const;

  // Chrome trace-event JSON ("X" events; args.parent is the parent's
  // index on the same tid, -1 for roots).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    std::string_view name;
    double start_us = 0;
    double end_us = 0;
    int parent = -1;
    bool added = false;  // AddChild span (times from a report)
  };
  struct Buffer {
    std::vector<Span> spans;
    std::vector<int> open;  // stack of open Scope ids
  };

  Buffer& ThisThread();

  bool enabled_;
  std::uint64_t generation_ = NextGeneration();
  static std::uint64_t NextGeneration();

  mutable censys::core::Mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_ CENSYS_GUARDED_BY(mu_);
};

}  // namespace perfbench
