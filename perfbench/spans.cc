#include "spans.h"

#include <algorithm>
#include <atomic>
#include <cstdio>

#include "common.h"

namespace perfbench {
namespace {

// The calling thread's buffer for the recorder of a given generation.
struct ThreadSlot {
  std::uint64_t generation = 0;
  void* buffer = nullptr;
};
thread_local ThreadSlot t_slot;

}  // namespace

std::uint64_t SpanRecorder::NextGeneration() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

SpanRecorder::Buffer& SpanRecorder::ThisThread() {
  if (t_slot.generation != generation_) {
    auto buffer = std::make_unique<Buffer>();
    buffer->spans.reserve(1 << 12);
    t_slot.buffer = buffer.get();
    t_slot.generation = generation_;
    const censys::core::MutexLock lock(mu_);
    buffers_.push_back(std::move(buffer));
  }
  return *static_cast<Buffer*>(t_slot.buffer);
}

SpanRecorder::Scope::Scope(SpanRecorder& recorder, std::string_view name) {
  if (!recorder.enabled()) return;
  recorder_ = &recorder;
  Buffer& buffer = recorder.ThisThread();
  id_ = static_cast<int>(buffer.spans.size());
  Span span;
  span.name = name;
  span.parent = buffer.open.empty() ? -1 : buffer.open.back();
  span.start_us = NowUs();
  buffer.spans.push_back(span);
  buffer.open.push_back(id_);
}

SpanRecorder::Scope::~Scope() {
  if (recorder_ == nullptr) return;
  Buffer& buffer = recorder_->ThisThread();
  buffer.spans[id_].end_us = NowUs();
  buffer.open.pop_back();
}

void SpanRecorder::AddChild(int parent, std::string_view name,
                            double start_us, double end_us) {
  if (!enabled_ || parent < 0) return;
  Buffer& buffer = ThisThread();
  Span span;
  span.name = name;
  span.start_us = start_us;
  span.end_us = end_us;
  span.parent = parent;
  span.added = true;
  buffer.spans.push_back(span);
}

std::map<std::string, double> SpanRecorder::SelfTimeUs() const {
  std::map<std::string, double> self;
  const censys::core::MutexLock lock(mu_);
  for (const auto& buffer : buffers_) {
    const std::vector<Span>& spans = buffer->spans;
    const int n = static_cast<int>(spans.size());
    // Effective parents: a recorded span whose parent also has added
    // children moves under the added child holding its midpoint.
    std::vector<std::vector<int>> added_children(n);
    for (int i = 0; i < n; ++i) {
      if (spans[i].added) added_children[spans[i].parent].push_back(i);
    }
    std::vector<std::vector<std::pair<double, double>>> covered(n);
    for (int i = 0; i < n; ++i) {
      int parent = spans[i].parent;
      if (parent < 0) continue;
      if (!spans[i].added) {
        const double mid = 0.5 * (spans[i].start_us + spans[i].end_us);
        for (int c : added_children[parent]) {
          if (spans[c].start_us <= mid && mid < spans[c].end_us) {
            parent = c;
            break;
          }
        }
      }
      const double lo = std::max(spans[i].start_us, spans[parent].start_us);
      const double hi = std::min(spans[i].end_us, spans[parent].end_us);
      if (hi > lo) covered[parent].emplace_back(lo, hi);
    }
    for (int i = 0; i < n; ++i) {
      auto& parts = covered[i];
      std::sort(parts.begin(), parts.end());
      double cover = 0;
      double run_lo = 0;
      double run_hi = -1;
      for (const auto& [lo, hi] : parts) {
        if (lo > run_hi) {
          if (run_hi > run_lo) cover += run_hi - run_lo;
          run_lo = lo;
          run_hi = hi;
        } else {
          run_hi = std::max(run_hi, hi);
        }
      }
      if (run_hi > run_lo) cover += run_hi - run_lo;
      const double duration = spans[i].end_us - spans[i].start_us;
      self[std::string(spans[i].name)] += std::max(0.0, duration - cover);
    }
  }
  return self;
}

std::map<std::string, std::pair<double, std::uint64_t>>
SpanRecorder::TotalsUs() const {
  std::map<std::string, std::pair<double, std::uint64_t>> totals;
  const censys::core::MutexLock lock(mu_);
  for (const auto& buffer : buffers_) {
    for (const Span& span : buffer->spans) {
      auto& [us, count] = totals[std::string(span.name)];
      us += span.end_us - span.start_us;
      ++count;
    }
  }
  return totals;
}

std::size_t SpanRecorder::span_count() const {
  std::size_t count = 0;
  const censys::core::MutexLock lock(mu_);
  for (const auto& buffer : buffers_) count += buffer->spans.size();
  return count;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("{\"traceEvents\":[\n", out);
  bool first = true;
  const censys::core::MutexLock lock(mu_);
  for (std::size_t tid = 0; tid < buffers_.size(); ++tid) {
    const std::vector<Span>& spans = buffers_[tid]->spans;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(out,
                   "%s{\"name\":\"%.*s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d}}",
                   first ? "" : ",\n", static_cast<int>(s.name.size()),
                   s.name.data(), tid, s.start_us, s.end_us - s.start_us, i,
                   s.parent);
      first = false;
    }
  }
  std::fputs("\n]}\n", out);
  return std::fclose(out) == 0;
}

}  // namespace perfbench
