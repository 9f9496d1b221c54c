#include "core/trace.h"

#if defined(CENSYSIM_TRACE)

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "core/clock.h"
#include "core/thread_safety.h"

namespace censys::trace {
namespace {

// One retained span. Slots are plain data: the owning thread writes a slot,
// then publishes it by advancing the ring's head with a release store; the
// exporter acquires the head before reading. Wraparound overwrites the
// oldest slot — the exporter must run at a quiescent point (Dump's
// contract), so published slots are never concurrently rewritten while
// being read.
struct Slot {
  const char* category = nullptr;
  const char* name = nullptr;
  double start_us = 0;
  double duration_us = 0;
  char arg_key[kMaxArgKey + 1] = {};
  char arg_value[kMaxArgValue + 1] = {};
  std::uint8_t arg_key_len = 0;
  std::uint8_t arg_value_len = 0;
};

struct ThreadBuffer {
  explicit ThreadBuffer(std::uint32_t id) : thread_id(id) {}
  const std::uint32_t thread_id;
  std::atomic<std::uint64_t> head{0};  // spans ever recorded by this thread
  Slot slots[kRingCapacity];
};

// Concurrency: `rings` (registration and export iteration) is guarded by
// mu_; each ring's slots are written lock-free by exactly one thread and
// read only by the exporter at quiescent points, synchronized through the
// ring's release/acquire head counter.
class Recorder {
 public:
  static Recorder& Get() {
    static Recorder* recorder = new Recorder();  // never destroyed: rings
    return *recorder;  // must outlive late-exiting threads and atexit dumps
  }

  ThreadBuffer* RegisterThread() {
    core::MutexLock lock(mu_);
    rings_.push_back(std::make_unique<ThreadBuffer>(
        static_cast<std::uint32_t>(rings_.size() + 1)));
    return rings_.back().get();
  }

  void ForEachSpan(const std::function<void(const SpanView&)>& fn) {
    core::MutexLock lock(mu_);
    for (const auto& ring : rings_) {
      const std::uint64_t head = ring->head.load(std::memory_order_acquire);
      const std::uint64_t first = head > kRingCapacity ? head - kRingCapacity
                                                       : 0;
      for (std::uint64_t i = first; i < head; ++i) {
        const Slot& slot = ring->slots[i % kRingCapacity];
        SpanView view;
        view.category = slot.category;
        view.name = slot.name;
        view.thread_id = ring->thread_id;
        view.start_us = slot.start_us;
        view.duration_us = slot.duration_us;
        view.arg_key = std::string_view(slot.arg_key, slot.arg_key_len);
        view.arg_value = std::string_view(slot.arg_value, slot.arg_value_len);
        fn(view);
      }
    }
  }

  Stats GetStats() {
    core::MutexLock lock(mu_);
    Stats stats;
    stats.threads = static_cast<std::uint32_t>(rings_.size());
    for (const auto& ring : rings_) {
      const std::uint64_t head = ring->head.load(std::memory_order_acquire);
      stats.recorded += head;
      if (head > kRingCapacity) stats.dropped += head - kRingCapacity;
    }
    return stats;
  }

  void Reset() {
    core::MutexLock lock(mu_);
    for (const auto& ring : rings_) {
      ring->head.store(0, std::memory_order_release);
    }
  }

  std::atomic<bool> enabled{false};

 private:
  Recorder() = default;

  core::Mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> rings_ CENSYS_GUARDED_BY(mu_);
};

// Arms recording from the environment exactly once: CENSYSIM_TRACE_FILE
// enables tracing at startup and dumps there at process exit.
struct EnvArm {
  EnvArm() {
    if (const char* path = std::getenv("CENSYSIM_TRACE_FILE")) {
      exit_path = path;
      Recorder::Get().enabled.store(true, std::memory_order_relaxed);
      std::atexit([] {
        std::string error;
        if (!Dump(EnvArmed().exit_path, &error)) {
          std::fprintf(stderr, "trace: exit dump failed: %s\n", error.c_str());
        }
      });
    }
  }
  std::string exit_path;

  static EnvArm& EnvArmed() {
    // Deliberately leaked: the ctor registers an atexit dump that reads
    // exit_path, and a function-local static's destructor would run
    // *before* that handler (the dtor is registered after the ctor body's
    // atexit call), leaving the handler a dangling string.
    static EnvArm* arm = new EnvArm();
    return *arm;
  }
};

void AppendJsonEscaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

double NowMicros() {
  // The shared epoch every span timestamps against; created on first use.
  static const WallTimer* epoch = new WallTimer();
  return epoch->ElapsedMicros();
}

void SetEnabled(bool enabled) {
  EnvArm::EnvArmed();  // preserve an exit dump armed via the environment
  Recorder::Get().enabled.store(enabled, std::memory_order_relaxed);
}

bool Enabled() {
  EnvArm::EnvArmed();
  return Recorder::Get().enabled.load(std::memory_order_relaxed);
}

void RecordSpan(const char* category, const char* name, double start_us,
                double duration_us, std::string_view arg_key,
                std::string_view arg_value) {
  thread_local ThreadBuffer* ring = Recorder::Get().RegisterThread();
  const std::uint64_t head = ring->head.load(std::memory_order_relaxed);
  Slot& slot = ring->slots[head % kRingCapacity];
  slot.category = category;
  slot.name = name;
  slot.start_us = start_us;
  slot.duration_us = duration_us;
  slot.arg_key_len = static_cast<std::uint8_t>(
      arg_key.size() > kMaxArgKey ? kMaxArgKey : arg_key.size());
  slot.arg_value_len = static_cast<std::uint8_t>(
      arg_value.size() > kMaxArgValue ? kMaxArgValue : arg_value.size());
  arg_key.copy(slot.arg_key, slot.arg_key_len);
  arg_value.copy(slot.arg_value, slot.arg_value_len);
  ring->head.store(head + 1, std::memory_order_release);
}

void ForEachSpan(const std::function<void(const SpanView&)>& fn) {
  Recorder::Get().ForEachSpan(fn);
}

Stats GetStats() { return Recorder::Get().GetStats(); }

void ResetForTest() { Recorder::Get().Reset(); }

std::string DumpToString() {
  std::string out;
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  ForEachSpan([&](const SpanView& span) {
    if (!first) out += ",\n";
    first = false;
    char buf[96];
    out += "{\"ph\":\"X\",\"pid\":1,\"tid\":";
    std::snprintf(buf, sizeof(buf), "%u", span.thread_id);
    out += buf;
    out += ",\"cat\":\"";
    AppendJsonEscaped(out, span.category != nullptr ? span.category : "");
    out += "\",\"name\":\"";
    AppendJsonEscaped(out, span.name != nullptr ? span.name : "");
    out += "\",\"ts\":";
    std::snprintf(buf, sizeof(buf), "%.3f", span.start_us);
    out += buf;
    out += ",\"dur\":";
    std::snprintf(buf, sizeof(buf), "%.3f", span.duration_us);
    out += buf;
    if (!span.arg_key.empty()) {
      out += ",\"args\":{\"";
      AppendJsonEscaped(out, span.arg_key);
      out += "\":\"";
      AppendJsonEscaped(out, span.arg_value);
      out += "\"}";
    }
    out += "}";
  });
  out += "\n]}\n";
  return out;
}

bool Dump(const std::string& path, std::string* error) {
  const std::string json = DumpToString();
  // The dump is diagnostic output, not journaled state — no WAL semantics.
  std::FILE* f = std::fopen(path.c_str(), "wb");  // censyslint:allow(raw-file-io)
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != json.size() || !closed) {
    if (error != nullptr) *error = "short write to " + path;
    return false;
  }
  return true;
}

}  // namespace censys::trace

#endif  // CENSYSIM_TRACE
