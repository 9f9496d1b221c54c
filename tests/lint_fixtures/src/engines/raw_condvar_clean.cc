// Fixture: the sanctioned stage handoff — workers claim job indices from
// one atomic cursor and release-publish a per-slot ready flag; the
// committer drains slots in order and, when the next one is not ready,
// claims a job itself (help-or-commit) rather than blocking on a condition
// variable. Must lint clean.
#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

struct Slot {
  std::atomic<int> ready{0};
  int value = 0;
};

void ExecuteJob(std::vector<Slot>& slots, std::size_t index) {
  slots[index].value = static_cast<int>(index) * 2;
  slots[index].ready.store(1, std::memory_order_release);
}

void WorkerLoop(std::atomic<std::size_t>& next, std::vector<Slot>& slots) {
  for (std::size_t i = next.fetch_add(1); i < slots.size();
       i = next.fetch_add(1)) {
    ExecuteJob(slots, i);
  }
}

int CommitInOrder(std::atomic<std::size_t>& next, std::vector<Slot>& slots) {
  int sum = 0;
  for (std::size_t committed = 0; committed < slots.size();) {
    if (slots[committed].ready.load(std::memory_order_acquire) != 0) {
      sum += slots[committed++].value;
    } else if (const std::size_t i = next.fetch_add(1); i < slots.size()) {
      ExecuteJob(slots, i);  // help instead of waiting
    } else {
      std::this_thread::yield();
    }
  }
  return sum;
}
