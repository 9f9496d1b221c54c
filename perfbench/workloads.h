// The three workloads (README.md explains why each exists):
//
//   ingest  the write path alone: the World ticks with 3 engine workers
//   serve   the read path alone: a frozen World, open-loop readers
//   mixed   both at once: ticks (1 worker) under open-loop readers, with
//           standing queries, a daily analytics build and a follower
#pragma once

#include "common.h"

namespace perfbench {

// Runs the workload named in `args` end to end: set-up (timed, repeated),
// the measured phase, then the untimed correctness checks. Throws
// std::invalid_argument for an unknown workload name.
Result RunWorkload(const Args& args);

}  // namespace perfbench
