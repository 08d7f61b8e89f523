// Entry points of the harness subcommands (see main.cc for the flags).
#ifndef PERFBENCH_HARNESS_WORKLOADS_H_
#define PERFBENCH_HARNESS_WORKLOADS_H_

#include "common/flags.h"

namespace perfbench {

/// Closed-loop batch workloads: assess, lineup, bulk.
int RunBatch(const rlbench::Flags& flags);

/// Open-loop load generator against a running rlbench_serve, plus the
/// traced in-process replay of the same request stream.
int RunLoadgen(const rlbench::Flags& flags);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOADS_H_
