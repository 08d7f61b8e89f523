// Benchmark harness binary, driven by perfbench/run.py.
//
//   rlbench_perfbench batch --workload=assess|lineup|bulk --seed=N
//       --seconds=S --trace=0|1 --out=FILE --spill_dir=DIR [--setup_only]
//   rlbench_perfbench loadgen --port=P --seed=N --out=FILE --trace=0|1
//       plus every traffic flag RunLoadgen reads (run.py passes them all)
//
// batch prints "perfbench ready" once set-up (including one untimed
// warm-up op) is done, then runs the timed phase and writes its raw
// measurements as JSON to --out. loadgen drives a running rlbench_serve
// over loopback and writes its raw measurements the same way. run.py turns
// both into the benchmark's metrics and checks.
#include <cstdio>
#include <string>

#include "common/flags.h"
#include "workloads.h"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: rlbench_perfbench batch|loadgen [--flags]\n");
    return 2;
  }
  const std::string command = argv[1];
  rlbench::Flags flags(argc - 1, argv + 1);
  if (command == "batch") return perfbench::RunBatch(flags);
  if (command == "loadgen") return perfbench::RunLoadgen(flags);
  std::fprintf(stderr, "unknown command %s\n", command.c_str());
  return 2;
}
