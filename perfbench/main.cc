// monkeybench: the MonkeyDB benchmark program (run it through run.py).
//
//   monkeybench --workload <point_read|ingest_scan|resp_pipeline>
//               --seed <n> --seconds <s> --trace <0|1> --dir <scratch dir>
//   monkeybench --selftest --seed <n> --dir <scratch dir>
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the wrapper
// fidelity check and then the workload on wrapped stores, and prints the
// per-layer metrics. The last stdout line is the result JSON; the exit
// code is 0 only if every output verified.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int Usage() {
  fprintf(stderr,
          "usage: monkeybench --workload <point_read|ingest_scan|"
          "resp_pipeline> --seed <n> --seconds <s> --trace <0|1> "
          "--dir <dir>\n"
          "       monkeybench --selftest --seed <n> --dir <dir>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  bool selftest = false;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      selftest = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      args.workload = value;
    } else if (arg == "--seed") {
      args.seed = strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      args.seconds = atof(value);
    } else if (arg == "--trace") {
      args.trace = std::string(value) == "1";
    } else if (arg == "--dir") {
      args.dir = value;
    } else {
      return Usage();
    }
  }
  if (args.dir.empty() || (!selftest && args.seconds <= 0)) return Usage();

  if (selftest) {
    const std::string why =
        perfbench::CheckWrapperFidelity(args.dir + "/fidelity", args.seed);
    perfbench::RemoveDir(args.dir + "/fidelity");
    printf("wrapper fidelity: %s\n", why.empty() ? "ok" : why.c_str());
    return why.empty() ? 0 : 1;
  }

  perfbench::Tally (*run)(const perfbench::Args&, perfbench::Report*) =
      nullptr;
  if (args.workload == "point_read") {
    run = perfbench::RunPointRead;
  } else if (args.workload == "ingest_scan") {
    run = perfbench::RunIngestScan;
  } else if (args.workload == "resp_pipeline") {
    run = perfbench::RunRespPipeline;
  } else {
    return Usage();
  }

  perfbench::Report report;
  report.InfoText("workload", args.workload);
  report.Info("seed", static_cast<double>(args.seed));
  if (args.trace) {
    const std::string why =
        perfbench::CheckWrapperFidelity(args.dir + "/fidelity", args.seed);
    perfbench::RemoveDir(args.dir + "/fidelity");
    if (!why.empty()) report.Fail("wrapper fidelity: " + why);
  }
  const std::string store = args.dir;
  args.dir = store + "/store";
  const perfbench::HostCpu cpu_before = perfbench::ReadHostCpu();
  const perfbench::Tally tally = run(args, &report);
  const perfbench::HostCpu cpu_after = perfbench::ReadHostCpu();
  // How much CPU the hypervisor withheld during the run: on a shared host
  // the timings move with it.
  if (cpu_after.total > cpu_before.total) {
    report.Info("host_steal_pct",
                100.0 * (cpu_after.steal - cpu_before.steal) /
                    (cpu_after.total - cpu_before.total));
  }
  perfbench::RemoveDir(args.dir);
  report.Info("error_rate", tally.attempted > 0
                                ? static_cast<double>(tally.failed) /
                                      tally.attempted
                                : 1);
  report.Print(tally.attempted > 0 ? tally.attempted : 1,
               tally.attempted > 0 ? tally.failed : 1);
  return report.correct() && tally.failed == 0 && tally.attempted > 0 ? 0
                                                                       : 1;
}
