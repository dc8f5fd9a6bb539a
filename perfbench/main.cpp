// perfbench: the repository benchmark's binary. run.py builds it
// and calls one phase per process:
//
//   perfbench setup   --workload W --seed N --dir D --out F
//   perfbench measure --workload W --seed N --dir D --out F --seconds S
//   perfbench trace   --workload W --seed N --dir D --out F --seconds S
//
// --scale X (> 0) shrinks a workload for the benchmark's own tests.
#include <cstdio>
#include <string>

#include "phases.h"
#include "support/cli.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  if (!optimized_build()) {
    std::fprintf(stderr, "perfbench: refusing to record from a debug build\n");
    return 2;
  }
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench <setup|measure|trace> [flags]\n");
    return 2;
  }
  const std::string phase = argv[1];
  fullweb::support::CliFlags flags;
  flags.define("workload", "", "wvu_week_clf | nasa_week_fwc | clarknet_online");
  flags.define("seed", "1", "workload seed");
  flags.define("dir", "", "directory holding the workload's input files");
  flags.define("out", "", "where the phase writes its JSON document");
  flags.define("seconds", "10", "measured time (measure, trace)");
  flags.define("scale", "0", "override of the workload's scale (> 0)");
  if (!flags.parse(argc - 1, argv + 1)) return 2;

  RunOptions o;
  try {
    o.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
    o.seconds = flags.get_double("seconds");
    o.scale = flags.get_double("scale");
  } catch (const std::exception&) {
    std::fprintf(stderr, "perfbench: numeric flag expected\n");
    return 2;
  }
  o.dir = flags.get("dir");
  o.out = flags.get("out");
  if (!parse_workload(flags.get("workload"), o.workload) || o.dir.empty() ||
      o.out.empty()) {
    std::fprintf(stderr, "perfbench: --workload, --dir and --out are required\n");
    return 2;
  }
  if (phase == "setup") return run_setup(o);
  if (phase == "measure") return run_measure(o);
  if (phase == "trace") return run_trace(o);
  std::fprintf(stderr, "perfbench: unknown phase '%s'\n", phase.c_str());
  return 2;
}
