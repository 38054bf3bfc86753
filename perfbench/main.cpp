// Repo benchmark entry point: one workload per process.
//
//   perfbench --workload capture|storm|fleet|paper --seed N --seconds S
//             --trace 0|1 [--digests-only]
//
// Prints human-readable "# " lines (config echo, per-metric lines, output
// checks) and, as the last line, one JSON object with the run's metrics,
// operation counts, resolved config and input digests. run.py wraps this
// binary, compares the digests with baseline.json and reduces the last line
// to the benchmark's result format. Exit status: 0 when every output check
// passed, 1 on a wrong answer, 2 on a usage or runtime error.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "src/report.hpp"

namespace {

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: perfbench --workload capture|storm|fleet|paper --seed N "
               "--seconds S --trace 0|1 [--digests-only]\n";
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--digests-only") {
      options.digests_only = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options options = parse(argc, argv);
  perfbench::Report report;
  try {
    if (options.workload == "capture" || options.workload == "storm") {
      perfbench::run_packet_workload(options, options.workload == "storm", report);
    } else if (options.workload == "fleet") {
      perfbench::run_fleet_workload(options, report);
    } else if (options.workload == "paper") {
      perfbench::run_paper_workload(options, report);
    } else {
      usage("unknown workload " + options.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " aborted: " << e.what() << '\n';
    return 2;
  }
  std::cout << report.to_json() << std::endl;
  if (options.digests_only) return 0;
  return report.failed() == 0 && report.attempted() > 0 ? 0 : 1;
}
