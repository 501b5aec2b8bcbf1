// framebench: the repository's frame benchmark program.
//
//   framebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--trace-dir <dir>] [--work-dir <dir>]
//
// Runs one closed-loop workload (orbit-render, orbit-dense, composite-768,
// service-mix, procs-orbit) and prints, as the last line of standard output, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the per-layer ones, and a
// Chrome trace-event file is written to --trace-dir. Exit 0 when the run
// completed (even with failed frames), 1 on a set-up error, 2 on bad usage.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "bench.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "framebench: " << why
            << "\nusage: framebench --workload <orbit-render|orbit-dense|composite-768|"
               "service-mix|procs-orbit> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-dir <dir>] [--work-dir <dir>]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace framebench;
  Options opts;
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) usage(std::string("missing value for ") + argv[i]);
    args[argv[i]] = argv[i + 1];
  }
  try {
    for (const auto& [key, value] : args) {
      if (key == "--workload") {
        opts.workload = value;
      } else if (key == "--seed") {
        opts.seed = std::stoull(value);
      } else if (key == "--seconds") {
        opts.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opts.trace = value == "1";
      } else if (key == "--trace-dir") {
        opts.trace_dir = value;
      } else if (key == "--work-dir") {
        opts.work_dir = value;
      } else {
        usage("unknown flag " + key);
      }
    }
  } catch (const std::exception&) {
    usage("bad number");
  }
  if (!(opts.seconds > 0.0)) usage("--seconds must be positive");

  const std::map<std::string, RunResult (*)(const Options&)> workloads = {
      {"composite-768", run_composite_768},
      {"orbit-render", run_orbit_render},
      {"orbit-dense", run_orbit_dense},
      {"service-mix", run_service_mix},
      {"procs-orbit", run_procs_orbit},
  };
  const auto it = workloads.find(opts.workload);
  if (it == workloads.end()) usage("unknown workload '" + opts.workload + "'");

  RunResult result;
  try {
    result = it->second(opts);
  } catch (const std::exception& e) {
    std::cerr << "framebench: " << opts.workload << ": " << e.what() << "\n";
    return 1;
  }
  for (const std::string& note : result.notes) std::cout << opts.workload << ": " << note << "\n";
  std::string json = std::string("{\"correct\": ") + (result.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    json += (i == 0 ? "" : ", ") + std::string("\"") + m.name + "\": {\"value\": " +
            number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  std::cout << json << "}}" << std::endl;
  return 0;
}
