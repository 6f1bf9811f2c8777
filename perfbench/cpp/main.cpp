// perfbench — the repository benchmark binary (see ../NOTES.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//       runs one workload and prints the result JSON as its last line
//   perfbench --list-metrics             metric catalog, "<kind> <name> <unit>"
//   perfbench --write-refs | --oracle-check    reference maintenance
//
// Run from the repository root: every input path is relative to it.
// Exit codes: 0 ok, 1 usage error, 2 runtime failure (no result printed).

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "refs.hpp"
#include "workloads.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string mode = "run";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") options.workload = value();
      else if (arg == "--seed") options.seed = std::stoull(value());
      else if (arg == "--seconds") options.seconds = std::stod(value());
      else if (arg == "--trace") options.trace = value() != "0";
      else if (arg == "--list-metrics") mode = "list";
      else if (arg == "--write-refs") mode = "write-refs";
      else if (arg == "--oracle-check") mode = "oracle";
      else return usage("unknown argument " + arg);
    } catch (const std::exception& e) {
      return usage(e.what());
    }
  }
  try {
    if (mode == "list") {
      for (const auto& [name, unit] : perfbench::end_to_end_metrics())
        std::cout << "end_to_end " << name << ' ' << unit << '\n';
      for (const auto& [name, unit] : perfbench::per_layer_metrics())
        std::cout << "per_layer " << name << ' ' << unit << '\n';
      return 0;
    }
    if (mode == "write-refs") return perfbench::write_references();
    if (mode == "oracle") return perfbench::oracle_check();
    bool known = false;
    for (const std::string& name : perfbench::workload_names())
      known = known || name == options.workload;
    if (!known) return usage("unknown workload '" + options.workload + "'");
    if (options.seconds <= 0) return usage("--seconds must be positive");
    const perfbench::Report report = perfbench::run_workload(options);
    std::cout << perfbench::result_line(report) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }
}
