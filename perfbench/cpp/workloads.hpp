#pragma once
// The four benchmark workloads (NOTES.md says why each exists):
//
//   t2x2         data/t2.flow, 2 instances, 32-bit buffer: one cold query
//                plus report serialisation per pass (product build and
//                gain engine dominate).
//   t2x1-sweep   data/t2.flow, 1 instance, 9 widths 32..512 in seeded order
//                per pass, each built cold (the Step 2 search dominates).
//   daemon-mix   an in-process traceseld with 2 runners and a journal,
//                driven closed loop by 1 client with a seeded mix of cold,
//                workload-hit and result-hit requests.
//   debug-cases  T2 case studies 1-5 x 3 trial seeds through
//                debug::run_case_study (case 5 twice), in seeded order per
//                pass.
//
// All paths are relative to the repository root, which is the working
// directory of a run.

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "pipeline.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

const std::vector<std::string>& workload_names();

/// The request keys of the first `passes` passes of a run, in the order they are sent
/// (the same for the same seed; the self-tests pin this).
std::vector<std::string> request_sequence(const std::string& workload,
                                          std::uint64_t seed,
                                          std::size_t passes);

/// Runs one workload. Untraced runs report the end-to-end metrics, traced
/// runs the per-layer ones. Throws on setup failures.
Report run_workload(const Options& options);

/// The requests with a committed reference output (deduplicated by key;
/// Fig. 2 requests carry `fig2_text` inline), and all their keys.
std::vector<SelectCase> reference_cases(const std::string& fig2_text);
std::vector<DebugCase> reference_debug_cases();
std::vector<std::string> reference_keys();

/// Where the references live, relative to the repository root.
inline constexpr const char* kRefsDir = "perfbench/refs";

}  // namespace perfbench
