#pragma once
// The requests the workloads send and the two ways the benchmark runs
// them: the user path (one call, as the CLI and daemon do) and the traced
// path, which makes the same calls layer by layer with an obs::Span named
// "bench.<layer>" around each, so the time can be split from outside the
// program. The spans record only while the obs layer is on.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "debug/case_study.hpp"
#include "selection/selector.hpp"
#include "soc/t2_bugs.hpp"
#include "soc/t2_design.hpp"
#include "tracesel/job_request.hpp"
#include "tracesel/query_core.hpp"

namespace perfbench {

namespace bug = tracesel::bug;
namespace debug = tracesel::debug;
namespace flow = tracesel::flow;
namespace netlist = tracesel::netlist;
namespace selection = tracesel::selection;
namespace soc = tracesel::soc;

/// One selection request and the name of its reference output.
struct SelectCase {
  std::string key;
  tracesel::JobRequest request;
};

/// `data/t2.flow` at `instances` instances per flow (t2flow-i<n>-w<bits>).
SelectCase t2flow_case(const std::string& data_dir, std::uint32_t instances,
                       std::uint32_t width);
/// Built-in T2 usage scenario 1-4 (t2s<id>-w<bits>).
SelectCase t2_scenario_case(int scenario, std::uint32_t width);
/// Built-in USB design, 2 instances (usb-i2-w<bits>).
SelectCase usb_case(std::uint32_t width);
/// Fig. 2 sent as inline spec text, 2 instances (fig2-i2-w<bits>).
SelectCase fig2_case(const std::string& spec_text, std::uint32_t width);

/// The user path: QueryCore::run without a store, then the report bytes
/// (selection::to_json(...).dump(2), what `select --json` prints).
std::string run_select(const tracesel::JobRequest& request);

/// Compares counts measured from outside the program with the program's
/// own obs counters. Disagreements are counted, never fatal.
struct TruthCheck {
  std::uint64_t mismatches = 0;
  std::vector<std::string> notes;  ///< one line per distinct disagreement
  void expect(const std::string& what, double outside, double inside);
};

/// Sizes measured around the layer calls of one traced pass (max over the
/// pass's requests).
struct LayerSizes {
  double nodes = 0;
  double edges = 0;
  double product_states = 0;
  double interleave_rss_mb = 0;
  double gain_engine_rss_mb = 0;
  void merge(double n, double e, double p, double irss, double grss);
};

/// A workload built layer by layer under spans: bench.flow.parse (spec
/// parse or built-in design construction), bench.flow.interleave
/// (make_instances + InterleavedFlow::build) and bench.selection.gain_engine
/// (the MessageSelector constructor, which builds the InfoGainEngine).
std::unique_ptr<tracesel::Workload> build_traced(
    const tracesel::JobRequest& request, TruthCheck& truth,
    LayerSizes& sizes);

struct TracedSelect {
  std::string report;
  selection::SelectionResult result;
  double combinations_counted = 0;  ///< obs counter deltas over the search
  double gain_evals_counted = 0;
};
/// bench.selection.select (MessageSelector::select) and
/// bench.report.serialize over a traced workload.
TracedSelect select_traced(const tracesel::Workload& workload,
                           const tracesel::JobRequest& request);
/// Compares the search counters of `sel` with the combinations the search
/// mode scores, enumerated from outside. Slow for wide buffers: call it
/// after the request's wall clock stopped.
void check_search_counters(const tracesel::Workload& workload,
                           const tracesel::JobRequest& request,
                           const TracedSelect& sel, TruthCheck& truth);
/// bench.selection.coverage: Def. 7 coverage of the final observable set,
/// timed on its own. False when it disagrees with the result's coverage.
bool time_coverage(const tracesel::Workload& workload,
                   const selection::SelectionResult& result);

/// One T2 case study run with one trial seed (case<id>-t<seed>).
struct DebugCase {
  std::string key;
  soc::CaseStudy study;
  std::uint64_t trial_seed = 0;
};
DebugCase debug_case(int case_id, std::uint64_t trial_seed);

/// The user path: debug::run_case_study on a clean capture channel, jobs
/// = 1, reduced to the reference digest.
std::string run_case(const soc::T2Design& design, const DebugCase& c);
/// The same pipeline as debug::Workbench::run on a clean channel, made of
/// public calls with bench.* spans around the interleave, gain-engine,
/// select, soc.simulate, debug.root_cause, flow.interleave.concrete,
/// flow.kernel.compile and selection.localize layers. Its digest must
/// equal run_case's.
std::string run_case_traced(const soc::T2Design& design, const DebugCase& c,
                            TruthCheck& truth, LayerSizes& sizes);

}  // namespace perfbench
