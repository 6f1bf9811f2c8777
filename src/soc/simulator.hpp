#pragma once
// Transaction-level SoC simulator — the design-under-test substrate that
// stands in for RTL simulation of OpenSPARC T2 (see DESIGN.md).
//
// A *session* executes one interleaved round of the scenario: every
// participating flow instance runs from its initial state to its stop state
// under the Def. 5 scheduling rules (only the atomic-state holder may move
// while one exists). Each emitted message is the TimedMessage a Monitor
// (Fig. 4) would rebuild from the beat's signal burst; soc::signal_trace
// re-expands messages into signals for VCD dumps and tests. Injected bugs
// perturb emission: corrupt, drop (instance stalls -> hang), misroute, or
// wrong-decode (poisons the instance's later messages -> bad trap at
// session end).
//
// Content values are a deterministic function of (message, instance,
// session, occurrence), so a golden run and a buggy run with equal seeds
// differ exactly where bug effects landed — which is what the bug-coverage
// metric of Sec. 5.5 diffs.

#include <cstdint>
#include <string>
#include <vector>

#include "bug/bug.hpp"
#include "soc/monitor.hpp"
#include "soc/scenario.hpp"
#include "soc/t2_design.hpp"
#include "util/rng.hpp"

namespace tracesel::soc {

struct SimOptions {
  std::uint32_t sessions = 1;
  std::uint64_t seed = 1;
  /// Safety valve against scheduling livelock; generous for our flows.
  std::uint32_t max_steps_per_session = 100000;
};

struct SimResult {
  /// Emitted messages, as a Monitor rebuilds them (see soc::signal_trace).
  std::vector<TimedMessage> messages;
  bool failed = false;
  std::string failure;                 ///< e.g. "FAIL: Bad Trap"
  std::uint32_t fail_session = 0;
  std::uint64_t fail_cycle = 0;
  std::uint64_t total_cycles = 0;
  /// Observed messages until the first symptom (the paper reports up to
  /// 457); 0 when no failure occurred.
  std::size_t messages_to_symptom = 0;
};

class SocSimulator {
 public:
  /// T2 convenience: simulate a Table 1 usage scenario.
  SocSimulator(const T2Design& design, const Scenario& scenario);

  /// General form: any catalog and flow set (e.g. the branching flows of
  /// T2ExtendedDesign, or flows parsed from a .flow spec).
  SocSimulator(const flow::MessageCatalog& catalog,
               std::vector<const flow::Flow*> flows,
               std::uint32_t instances_per_flow);

  /// Adds an injected bug; takes effect on subsequent run() calls.
  void inject(bug::Bug bug);
  void clear_bugs();
  const std::vector<bug::Bug>& bugs() const { return bugs_; }

  SimResult run(const SimOptions& options = {}) const;

  /// The golden content value of the `occurrence`-th emission of message
  /// `m` by instance `index` in `session`. Deterministic; exposed so tests
  /// and the bug-coverage diff can recompute expectations.
  static std::uint64_t golden_value(flow::MessageId m, std::uint32_t index,
                                    std::uint32_t session,
                                    std::uint32_t occurrence,
                                    std::uint32_t width);

  const flow::MessageCatalog& catalog() const { return *catalog_; }
  const std::vector<const flow::Flow*>& flows() const { return flows_; }
  std::uint32_t instances_per_flow() const { return instances_per_flow_; }

 private:
  /// The symptom string of the bug that fired, or the generic bad trap.
  std::string failure_text(int bug_id) const;

  const flow::MessageCatalog* catalog_;
  std::vector<const flow::Flow*> flows_;
  std::uint32_t instances_per_flow_ = 2;
  std::vector<bug::Bug> bugs_;
};

}  // namespace tracesel::soc
