#pragma once
// tracesel::Session — the stateful *compatibility shim* over the split
// facade (DESIGN.md §13).
//
// Since PR 7 the pipeline's compute lives in two pieces:
//
//   tracesel::QueryCore      stateless pure functions of a job description
//                            (query_core.hpp) — resolve spec, interleave,
//                            run Step 1-3;
//   tracesel::ArtifactStore  the shared immutable cache concurrent jobs
//                            memoize through (artifact_store.hpp).
//
// New code — and everything that wants caching or concurrency, such as
// the traceseld daemon — should target tracesel::JobRequest + QueryCore
// directly. Session remains the convenient fluent surface for scripts,
// examples and the existing tests: it owns one QueryCore Workload, keeps
// the mutable SelectorConfig between calls, and forwards every pipeline
// step to QueryCore, so the two surfaces cannot produce different bits.
//
//   auto session = tracesel::Session::from_spec_file("soc.flow");
//   session.interleave(2);
//   auto result = session.select();
//
// Three construction modes:
//   - from_spec_file / from_spec_text / from_spec: a parsed .flow spec the
//     session owns; interleave() products come from its flows.
//   - from_interleaving: an externally built interleaving plus its catalog
//     (e.g. netlist::UsbDesign) — the catalog must outlive the session.
//   - t2(): the built-in OpenSPARC T2 uncore; scenario(id) builds the
//     interleaving and run_case_study()/monte_carlo() drive the debug leg.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "debug/case_study.hpp"
#include "debug/monte_carlo.hpp"
#include "flow/interleaved_flow.hpp"
#include "flow/parser.hpp"
#include "netlist/usb_design.hpp"
#include "selection/localization.hpp"
#include "selection/selector.hpp"
#include "soc/t2_design.hpp"
#include "tracesel/query_core.hpp"
#include "util/thread_pool.hpp"

namespace tracesel {

class Session {
 public:
  // --- construction ---
  static Session from_spec_file(const std::string& path);
  static Session from_spec_text(std::string_view text);
  static Session from_spec(flow::ParsedSpec spec);
  /// Adopts an externally built interleaving. `catalog` is borrowed and
  /// must outlive the session.
  static Session from_interleaving(const flow::MessageCatalog& catalog,
                                   flow::InterleavedFlow u);
  /// A session over the built-in OpenSPARC T2 uncore (debug leg enabled).
  static Session t2();
  /// A session over the built-in USB 2.0 function controller
  /// (netlist::UsbDesign); interleave(n) builds rx ||| tx with n indexed
  /// instances each.
  static Session usb();

  Session(Session&&) = default;
  Session& operator=(Session&&) = default;

  // --- configuration (one options struct for the whole pipeline) ---
  /// Adopts the config; a non-empty trace_out/metrics_out also enables the
  /// tracesel::obs layer for the process.
  Session& configure(const selection::SelectorConfig& config);
  /// Writes the Chrome trace (config().trace_out) and/or metrics JSON
  /// (config().metrics_out) accumulated so far; true when every requested
  /// sink was written. No-op (true) when neither path is set.
  bool write_observability() const;
  selection::SelectorConfig& config() { return config_; }
  const selection::SelectorConfig& config() const { return config_; }
  /// Shorthand for config().jobs = n.
  Session& jobs(std::size_t n);
  /// Build options (node/slot cap) used by localize() and by the closed
  /// form's fallback in subsequent interleave()/scenario() calls.
  Session& interleave_options(const flow::InterleaveOptions& options);
  const flow::InterleaveOptions& interleave_options() const {
    return interleave_options_;
  }

  // --- pipeline (thin forwards to QueryCore) ---
  /// Interleaves all spec flows with `instances` legally indexed instances
  /// each (spec sessions only). Computes the statistics selection needs;
  /// no product is built.
  Session& interleave(std::uint32_t instances = 2);
  /// Interleaves a built-in T2 scenario (t2 sessions only), likewise.
  Session& scenario(int id);

  /// Step 1-3 over the current interleaving, honouring config(). Caches
  /// the result for localize().
  selection::SelectionResult select();
  /// select() plus the every-flow-represented repair
  /// (MessageSelector::select_with_flow_constraint).
  selection::SelectionResult select_with_flow_constraint();
  /// Localization of an observed projection against the last select()
  /// result's observable set, counted on the state grid (DESIGN.md §14).
  selection::LocalizationResult localize(
      std::span<const flow::IndexedMessage> observed) const;

  // --- debug leg (t2 sessions) ---
  /// Runs one built-in case study (1-based id).
  debug::CaseStudyResult run_case_study(int case_id,
                                        debug::CaseStudyOptions options = {});
  /// Monte-Carlo repetition of a case study across seeds; trials run on
  /// the session pool (config().jobs workers).
  debug::MonteCarloResult monte_carlo(int case_id, std::size_t runs,
                                      debug::CaseStudyOptions base = {});

  // --- introspection ---
  const flow::MessageCatalog& catalog() const;
  const flow::ParsedSpec& spec() const;
  /// The statistics selection reads.
  const flow::ProductStats& stats() const;
  const soc::T2Design& design() const;
  bool has_interleaving() const {
    return workload_ && (workload_->selector || workload_->u);
  }
  /// The session's underlying QueryCore workload (always non-null).
  const Workload& workload() const { return *workload_; }
  const std::optional<selection::SelectionResult>& last_selection() const {
    return last_selection_;
  }

 private:
  Session() : workload_(std::make_unique<Workload>()) {}

  /// The session pool, sized to config().jobs; nullptr when serial.
  util::ThreadPool* pool();
  selection::SelectionResult select_impl(bool flow_constraint);
  /// interleave_options_ with the session's cancel token folded in, as
  /// every engine call expects.
  flow::InterleaveOptions merged_interleave_options() const;

  selection::SelectorConfig config_;
  flow::InterleaveOptions interleave_options_;
  std::unique_ptr<Workload> workload_;
  std::unique_ptr<util::ThreadPool> pool_;
  std::size_t pool_workers_ = 0;
  std::optional<selection::SelectionResult> last_selection_;
};

}  // namespace tracesel
