#pragma once
// tracesel::QueryCore — the stateless compute core of the facade
// (DESIGN.md §13).
//
// The compute of the facade comes in two pieces:
//
//   QueryCore      pure functions of (JobRequest, spec content): resolve
//                  the workload, compute the interleaving's statistics,
//                  run Step 1-3. No hidden
//                  state, no ordering constraints — safe to call from any
//                  thread, which is what lets the traceseld daemon run
//                  jobs concurrently.
//   ArtifactStore  the shared immutable workload cache run() builds
//                  through (artifact_store.hpp).
//
// QueryCore is the library's one way in: the CLI, the daemon, the examples
// and the tests all call it directly.
//
// A Workload is the resolved middle product: the owned spec (or builtin
// design), its message catalog, and the selector over the interleaving's
// closed-form statistics. No selection request builds the product. Once
// built a Workload is immutable and safely shared by concurrent jobs.

#include <cstdint>
#include <memory>
#include <string>

#include "flow/interleaved_flow.hpp"
#include "flow/parser.hpp"
#include "netlist/usb_design.hpp"
#include "selection/selector.hpp"
#include "soc/t2_design.hpp"
#include "tracesel/artifact_store.hpp"
#include "tracesel/job_request.hpp"
#include "util/cancel.hpp"
#include "util/result.hpp"

namespace tracesel {

/// The resolved workload of a job: spec/design ownership, catalog and the
/// selector over the interleaving's statistics. Immutable once built (see
/// file comment); handed around as shared_ptr<const Workload>.
struct Workload {
  // Exactly one of spec / t2 / usb is set.
  std::unique_ptr<flow::ParsedSpec> spec;
  std::unique_ptr<soc::T2Design> t2;
  std::unique_ptr<netlist::UsbDesign> usb;
  const flow::MessageCatalog* catalog = nullptr;

  /// A materialized product, for callers that build one themselves (the
  /// benchmark's traced path); null on every workload QueryCore builds.
  std::unique_ptr<flow::InterleavedFlow> u;
  /// The selector over the interleaving's statistics (selector->stats()).
  std::unique_ptr<selection::MessageSelector> selector;

  /// FNV-1a over the resolved spec content; 0 when not content-addressed.
  std::uint64_t source_hash = 0;
};

class QueryCore {
 public:
  /// What a run hands back. `workload` may be shared with the store (do
  /// not mutate) and keeps the catalog the result's message ids point
  /// into alive.
  struct Outcome {
    std::shared_ptr<const Workload> workload;
    std::shared_ptr<const selection::SelectionResult> result;
    bool workload_cache_hit = false;
  };

  // --- workload construction (the CLI and the daemon both build through
  //     these, so the two surfaces cannot drift) ---
  static std::unique_ptr<Workload> workload_from_spec(flow::ParsedSpec spec);
  static std::unique_ptr<Workload> workload_t2();
  static std::unique_ptr<Workload> workload_usb();

  /// Computes the statistics of the workload's interleaving (spec/usb:
  /// `instances` indexed instances per flow; t2: scenario id) in closed
  /// form and the selector over them, dropping any stale product. Throws
  /// util::CancelledError when `cancel` has fired on entry.
  static void interleave(Workload& w, std::uint32_t instances,
                         const util::CancelToken& cancel = {});

  // --- content addressing ---
  /// FNV-1a over the spec content the request resolves to: inline text,
  /// "builtin:t2"/"builtin:usb", or the spec file's bytes (a typed error
  /// when the file cannot be read).
  static util::Result<std::uint64_t> source_hash(const JobRequest& req);
  /// The ArtifactStore workload key: source hash + instance count.
  static std::uint64_t workload_key(const JobRequest& req,
                                    std::uint64_t source_hash);

  /// Step 1-3 over an existing workload. The low-level entry point the CLI
  /// and the request path share: honours every SelectorConfig field
  /// (including cancel) and picks the plain or the flow-constraint path.
  static selection::SelectionResult select(
      const Workload& w, const selection::SelectorConfig& config,
      bool flow_constraint);

  /// The request-level wrapper: derives the SelectorConfig from `req`,
  /// arms `cancel`, and runs select().
  static selection::SelectionResult select(const Workload& w,
                                           const JobRequest& req,
                                           util::CancelToken cancel);

  /// The full pipeline: resolve -> workload (cached in `store`; null
  /// builds it privately) -> select. Results are not cached here: the
  /// daemon keeps them in its journal's result index. A typed error when
  /// the spec file cannot be read; parse and engine failures throw,
  /// including util::CancelledError when `cancel` has fired before the
  /// statistics are built.
  static util::Result<Outcome> run(const JobRequest& req, ArtifactStore* store,
                                   util::CancelToken cancel);
};

}  // namespace tracesel
