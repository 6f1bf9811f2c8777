#pragma once
// tracesel::QueryCore — the stateless compute core of the facade
// (DESIGN.md §13).
//
// QueryCore::run is the library's one way in: the CLI's `select`, the
// daemon, the examples and the tests all hand it a JobRequest. It is the
// only composition of parse -> statistics -> Step 1-3, a pure function of
// (JobRequest, spec content) with no hidden state, so the traceseld daemon
// runs jobs through it concurrently. The expensive middle product, the
// Workload, is built through a caller-owned ArtifactStore
// (artifact_store.hpp) or, without one, privately per call.
//
// A Workload is the owned spec (or builtin design), its message catalog,
// and the selector over the interleaving's closed-form statistics. No
// selection request builds the product. Once built a Workload is
// immutable and safely shared by concurrent jobs.

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

  /// FNV-1a over the spec content the request resolves to: inline text,
  /// "builtin:t2"/"builtin:usb", or the spec file's bytes (a typed error
  /// when the file cannot be read).
  static util::Result<std::uint64_t> source_hash(const JobRequest& req);

  /// The full pipeline: resolve -> workload (cached in `store`; null
  /// builds it privately) -> Step 1-3, the plain or the flow-constraint
  /// selection as `req.kind` says. Results are not cached here: the
  /// daemon keeps them in its journal's result index. A typed error when
  /// the spec file cannot be read; parse errors (which name a spec file
  /// as "spec.flow:LINE:") and engine failures throw, including
  /// util::CancelledError when `cancel` has fired before the statistics
  /// are built. A deadline or cancel during the search yields a partial
  /// result instead.
  static util::Result<Outcome> run(const JobRequest& req, ArtifactStore* store,
                                   util::CancelToken cancel);
};

}  // namespace tracesel
