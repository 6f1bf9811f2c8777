#pragma once
// Umbrella header: the public API of the tracesel library in one include.
//
//   #include "tracesel/tracesel.hpp"
//
// The primary entry point is the stateless query API (PR 7):
//
//   tracesel::JobRequest req;           // one versioned request object
//   req.spec = "soc.flow";              // or "t2" / "usb" builtins
//   req.instances = 2;
//   tracesel::ArtifactStore store;      // shared, content-addressed cache
//   auto out = tracesel::QueryCore::run(req, &store);
//   if (out.ok()) use(*out.value().result);
//
// QueryCore (query_core.hpp) is a set of pure functions from JobRequest to
// selection results; every expensive intermediate (the parsed spec and its
// interleaving statistics, the memoized selection) lives in the caller-owned
// ArtifactStore (artifact_store.hpp), keyed by the request's canonical
// hash, so concurrent and repeated queries share work safely. This is the
// API the traceseld daemon (service/server.hpp) multiplexes jobs onto.
//
// tracesel::Session (session.hpp) remains as a thin compatibility facade
// over QueryCore for incremental, stateful exploration (load a spec once,
// re-interleave, re-select, drive case studies). New
// code — and anything that runs queries concurrently — should prefer
// QueryCore + ArtifactStore; direct Session use is kept source-compatible
// but is no longer the primary API.
//
// The layer headers below remain public for callers that need one
// building block (e.g. a custom flow built with flow::FlowBuilder, or the
// gate-level baselines, which stay in baseline/ and netlist/).

// Flow layer: messages, flow DAGs, interleavings and their closed-form
// statistics, the .flow parser.
#include "flow/flow.hpp"
#include "flow/flow_builder.hpp"
#include "flow/interleaved_flow.hpp"
#include "flow/lint.hpp"
#include "flow/message.hpp"
#include "flow/parser.hpp"
#include "flow/product_grid.hpp"
#include "flow/product_stats.hpp"
#include "flow/stats.hpp"

// Selection layer: Steps 1-3, multi-scenario planning.
#include "selection/combination.hpp"
#include "selection/coverage.hpp"
#include "selection/info_gain.hpp"
#include "selection/knapsack.hpp"
#include "selection/localization.hpp"
#include "selection/multi_scenario.hpp"
#include "selection/packing.hpp"
#include "selection/selector.hpp"

// SoC + debug layer: the T2 uncore, simulation, capture, case studies.
#include "debug/case_study.hpp"
#include "debug/monte_carlo.hpp"
#include "debug/workbench.hpp"
#include "soc/scenario.hpp"
#include "soc/t2_design.hpp"

// Utilities callers commonly need alongside the facade.
#include "util/thread_pool.hpp"

// The query API: versioned requests, the content-addressed artifact
// cache, and the stateless query core.
#include "tracesel/artifact_store.hpp"
#include "tracesel/job_request.hpp"
#include "tracesel/query_core.hpp"

// The resilience surface (cancellation tokens, exit-code contract) and
// the stateful compatibility facade.
#include "tracesel/resilience.hpp"
#include "tracesel/session.hpp"
