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
//   tracesel::ArtifactStore store;      // shared workload cache
//   auto out = tracesel::QueryCore::run(req, &store);
//   if (out.ok()) use(*out.value().result);
//
// QueryCore (query_core.hpp) is a set of pure functions from JobRequest to
// selection results; the expensive intermediate (the parsed spec and its
// interleaving statistics) lives in the caller-owned ArtifactStore
// (artifact_store.hpp), keyed by the spec content and instance count, so
// concurrent and repeated queries share it safely. This is the API the
// traceseld daemon (service/server.hpp) multiplexes jobs onto; the daemon
// keeps whole results in its journal's bounded index.
//
// The same functions serve exploration without a store: build a Workload
// once, then interleave and select on it as often as needed.
//
//   auto w = tracesel::QueryCore::workload_from_spec(
//       tracesel::flow::parse_flow_spec_file("soc.flow"));
//   tracesel::QueryCore::interleave(*w, 2, {});
//   auto result = tracesel::QueryCore::select(*w, config, false);
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

// The query API: versioned requests, the content-addressed artifact
// cache, and the stateless query core.
#include "tracesel/artifact_store.hpp"
#include "tracesel/job_request.hpp"
#include "tracesel/query_core.hpp"

// The resilience surface (cancellation tokens, exit-code contract).
#include "tracesel/resilience.hpp"
