#pragma once
// JSON serialization of selection and debugging artifacts — the interchange
// layer for CI dashboards and notebooks (the CLI's --json output).

#include "debug/workbench.hpp"
#include "selection/multi_scenario.hpp"
#include "selection/selector.hpp"
#include "util/json.hpp"

namespace tracesel::selection {

/// {"messages": [...], "packed": [...], "gain":, "coverage":, ...}
util::Json to_json(const flow::MessageCatalog& catalog,
                   const SelectionResult& result);

/// to_json(catalog, result).dump(2) inside a report.serialize span: the
/// bytes `tracesel select --json` prints and traceseld answers with.
std::string report_text(const flow::MessageCatalog& catalog,
                        const SelectionResult& result);

/// Adds per-scenario coverage and the weighted gain.
util::Json to_json(const flow::MessageCatalog& catalog,
                   const MultiScenarioResult& result);

}  // namespace tracesel::selection

namespace tracesel::debug {

/// Full workbench outcome: selection, symptom, observation statuses,
/// investigation steps, surviving causes, localization.
util::Json to_json(const flow::MessageCatalog& catalog,
                   const WorkbenchResult& result);

/// to_json(catalog, result).dump(2) inside a report.serialize span: the
/// bytes `tracesel debug --json` prints.
std::string report_text(const flow::MessageCatalog& catalog,
                        const WorkbenchResult& result);

}  // namespace tracesel::debug
