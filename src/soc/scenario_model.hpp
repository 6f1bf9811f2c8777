#pragma once
// The selection-side model of one usage scenario, built once and shared by
// every debug run on it: the scenario's indexed instances, their
// closed-form statistics (DESIGN.md §9) behind a MessageSelector, the state
// grid localization counts paths on (§14), and the selections already made.
// None of these depends on a run's seed or bugs, so T2Design builds one
// model per scenario (T2Design::scenario_model) and every case study of
// that scenario reads it.
//
// Thread safety: everything but the selection memo is immutable once the
// constructor returns, and select() guards the memo with a mutex, so one
// model serves concurrent runs. The catalog and flows must outlive the
// model: its instances point into the flows.

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "flow/product_grid.hpp"
#include "selection/selector.hpp"

namespace tracesel::soc {

class ScenarioModel {
 public:
  /// At most this many selections are kept; a further (width, packing)
  /// pair is computed on every call and not stored.
  static constexpr std::size_t kMaxSelections = 64;

  /// Builds the statistics and the grid of `instances_per_flow` indexed
  /// instances of each flow, and counts one `debug.scenario.builds`.
  /// Throws std::invalid_argument on an empty flow list or an instance
  /// set ProductStats::build rejects.
  ScenarioModel(const flow::MessageCatalog& catalog,
                std::vector<const flow::Flow*> flows,
                std::uint32_t instances_per_flow);
  ScenarioModel(const ScenarioModel&) = delete;
  ScenarioModel& operator=(const ScenarioModel&) = delete;

  const flow::MessageCatalog& catalog() const { return selector_.catalog(); }
  const std::vector<const flow::Flow*>& flows() const { return flows_; }
  std::uint32_t instances_per_flow() const { return instances_per_flow_; }
  const flow::ProductGrid& grid() const { return grid_; }

  /// MessageSelector::select at `buffer_width` bits, Step 3 packing on or
  /// off, every other SelectorConfig field at its default. Memoized.
  selection::SelectionResult select(std::uint32_t buffer_width,
                                    bool packing) const;

 private:
  std::vector<const flow::Flow*> flows_;
  std::uint32_t instances_per_flow_;
  selection::MessageSelector selector_;
  flow::ProductGrid grid_;

  mutable std::mutex mu_;
  mutable std::map<std::pair<std::uint32_t, bool>, selection::SelectionResult>
      selections_;
};

}  // namespace tracesel::soc
