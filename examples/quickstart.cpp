// Quickstart: the paper's running example end to end (Figs. 1-2, Sec. 3).
//
// Builds the toy cache-coherence flow, interleaves two indexed instances,
// enumerates message combinations for a 2-bit trace buffer, scores them by
// mutual information gain, and reports the selected combination, its flow
// specification coverage, and a localization query — reproducing every
// number the paper works out by hand (I = 1.073, coverage = 0.7333).
//
// The spec is built in code, so this example drives the selection layer
// directly: a MessageSelector over the interleaving's closed-form
// statistics. A spec on disk or a builtin design goes through
// QueryCore::run instead, as the CLI, the daemon and usb_selection.cpp do.

#include <iostream>

#include "flow/dot.hpp"
#include "tracesel/tracesel.hpp"

int main() {
  using namespace tracesel;

  // --- 1. Messages and the flow DAG (Fig. 1a) ---
  flow::ParsedSpec spec;
  const auto reqE = spec.catalog.add("ReqE", 1, "IP1", "Dir");
  const auto gntE = spec.catalog.add("GntE", 1, "Dir", "IP1");
  const auto ack = spec.catalog.add("Ack", 1, "IP1", "Dir");

  flow::FlowBuilder builder("CacheCoherence");
  builder.state("Init", flow::FlowBuilder::kInitial)
      .state("Wait")
      .state("GntW", flow::FlowBuilder::kAtomic)
      .state("Done", flow::FlowBuilder::kStop)
      .transition("Init", reqE, "Wait")
      .transition("Wait", gntE, "GntW")
      .transition("GntW", ack, "Done");
  spec.flows.push_back(builder.build(spec.catalog));

  const flow::MessageCatalog& catalog = spec.catalog;
  const flow::Flow& coherence = spec.flow("CacheCoherence");
  std::cout << "Flow '" << coherence.name() << "': "
            << coherence.num_states() << " states, "
            << coherence.messages().size() << " messages\n";

  // --- 2. Interleave two legally indexed instances (Fig. 2) ---
  // Selection reads the interleaving's closed-form statistics; no product
  // is materialized for it.
  const selection::MessageSelector selector(
      catalog,
      flow::ProductStats::build(flow::make_instances({&coherence}, 2)));
  const flow::ProductStats& stats = selector.stats();
  std::cout << "Interleaved flow: " << stats.num_product_states()
            << " states, " << stats.num_product_edges()
            << " indexed-message occurrences (paper: 15 states, 18 "
               "occurrences)\n";

  // --- 3. Select messages for a 2-bit trace buffer (Sec. 3.1-3.2) ---
  selection::SelectorConfig config;
  config.buffer_width = 2;
  const auto result = selector.select(config);

  std::cout << "Selected combination:";
  for (const auto m : result.combination.messages)
    std::cout << ' ' << catalog.get(m).name;
  std::cout << "\n  information gain I(X;Y) = " << result.gain
            << " (paper: 1.073)\n"
            << "  flow spec coverage      = " << result.coverage
            << " (paper: 0.7333)\n"
            << "  trace buffer utilization = "
            << result.utilization() * 100 << "%\n";

  // --- 4. Localize an observed trace (Sec. 3.2's example) ---
  // Localization counts executions on the flows' state grid.
  const flow::ProductGrid grid = flow::ProductGrid::build(stats.instances());
  const std::vector<flow::IndexedMessage> observed{
      {reqE, 1}, {gntE, 1}, {reqE, 2}};
  const auto loc = selection::localize(grid, result.observable(), observed);
  std::cout << "Observing {1:ReqE, 1:GntE, 2:ReqE} leaves "
            << loc.consistent_paths << " of " << loc.total_paths
            << " executions consistent ("
            << loc.fraction * 100 << "%)\n";

  // --- 5. Export DOT for inspection ---
  std::cout << "\nGraphviz of the flow (render with `dot -Tpng`):\n"
            << flow::to_dot(coherence, catalog);
  return 0;
}
