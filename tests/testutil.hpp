#pragma once
// Shared fixtures: the paper's running example (Fig. 1a), a toy cache
// coherence flow with states {Init(n), Wait(w), GntW(c), Done(d)},
// messages ReqE/GntE/Ack (1 bit each), GntW atomic.

#include <vector>

#include "flow/flow_builder.hpp"
#include "flow/indexed_flow.hpp"
#include "flow/interleaved_flow.hpp"
#include "flow/product_grid.hpp"
#include "flow/message.hpp"

namespace tracesel::test {

struct CoherenceFixture {
  flow::MessageCatalog catalog;
  flow::MessageId reqE = catalog.add("ReqE", 1, "IP1", "Dir");
  flow::MessageId gntE = catalog.add("GntE", 1, "Dir", "IP1");
  flow::MessageId ack = catalog.add("Ack", 1, "IP1", "Dir");
  flow::Flow flow_ = make_flow(catalog, reqE, gntE, ack);

  static flow::Flow make_flow(const flow::MessageCatalog& cat,
                              flow::MessageId reqE, flow::MessageId gntE,
                              flow::MessageId ack) {
    flow::FlowBuilder b("CacheCoherence");
    b.state("n", flow::FlowBuilder::kInitial)
        .state("w")
        .state("c", flow::FlowBuilder::kAtomic)
        .state("d", flow::FlowBuilder::kStop)
        .transition("n", reqE, "w")
        .transition("w", gntE, "c")
        .transition("c", ack, "d");
    return b.build(cat);
  }

  /// The two-instance interleaving of Fig. 2 (15 states, 18 edges).
  flow::InterleavedFlow two_instance_interleaving() const {
    return flow::InterleavedFlow::build(flow::make_instances({&flow_}, 2));
  }

  /// A flow that starts in an atomic state: s0 (initial, atomic) -go->
  /// s1 -Ack-> s2 (stop). Adds the message "go" to the catalog.
  flow::Flow starts_atomic_flow() {
    const flow::MessageId go = catalog.add("go", 1, "X", "Y");
    flow::FlowBuilder b("starts_atomic");
    b.state("s0", flow::FlowBuilder::kInitial | flow::FlowBuilder::kAtomic)
        .state("s1")
        .state("s2", flow::FlowBuilder::kStop)
        .transition("s0", go, "s1")
        .transition("s1", ack, "s2");
    return b.build(catalog);
  }

  /// The state grid of the same two instances (16 slots).
  flow::ProductGrid two_instance_grid() const {
    return flow::ProductGrid::build(flow::make_instances({&flow_}, 2));
  }
};

}  // namespace tracesel::test
