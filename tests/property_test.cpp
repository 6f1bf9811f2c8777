// Property-based tests: invariants of the flow model and the selection
// pipeline checked over randomly generated flow DAGs (parameterized by
// seed). Each generated system has 2-3 flows of 4-7 states with random
// branching, random message widths, random atomic states and atomic
// chains, stop states that are not sinks, messages shared across flows
// and, now and then, an atomic initial state.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <optional>

#include "debug/serialize.hpp"
#include "flow/execution.hpp"
#include "flow/flow_builder.hpp"
#include "selection/coverage.hpp"
#include "selection/localization.hpp"
#include "selection/selector.hpp"
#include "stats_oracle.hpp"
#include "util/obs.hpp"
#include "util/rng.hpp"

namespace tracesel {
namespace {

using flow::Flow;
using flow::FlowBuilder;
using flow::MessageCatalog;
using flow::MessageId;

/// A randomly generated multi-flow system plus its catalog.
struct RandomSystem {
  MessageCatalog catalog;
  std::vector<Flow> flows;
  std::vector<MessageId> all_messages;
  /// The flow whose initial state is atomic, if any.
  std::optional<std::size_t> starts_atomic;
};

RandomSystem make_random_system(std::uint64_t seed) {
  util::Rng rng(seed);
  RandomSystem sys;

  const std::size_t num_flows = 2 + rng.index(2);  // 2..3
  for (std::size_t f = 0; f < num_flows; ++f) {
    const std::size_t states = 4 + rng.index(4);  // 4..7
    std::vector<std::uint8_t> flags(states, FlowBuilder::kNone);
    flags.front() |= FlowBuilder::kInitial;
    flags.back() |= FlowBuilder::kStop;
    // Occasionally mark a middle state atomic.
    for (std::size_t s = 1; s + 1 < states; ++s)
      if (rng.chance(0.25)) flags[s] |= FlowBuilder::kAtomic;
    // An atomic chain: two consecutive atomic middle states.
    if (states >= 5 && rng.chance(0.3)) {
      const std::size_t s = 1 + rng.index(states - 3);
      flags[s] |= FlowBuilder::kAtomic;
      flags[s + 1] |= FlowBuilder::kAtomic;
    }
    // A stop state that is not a sink: executions may end or go on there.
    if (rng.chance(0.3)) {
      const std::size_t s = 1 + rng.index(states - 2);
      if (!(flags[s] & FlowBuilder::kAtomic)) flags[s] |= FlowBuilder::kStop;
    }
    // An atomic initial state, in at most one flow: the closed form's
    // prefix term.
    if (!sys.starts_atomic && rng.chance(0.1)) {
      flags.front() |= FlowBuilder::kAtomic;
      sys.starts_atomic = sys.flows.size();
    }

    FlowBuilder b("flow" + std::to_string(f));
    for (std::size_t s = 0; s < states; ++s)
      b.state("s" + std::to_string(s), flags[s]);
    // Backbone chain guarantees reachability both ways; extra forward
    // edges add branching. Some edges reuse an earlier flow's message, so
    // instances of different flows at the same index emit the same label.
    const std::size_t shared_pool = sys.all_messages.size();
    std::size_t edges = 0;
    auto add_edge = [&](std::size_t from, std::size_t to) {
      MessageId m;
      if (shared_pool > 0 && rng.chance(0.3)) {
        m = sys.all_messages[rng.index(shared_pool)];
      } else {
        m = sys.catalog.add(
            "f" + std::to_string(f) + "_m" + std::to_string(edges++),
            static_cast<std::uint32_t>(1 + rng.index(8)), "A", "B");
        sys.all_messages.push_back(m);
      }
      b.transition("s" + std::to_string(from), m, "s" + std::to_string(to));
    };
    for (std::size_t s = 0; s + 1 < states; ++s) add_edge(s, s + 1);
    const std::size_t extra = rng.index(3);
    for (std::size_t e = 0; e < extra; ++e) {
      const std::size_t from = rng.index(states - 1);
      const std::size_t to = from + 1 + rng.index(states - from - 1);
      add_edge(from, to);
    }
    sys.flows.push_back(b.build(sys.catalog));
  }
  return sys;
}

flow::InterleavedFlow interleave(const std::vector<Flow>& flows,
                                 std::uint32_t instances) {
  std::vector<const Flow*> ptrs;
  for (const Flow& f : flows) ptrs.push_back(&f);
  return flow::InterleavedFlow::build(flow::make_instances(ptrs, instances));
}

/// `instances` instances of each flow, except a single one of the flow
/// that starts atomic: two components starting atomic would break the
/// Atom mutex from the start (Def. 5), which InterleavedFlow rejects.
flow::InterleavedFlow interleave(const RandomSystem& sys,
                                 std::uint32_t instances) {
  std::vector<flow::IndexedFlow> indexed;
  for (std::size_t f = 0; f < sys.flows.size(); ++f) {
    const std::uint32_t n = sys.starts_atomic == f ? 1 : instances;
    for (std::uint32_t i = 1; i <= n; ++i)
      indexed.push_back({&sys.flows[f], i});
  }
  return flow::InterleavedFlow::build(std::move(indexed));
}

class PropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PropertyTest, InterleavingStructuralInvariants) {
  const auto sys = make_random_system(GetParam());
  const auto u = interleave(sys, 2);

  // Node count bounded by the full product.
  std::size_t product = 1;
  for (const Flow& f : sys.flows) product *= f.num_states() * f.num_states();
  EXPECT_LE(u.num_nodes(), product);

  // No reachable node holds two atomic components.
  for (flow::NodeId n = 0; n < u.num_nodes(); ++n) {
    const auto& key = u.node_key(n);
    int atomics = 0;
    for (std::size_t i = 0; i < key.size(); ++i) {
      if (u.instances()[i].flow->is_atomic(key[i])) ++atomics;
    }
    EXPECT_LE(atomics, 1) << u.node_name(n);
  }

  // Edge labels use only flow messages with valid instance indices.
  for (const auto& e : u.edges()) {
    EXPECT_LT(e.instance, u.instances().size());
    EXPECT_EQ(e.label.index, u.instances()[e.instance].index);
    EXPECT_TRUE(
        u.instances()[e.instance].flow->uses_message(e.label.message));
  }

  // Occurrence counts sum to the product edge count.
  std::uint64_t occ = 0;
  for (const auto& im : u.indexed_messages()) occ += u.occurrences(im);
  EXPECT_EQ(occ, u.num_product_edges());
  EXPECT_EQ(u.num_nodes(), u.num_product_states());

  // Paths exist and stop tuples exist.
  EXPECT_FALSE(u.stop_nodes().empty());
  EXPECT_GE(test::oracle::count_paths(u), 1.0);
}

TEST_P(PropertyTest, GainMonotoneAndBoundedByMax) {
  const auto sys = make_random_system(GetParam());
  const auto u = interleave(sys, 2);
  const selection::InfoGainEngine engine(
      flow::ProductStats::build(u.instances()));

  util::Rng rng(GetParam() ^ 0xABCD);
  std::vector<MessageId> shuffled = sys.all_messages;
  rng.shuffle(shuffled);

  double last = 0.0;
  std::vector<MessageId> prefix;
  for (const MessageId m : shuffled) {
    prefix.push_back(m);
    const double g = engine.info_gain(prefix);
    EXPECT_GE(g, last - 1e-12);
    last = g;
  }
  EXPECT_NEAR(last, engine.max_gain(), 1e-9);
  for (const auto& im : u.indexed_messages())
    EXPECT_GE(engine.contribution(im), 0.0);
}

TEST_P(PropertyTest, CoverageMonotoneAndBoundedByEnteredStates) {
  const auto sys = make_random_system(GetParam());
  const auto u = interleave(sys, 2);

  util::Rng rng(GetParam() ^ 0x1234);
  std::vector<MessageId> shuffled = sys.all_messages;
  rng.shuffle(shuffled);

  double last = 0.0;
  std::vector<MessageId> prefix;
  for (const MessageId m : shuffled) {
    prefix.push_back(m);
    const double c = selection::flow_spec_coverage(u, prefix);
    EXPECT_GE(c, last - 1e-12);
    last = c;
  }
  // Full alphabet coverage = fraction of product states with an incoming
  // edge.
  std::vector<bool> entered(u.num_nodes(), false);
  for (const auto& e : u.edges()) entered[e.to] = true;
  const double max_cov =
      static_cast<double>(std::count(entered.begin(), entered.end(), true)) /
      static_cast<double>(u.num_product_states());
  EXPECT_NEAR(last, max_cov, 1e-12);
}

/// The knapsack DP against the exhaustive oracle at every buffer width in
/// [1, max_width]: the same combination, width and gain bits, and the same
/// report bytes (Step 3 packing included).
void expect_knapsack_matches_exhaustive(const MessageCatalog& catalog,
                                        const flow::InterleavedFlow& u,
                                        std::uint32_t max_width) {
  const selection::MessageSelector selector(catalog, u);
  for (std::uint32_t width = 1; width <= max_width; ++width) {
    SCOPED_TRACE("buffer " + std::to_string(width));
    selection::SelectorConfig ex, kn;
    ex.buffer_width = kn.buffer_width = width;
    ex.mode = selection::SearchMode::kExhaustive;
    kn.mode = selection::SearchMode::kKnapsack;
    selection::SelectionResult want;
    try {
      want = selector.select(ex);
    } catch (const std::runtime_error&) {
      EXPECT_THROW(selector.select(kn), std::runtime_error);
      continue;
    }
    const selection::SelectionResult got = selector.select(kn);
    EXPECT_EQ(got.combination.messages, want.combination.messages);
    EXPECT_EQ(got.combination.width, want.combination.width);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.gain_unpacked),
              std::bit_cast<std::uint64_t>(want.gain_unpacked));
    EXPECT_EQ(selection::to_json(catalog, got).dump(2),
              selection::to_json(catalog, want).dump(2));
  }
}

TEST_P(PropertyTest, KnapsackMatchesExhaustiveOptimum) {
  const auto sys = make_random_system(GetParam());
  expect_knapsack_matches_exhaustive(sys.catalog, interleave(sys, 1), 64);
}

TEST_P(PropertyTest, RandomExecutionsAreValidAndLocalizable) {
  const auto sys = make_random_system(GetParam());
  const auto u = interleave(sys, 2);
  const auto grid = flow::ProductGrid::build(u.instances());

  util::Rng rng(GetParam() ^ 0xE0E0);
  // Random selected subset.
  std::vector<MessageId> selected;
  for (const MessageId m : sys.all_messages) {
    if (rng.chance(0.5)) selected.push_back(m);
  }

  for (int i = 0; i < 5; ++i) {
    const auto e = flow::random_execution(u, rng);
    EXPECT_TRUE(flow::is_valid_execution(u, e));
    if (!e.completed) continue;
    const auto obs = flow::project(e.trace(), selected);
    const auto loc = selection::localize(grid, selected, obs);
    // Soundness: the true execution is never excluded.
    EXPECT_GE(loc.consistent_paths, 1.0);
    EXPECT_LE(loc.consistent_paths, loc.total_paths);
    // Multiset semantics is a relaxation of ordered semantics; check on a
    // bounded observation prefix (the multiset lattice is exponential in
    // distinct observed kinds).
    const std::vector<flow::IndexedMessage> short_obs(
        obs.begin(), obs.begin() + std::min<std::size_t>(obs.size(), 6));
    const double ordered_short =
        grid.count_consistent_paths(selected, short_obs);
    EXPECT_GE(
        test::oracle::count_consistent_paths_multiset(u, selected, short_obs),
        ordered_short);
  }
}

TEST_P(PropertyTest, EmptyObservationNeverLocalizes) {
  const auto sys = make_random_system(GetParam());
  const auto u = interleave(sys, 1);
  const auto loc = selection::localize(
      flow::ProductGrid::build(u.instances()), sys.all_messages, {});
  EXPECT_DOUBLE_EQ(loc.fraction, 1.0);
}

TEST_P(PropertyTest, SelectorRespectsBudgetAndObservableSuperset) {
  const auto sys = make_random_system(GetParam());
  const auto u = interleave(sys, 2);
  const selection::MessageSelector selector(sys.catalog, u);

  util::Rng rng(GetParam() ^ 0x5150);
  const std::uint32_t budget =
      static_cast<std::uint32_t>(6 + rng.index(26));
  selection::SelectorConfig cfg;
  cfg.buffer_width = budget;
  selection::SelectionResult r;
  try {
    r = selector.select(cfg);
  } catch (const std::runtime_error&) {
    return;  // nothing fits: acceptable for tiny budgets
  }
  EXPECT_LE(r.used_width, budget);
  EXPECT_GE(r.gain, r.gain_unpacked - 1e-12);
  EXPECT_GE(r.coverage, r.coverage_unpacked - 1e-12);
  // observable() includes every Step 2 message.
  const auto obs = r.observable();
  for (const MessageId m : r.combination.messages) {
    EXPECT_NE(std::find(obs.begin(), obs.end(), m), obs.end());
  }
}

TEST_P(PropertyTest, GreedyNeverBeatsExhaustive) {
  const auto sys = make_random_system(GetParam());
  const auto u = interleave(sys, 1);
  const selection::MessageSelector selector(sys.catalog, u);
  selection::SelectorConfig ex, gr;
  ex.buffer_width = gr.buffer_width = 16;
  ex.mode = selection::SearchMode::kExhaustive;
  gr.mode = selection::SearchMode::kGreedy;
  ex.packing = gr.packing = false;
  try {
    EXPECT_GE(selector.select(ex).gain, selector.select(gr).gain - 1e-12);
  } catch (const std::runtime_error&) {
    // nothing fits: both must agree on that too.
    EXPECT_THROW(selector.select(gr), std::runtime_error);
  }
}

TEST(ClosedFormDifferential, GeneratedSystemsMatchTheProduct) {
  // ProductStats against the product over 300 generated systems at one
  // and two instances per flow; the ones that start atomic add the closed
  // form's prefix term and must match too.
  std::size_t starts_atomic = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const auto sys = make_random_system(seed);
    for (const std::uint32_t n : {1u, 2u}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " x" + std::to_string(n));
      const auto u = interleave(sys, n);
      if (sys.starts_atomic) ++starts_atomic;
      test::expect_stats_match_product(u, sys.all_messages, seed * 2 + n);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(starts_atomic, 0u);
}

TEST(ProductOracleDifferential, GeneratedSystemsMatchTheOracle) {
  // The state grid's DPs and the product's histograms against the
  // memoized oracle over 300 generated systems at one and two instances
  // per flow; the ones that start atomic leave legal grid slots
  // unreachable, and must match too.
  std::size_t starts_atomic = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const auto sys = make_random_system(seed);
    for (const std::uint32_t n : {1u, 2u}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " x" + std::to_string(n));
      const auto u = interleave(sys, n);
      if (sys.starts_atomic) ++starts_atomic;
      test::expect_product_matches_oracle(u, sys.all_messages, seed * 2 + n);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(starts_atomic, 0u);
}

TEST(ProductOracleDifferential, EveryEdgeRaisesTheGridIndex) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const auto sys = make_random_system(seed);
    const auto u = interleave(sys, 2);
    const auto grid = flow::ProductGrid::build(u.instances());
    for (const auto& e : u.edges())
      ASSERT_LT(grid.slot(u.node_key(e.from)), grid.slot(u.node_key(e.to)))
          << "seed " << seed << ": " << u.node_name(e.from) << " -> "
          << u.node_name(e.to);
  }
}

TEST(ProductOracleDifferential, GridRejectsOversizeAndCancelledBuilds) {
  const auto sys = make_random_system(7);
  const auto u = interleave(sys, 2);
  std::size_t slots = 1;
  for (const flow::IndexedFlow& inst : u.instances())
    slots *= inst.flow->num_states();
  flow::InterleaveOptions options;
  options.max_nodes = slots;
  EXPECT_EQ(flow::ProductGrid::build(u.instances(), options).num_slots(),
            slots);
  options.max_nodes = slots - 1;
  EXPECT_THROW(flow::ProductGrid::build(u.instances(), options),
               std::length_error);

  flow::InterleaveOptions cancelled;
  cancelled.cancel = util::CancelToken::make();
  cancelled.cancel.cancel();
  EXPECT_THROW(flow::ProductGrid::build(u.instances(), cancelled),
               util::CancelledError);
}

INSTANTIATE_TEST_SUITE_P(RandomFlows, PropertyTest,
                         ::testing::Range<std::uint64_t>(1, 21));

/// One chain flow s0 -> s1 -> ... over fresh messages of the given widths.
/// Every message labels exactly one edge into its own state, so all of
/// them contribute the same gain.
struct Chain {
  MessageCatalog catalog;
  std::vector<MessageId> messages;
  std::vector<Flow> flows;
};

Chain make_chain(const std::vector<std::uint32_t>& widths) {
  Chain c;
  FlowBuilder b("chain");
  for (std::size_t s = 0; s <= widths.size(); ++s) {
    std::uint8_t flags = FlowBuilder::kNone;
    if (s == 0) flags |= FlowBuilder::kInitial;
    if (s == widths.size()) flags |= FlowBuilder::kStop;
    b.state("s" + std::to_string(s), flags);
  }
  for (std::size_t i = 0; i < widths.size(); ++i) {
    c.messages.push_back(
        c.catalog.add("m" + std::to_string(i), widths[i], "A", "B"));
    b.transition("s" + std::to_string(i), c.messages.back(),
                 "s" + std::to_string(i + 1));
  }
  c.flows.push_back(b.build(c.catalog));
  return c;
}

TEST(ProductOracleDifferential, PathCountsPastTwoToThe53TakeTheSweep) {
  // Four 16-state chains: 60! / (15!)^4 executions, past 2^53, on a grid
  // of 16^4 = 65,536 slots, every one reachable. The closed form declines
  // and count_paths sweeps the grid; the sweep adds in the oracle's order,
  // so even these rounded counts are the oracle's bit for bit.
  const Chain c = make_chain(std::vector<std::uint32_t>(15, 1));
  const auto u = interleave(c.flows, 4);
  obs::set_enabled(true);
  obs::reset();
  const auto grid = flow::ProductGrid::build(u.instances());
  EXPECT_EQ(obs::registry().counter_value("interleave.grid.visited"), 65536u);
  obs::set_enabled(false);
  obs::reset();
  EXPECT_GT(grid.count_paths(), 9007199254740992.0);  // 2^53
  test::expect_product_matches_oracle(u, c.messages, 53, 2);
}

TEST(KnapsackDifferential, EqualGainEqualWidthTiesPickTheSmallestIds) {
  // Every pair of these messages has the same gain and width: exhaustive
  // keeps the lexicographically smallest pair, and so must the knapsack.
  // (Unequal gains that tie only after rounding are pinned on the bare DP
  // in selection_knapsack_test.cpp; random seeds here hit them too.)
  const Chain c = make_chain({2, 2, 2, 2});
  const auto u = interleave(c.flows, 1);
  const selection::MessageSelector selector(c.catalog, u);
  selection::SelectorConfig cfg;
  cfg.buffer_width = 4;
  EXPECT_EQ(selector.select(cfg).combination.messages,
            (std::vector<MessageId>{c.messages[0], c.messages[1]}));
  expect_knapsack_matches_exhaustive(c.catalog, u, 12);
}

TEST(KnapsackDifferential, BufferWiderThanEveryCandidateTakesThemAll) {
  const Chain c = make_chain({3, 1, 4, 1, 5});
  const auto u = interleave(c.flows, 2);
  const selection::MessageSelector selector(c.catalog, u);
  selection::SelectorConfig cfg;
  cfg.buffer_width = 64;
  const auto r = selector.select(cfg);
  EXPECT_EQ(r.combination.messages, c.messages);
  EXPECT_EQ(r.combination.width, 14u);
  expect_knapsack_matches_exhaustive(c.catalog, u, 40);
}

}  // namespace
}  // namespace tracesel
