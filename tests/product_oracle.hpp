#pragma once
// The naive memoized DPs over a materialized InterleavedFlow: the test
// oracle for flow::ProductGrid's path counts and the product's label
// histograms (DESIGN.md §14). Each one walks the product through its
// public edge list and CSR rows only, memoizes per (node, position) with
// an explicit post-order stack, and adds per node in the contract's order
// (stop bonus first, then edges in ascending CSR order), so the grid's
// sweeps must match it bit for bit.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "flow/interleaved_flow.hpp"

namespace tracesel::test::oracle {

/// -2 for an edge whose message is not selected, -1 for a visible edge
/// whose label is not in `kinds`, else its index in `kinds`.
inline std::vector<std::int32_t> classify_edges(
    const flow::InterleavedFlow& u, const std::vector<bool>& is_selected,
    const std::vector<flow::IndexedMessage>& kinds) {
  std::vector<std::int32_t> code(u.num_edges());
  for (std::size_t e = 0; e < u.num_edges(); ++e) {
    const flow::IndexedMessage& label = u.edges()[e].label;
    if (!is_selected[label.message]) {
      code[e] = -2;
      continue;
    }
    const auto it = std::find(kinds.begin(), kinds.end(), label);
    code[e] = it == kinds.end() ? -1
                                : static_cast<std::int32_t>(it - kinds.begin());
  }
  return code;
}

/// is_selected over every id in `selected` and on the product's edges;
/// throws std::invalid_argument if `observed` holds an unselected id.
inline std::vector<bool> selected_mask(
    const flow::InterleavedFlow& u, const std::vector<flow::MessageId>& selected,
    const std::vector<flow::IndexedMessage>& observed) {
  flow::MessageId max_id = 0;
  for (flow::MessageId m : selected) max_id = std::max(max_id, m);
  for (const auto& e : u.edges()) max_id = std::max(max_id, e.label.message);
  std::vector<bool> is_selected(static_cast<std::size_t>(max_id) + 1, false);
  for (flow::MessageId m : selected) is_selected[m] = true;
  for (const flow::IndexedMessage& im : observed)
    if (im.message >= is_selected.size() || !is_selected[im.message])
      throw std::invalid_argument(
          "oracle: observed trace contains a message outside the selected "
          "combination");
  return is_selected;
}

/// Memoized count of stop-terminated paths from the initial node over
/// (node, state) pairs: `next(e, c)` is the state after taking edge e in
/// state c (nullopt kills the path) and `accept(c)` whether a stop node
/// ends a counted path in state c.
template <typename Next, typename Accept>
double count_from_roots(const flow::InterleavedFlow& u, std::size_t states,
                        Next next, Accept accept) {
  std::vector<double> memo(u.num_nodes() * states, -1.0);
  const auto slot = [&](flow::NodeId n, std::size_t c) -> double& {
    return memo[static_cast<std::size_t>(n) * states + c];
  };
  struct Item {
    flow::NodeId n;
    std::size_t c;
    bool processed;
  };
  std::vector<Item> stack;
  double total = 0.0;
  for (flow::NodeId r : u.initial_nodes()) {
    stack.push_back(Item{r, 0, false});
    while (!stack.empty()) {
      const Item it = stack.back();
      stack.pop_back();
      if (slot(it.n, it.c) >= 0.0) continue;
      if (!it.processed) {
        stack.push_back(Item{it.n, it.c, true});
        for (std::uint32_t e : u.outgoing(it.n))
          if (const auto c2 = next(e, it.c))
            if (slot(u.edges()[e].to, *c2) < 0.0)
              stack.push_back(Item{u.edges()[e].to, *c2, false});
      } else {
        double paths = u.is_stop(it.n) && accept(it.c) ? 1.0 : 0.0;
        for (std::uint32_t e : u.outgoing(it.n))
          if (const auto c2 = next(e, it.c)) paths += slot(u.edges()[e].to, *c2);
        slot(it.n, it.c) = paths;
      }
    }
    total += slot(r, 0);
  }
  return total;
}

/// Root-to-stop paths of the product DAG.
inline double count_paths(const flow::InterleavedFlow& u) {
  return count_from_roots(
      u, 1, [](std::uint32_t, std::size_t c) -> std::optional<std::size_t> {
        return c;
      },
      [](std::size_t) { return true; });
}

/// Executions whose projection onto `selected` starts with `observed` in
/// order.
inline double count_consistent_paths(
    const flow::InterleavedFlow& u, const std::vector<flow::MessageId>& selected,
    const std::vector<flow::IndexedMessage>& observed) {
  const std::vector<bool> is_selected = selected_mask(u, selected, observed);
  const std::size_t olen = observed.size();
  std::vector<flow::IndexedMessage> kinds;
  std::vector<std::int32_t> obs_kind(olen);
  for (std::size_t j = 0; j < olen; ++j) {
    const auto it = std::find(kinds.begin(), kinds.end(), observed[j]);
    obs_kind[j] = static_cast<std::int32_t>(it - kinds.begin());
    if (it == kinds.end()) kinds.push_back(observed[j]);
  }
  const std::vector<std::int32_t> code = classify_edges(u, is_selected, kinds);
  return count_from_roots(
      u, olen + 1,
      [&](std::uint32_t e, std::size_t j) -> std::optional<std::size_t> {
        if (code[e] == -2) return j;  // invisible step
        if (j < olen) {
          if (code[e] == obs_kind[j]) return j + 1;
          return std::nullopt;  // visible mismatch kills the path
        }
        return j;  // prefix matched; extra visible messages are fine
      },
      [&](std::size_t j) { return j == olen; });
}

/// Executions whose first |observed| projected messages form exactly the
/// observed multiset (the order-insensitive reading of Sec. 3.2's
/// example). Exponential in the distinct observed labels.
inline double count_consistent_paths_multiset(
    const flow::InterleavedFlow& u, const std::vector<flow::MessageId>& selected,
    const std::vector<flow::IndexedMessage>& observed) {
  const std::vector<bool> is_selected = selected_mask(u, selected, observed);
  // A consumption state is a vector of per-kind counts in mixed radix.
  std::vector<flow::IndexedMessage> kinds;
  std::vector<std::size_t> need;
  for (const flow::IndexedMessage& im : observed) {
    const auto it = std::find(kinds.begin(), kinds.end(), im);
    if (it == kinds.end()) {
      kinds.push_back(im);
      need.push_back(1);
    } else {
      ++need[static_cast<std::size_t>(it - kinds.begin())];
    }
  }
  std::vector<std::size_t> stride(kinds.size());
  std::size_t states = 1;
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    stride[i] = states;
    states *= need[i] + 1;
  }
  const std::size_t full = states - 1;  // every digit at its maximum
  const std::vector<std::int32_t> code = classify_edges(u, is_selected, kinds);
  return count_from_roots(
      u, states,
      [&](std::uint32_t e, std::size_t c) -> std::optional<std::size_t> {
        if (code[e] == -2 || c == full) return c;
        if (code[e] == -1) return std::nullopt;  // visible, never observed
        const std::size_t i = static_cast<std::size_t>(code[e]);
        if ((c / stride[i]) % (need[i] + 1) >= need[i])
          return std::nullopt;  // kind already consumed
        return c + stride[i];
      },
      [&](std::size_t c) { return c == full; });
}

/// In-edge class histograms of every label, from nested maps over the edge
/// list.
inline std::vector<flow::LabelClassHistogram> histograms(
    const flow::InterleavedFlow& u) {
  std::map<flow::IndexedMessage,
           std::unordered_map<flow::NodeId, std::uint64_t>>
      cnt;
  for (const auto& e : u.edges()) ++cnt[e.label][e.to];
  std::vector<flow::LabelClassHistogram> out;
  for (const auto& [label, targets] : cnt) {
    std::map<std::uint64_t, std::uint64_t> classes;
    for (const auto& [node, c] : targets) ++classes[c];
    out.push_back({label, {classes.begin(), classes.end()}});
  }
  return out;
}

}  // namespace tracesel::test::oracle
