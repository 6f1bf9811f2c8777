#include "flow/product_stats.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include "flow/interleaved_flow.hpp"
#include "util/obs.hpp"

namespace tracesel::flow {

namespace {

using u128 = unsigned __int128;

std::uint64_t checked_u64(u128 v, const char* what) {
  if (v > static_cast<u128>(~std::uint64_t{0}))
    throw std::overflow_error(std::string("ProductStats: ") + what +
                              " exceeds 64 bits");
  return static_cast<std::uint64_t>(v);
}

}  // namespace

ProductStats ProductStats::build(std::vector<IndexedFlow> instances,
                                 const util::CancelToken& cancel) {
  OBS_SPAN("interleave.stats");
  require_valid_instances(instances);
  if (cancel.cancelled()) throw util::CancelledError("interleave.stats");
  ProductStats s;
  s.instances_ = std::move(instances);
  s.closed_form_ = true;
  s.closed_form_counts();
  return s;
}

ProductStats ProductStats::count(const InterleavedFlow& u) {
  ProductStats s;
  s.instances_ = u.instances();
  s.states_ = u.num_product_states();
  s.edges_ = u.num_product_edges();
  s.indexed_messages_ = u.indexed_messages();
  for (const IndexedMessage& im : s.indexed_messages_)
    s.occurrences_[im] = u.occurrences(im);
  s.histograms_ = u.label_target_histograms();

  std::vector<std::vector<MessageId>> entered(u.num_nodes());
  for (const InterleavedFlow::Edge& e : u.edges())
    entered[e.to].push_back(e.label.message);
  std::map<std::vector<MessageId>, std::uint64_t> groups;
  for (std::vector<MessageId>& messages : entered) {
    if (messages.empty()) continue;
    std::sort(messages.begin(), messages.end());
    messages.erase(std::unique(messages.begin(), messages.end()),
                   messages.end());
    ++groups[messages];
  }
  s.entered_by_.assign(groups.begin(), groups.end());
  return s;
}

void ProductStats::closed_form_counts() {
  const std::size_t k = instances_.size();
  non_atomic_.resize(k);
  others_.resize(k);

  // The prefix Q of the instance a that starts atomic (at most one does):
  // the states outside Free_a, the states some non-atomic state of a
  // reaches. Free_a is closed under successors, so Q holds atomic states
  // only, reached from the initial state through Q alone; while a runs
  // through Q no other instance moves.
  std::uint64_t prefix_states = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const Flow& f = *instances_[i].flow;
    if (!f.is_atomic(f.initial_states().front())) continue;
    prefix_owner_ = i;
    prefix_.assign(f.num_states(), 1);
    std::vector<StateId> stack;
    for (StateId v = 0; v < f.num_states(); ++v)
      if (!f.is_atomic(v)) stack.push_back(v);
    while (!stack.empty()) {
      const StateId v = stack.back();
      stack.pop_back();
      if (std::exchange(prefix_[v], 0) == 0) continue;
      for (std::uint32_t ti : f.outgoing(v))
        stack.push_back(f.transitions()[ti].to);
    }
    prefix_states = std::count(prefix_.begin(), prefix_.end(), 1);
  }

  // prod N_j, checked at every step: each N_j >= 1 (stop states are
  // non-atomic), so every other count below is bounded by |S| and fits
  // once this does. A_j leaves out the prefix.
  std::vector<std::uint64_t> atomic(k);
  u128 all = 1;
  for (std::size_t i = 0; i < k; ++i) {
    const Flow& f = *instances_[i].flow;
    atomic[i] = f.atomic_states().size() -
                (i == prefix_owner_ ? prefix_states : 0);
    non_atomic_[i] = f.num_states() - f.atomic_states().size();
    all = checked_u64(all * non_atomic_[i], "product state count");
  }

  // Tuples with no atomic component, plus those whose one atomic component
  // is a: every other component sits in any non-atomic state. Each prefix
  // state adds the one tuple it is reached in.
  u128 states = all + prefix_states;
  for (std::size_t i = 0; i < k; ++i) {
    others_[i] = static_cast<std::uint64_t>(all / non_atomic_[i]);
    states += static_cast<u128>(atomic[i]) * others_[i];
  }
  states_ = checked_u64(states, "product state count");

  // A transition of F_i fires from every reachable tuple holding its
  // source: the other components are then non-atomic, in any state. A
  // transition out of the prefix fires once.
  std::map<IndexedMessage, u128> occ;
  u128 edges = 0;
  for (std::size_t i = 0; i < k; ++i) {
    for (const Transition& t : instances_[i].flow->transitions()) {
      const u128 n = in_prefix(i, t.from) ? 1 : others_[i];
      occ[IndexedMessage{t.message, instances_[i].index}] += n;
      edges += n;
    }
  }
  edges_ = checked_u64(edges, "product edge count");

  // In-edges labelled <m, idx> into tuple x: with no atomic component,
  // every instance i of index idx contributes d_i(x_i), the m-transitions
  // into x_i; with atomic component a, only a can have moved last and x
  // receives d_a(x_a). So the class histogram is a convolution over the
  // emitting instances' non-atomic states, scaled by the other instances'
  // state counts, plus one class per atomic target state. For the prefix
  // owner a, d_a leaves out the transitions out of the prefix; they are
  // counted apart, in `from_prefix`.
  std::vector<std::uint64_t> into;
  std::vector<std::uint64_t> owner_into;
  std::vector<std::uint64_t> from_prefix;
  for (const auto& [label, total] : occ) {
    indexed_messages_.push_back(label);
    occurrences_[label] = checked_u64(total, "occurrence count");

    from_prefix.clear();
    std::map<std::uint64_t, u128> classes;
    std::map<std::uint64_t, u128> tuples{{0, 1}};
    u128 rest = all;
    for (std::size_t i = 0; i < k; ++i) {
      if (instances_[i].index != label.index) continue;
      const Flow& f = *instances_[i].flow;
      into.assign(f.num_states(), 0);
      if (i == prefix_owner_) from_prefix.assign(f.num_states(), 0);
      for (const Transition& t : f.transitions()) {
        if (t.message != label.message) continue;
        ++(in_prefix(i, t.from) ? from_prefix : into)[t.to];
      }

      std::map<std::uint64_t, std::uint64_t> dist;
      for (StateId v = 0; v < f.num_states(); ++v) {
        if (!f.is_atomic(v)) {
          ++dist[into[v]];
        } else if (into[v] > 0) {
          classes[into[v]] += others_[i];
        }
      }
      std::map<std::uint64_t, u128> next;
      for (const auto& [c1, n1] : tuples)
        for (const auto& [c2, n2] : dist) next[c1 + c2] += n1 * n2;
      tuples = std::move(next);
      rest /= non_atomic_[i];
      if (i == prefix_owner_) owner_into.swap(into);
    }
    for (const auto& [c, n] : tuples)
      if (c > 0) classes[c] += n * rest;

    // The prefix term: e prefix transitions into t enter the tuple
    // (t, initial states of the others). Those initial states have no
    // in-edges (flows are DAGs reached from their one initial state), so
    // the tuple moves from class d_a(t) (0 in the prefix) up by e.
    for (StateId t = 0; t < from_prefix.size(); ++t) {
      if (from_prefix[t] == 0) continue;
      if (owner_into[t] > 0) --classes[owner_into[t]];
      ++classes[owner_into[t] + from_prefix[t]];
    }

    LabelClassHistogram h{label, {}};
    for (const auto& [c, n] : classes)
      if (n > 0) h.classes.emplace_back(c, checked_u64(n, "class count"));
    histograms_.push_back(std::move(h));
  }
}

std::uint64_t ProductStats::occurrences(const IndexedMessage& im) const {
  const auto it = occurrences_.find(im);
  return it == occurrences_.end() ? 0 : it->second;
}

std::uint64_t ProductStats::covered_states(
    std::span<const MessageId> selected) const {
  const auto is_selected = [&](MessageId m) {
    return std::find(selected.begin(), selected.end(), m) != selected.end();
  };
  if (!closed_form_) {
    std::uint64_t covered = 0;
    for (const auto& [messages, states] : entered_by_)
      if (std::any_of(messages.begin(), messages.end(), is_selected))
        covered += states;
    return covered;
  }

  // Visible tuples: among those with no atomic component, all but the ones
  // whose every component is invisible; among those with atomic component
  // a, the ones whose a-state is visible. A prefix transition into t
  // enters the tuple (t, initial states of the others); the closed form
  // counts it already when a transition out of Free_a enters t too (bit 0
  // of `entered`, bit 1 marks the prefix; the others' initial states have
  // no in-edges, so they are never visible).
  u128 all = 1;
  u128 dark = 1;
  u128 atomic_visible = 0;
  std::uint64_t prefix_only = 0;
  std::vector<std::uint8_t> entered;
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    const Flow& f = *instances_[i].flow;
    entered.assign(f.num_states(), 0);
    for (const Transition& t : f.transitions())
      if (is_selected(t.message)) entered[t.to] |= in_prefix(i, t.from) ? 2 : 1;
    std::uint64_t non_atomic_visible = 0;
    for (StateId v = 0; v < f.num_states(); ++v) {
      if (entered[v] == 2)
        ++prefix_only;
      else if (entered[v] == 0)
        continue;
      else if (f.is_atomic(v))
        atomic_visible += others_[i];
      else
        ++non_atomic_visible;
    }
    all *= non_atomic_[i];
    dark *= non_atomic_[i] - non_atomic_visible;
  }
  return checked_u64(all - dark + atomic_visible + prefix_only,
                     "covered state count");
}

}  // namespace tracesel::flow
