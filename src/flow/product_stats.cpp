#include "flow/product_stats.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>

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

bool ProductStats::closed_form_applies(
    const std::vector<IndexedFlow>& instances) {
  return std::none_of(instances.begin(), instances.end(),
                      [](const IndexedFlow& inst) {
                        return inst.flow->is_atomic(
                            inst.flow->initial_states().front());
                      });
}

ProductStats ProductStats::build(std::vector<IndexedFlow> instances,
                                 const InterleaveOptions& options) {
  OBS_SPAN("interleave.stats");
  require_valid_instances(instances);
  if (options.cancel.cancelled())
    throw util::CancelledError("interleave.stats");
  if (!closed_form_applies(instances))
    return count(InterleavedFlow::build(std::move(instances), options));
  ProductStats s;
  s.instances_ = std::move(instances);
  s.closed_form_ = true;
  s.closed_form_counts();
  return s;
}

ProductStats ProductStats::of(const InterleavedFlow& u) {
  return closed_form_applies(u.instances()) ? build(u.instances()) : count(u);
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
  std::vector<std::uint64_t> atomic(k);
  // prod N_j, checked at every step: each N_j >= 1 (the initial state is
  // non-atomic), so every other count below is bounded by |S| and fits
  // once this does.
  u128 all = 1;
  for (std::size_t i = 0; i < k; ++i) {
    const Flow& f = *instances_[i].flow;
    atomic[i] = f.atomic_states().size();
    non_atomic_[i] = f.num_states() - atomic[i];
    all = checked_u64(all * non_atomic_[i], "product state count");
  }

  // Tuples with no atomic component, plus those whose one atomic component
  // is a: every other component sits in any non-atomic state.
  u128 states = all;
  for (std::size_t i = 0; i < k; ++i) {
    others_[i] = static_cast<std::uint64_t>(all / non_atomic_[i]);
    states += static_cast<u128>(atomic[i]) * others_[i];
  }
  states_ = checked_u64(states, "product state count");

  // A transition of F_i fires from every reachable tuple holding its
  // source: the other components are then non-atomic, in any state.
  std::map<IndexedMessage, u128> occ;
  u128 edges = 0;
  for (std::size_t i = 0; i < k; ++i) {
    for (const Transition& t : instances_[i].flow->transitions()) {
      occ[IndexedMessage{t.message, instances_[i].index}] += others_[i];
      edges += others_[i];
    }
  }
  edges_ = checked_u64(edges, "product edge count");

  // In-edges labelled <m, idx> into tuple x: with no atomic component,
  // every instance i of index idx contributes d_i(x_i), the m-transitions
  // into x_i; with atomic component a, only a can have moved last and x
  // receives d_a(x_a). So the class histogram is a convolution over the
  // emitting instances' non-atomic states, scaled by the other instances'
  // state counts, plus one class per atomic target state.
  std::vector<std::uint64_t> into;
  for (const auto& [label, total] : occ) {
    indexed_messages_.push_back(label);
    occurrences_[label] = checked_u64(total, "occurrence count");

    std::map<std::uint64_t, u128> classes;
    std::map<std::uint64_t, u128> tuples{{0, 1}};
    u128 rest = all;
    for (std::size_t i = 0; i < k; ++i) {
      if (instances_[i].index != label.index) continue;
      const Flow& f = *instances_[i].flow;
      into.assign(f.num_states(), 0);
      for (const Transition& t : f.transitions())
        if (t.message == label.message) ++into[t.to];

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
    }
    for (const auto& [c, n] : tuples)
      if (c > 0) classes[c] += n * rest;

    LabelClassHistogram h{label, {}};
    for (const auto& [c, n] : classes)
      h.classes.emplace_back(c, checked_u64(n, "class count"));
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
  // a, the ones whose a-state is visible.
  u128 all = 1;
  u128 dark = 1;
  u128 atomic_visible = 0;
  std::vector<bool> visible;
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    const Flow& f = *instances_[i].flow;
    visible.assign(f.num_states(), false);
    for (const Transition& t : f.transitions())
      if (is_selected(t.message)) visible[t.to] = true;
    std::uint64_t non_atomic_visible = 0;
    for (StateId v = 0; v < f.num_states(); ++v) {
      if (!visible[v]) continue;
      if (f.is_atomic(v))
        atomic_visible += others_[i];
      else
        ++non_atomic_visible;
    }
    all *= non_atomic_[i];
    dark *= non_atomic_[i] - non_atomic_visible;
  }
  return checked_u64(all - dark + atomic_visible, "covered state count");
}

}  // namespace tracesel::flow
