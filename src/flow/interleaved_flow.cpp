#include "flow/interleaved_flow.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "util/obs.hpp"

namespace tracesel::flow {

std::vector<IndexedFlow> make_instances(const std::vector<const Flow*>& flows,
                                        std::uint32_t instances_per_flow) {
  if (instances_per_flow == 0)
    throw std::invalid_argument("make_instances: zero instances per flow");
  std::vector<IndexedFlow> out;
  out.reserve(flows.size() * instances_per_flow);
  for (const Flow* f : flows) {
    if (f == nullptr)
      throw std::invalid_argument("make_instances: null flow");
    for (std::uint32_t i = 1; i <= instances_per_flow; ++i)
      out.push_back(IndexedFlow{f, i});
  }
  return out;
}

void require_valid_instances(const std::vector<IndexedFlow>& instances) {
  if (instances.empty())
    throw std::invalid_argument("InterleavedFlow: no instances");
  for (const IndexedFlow& inst : instances) {
    if (inst.flow == nullptr)
      throw std::invalid_argument("InterleavedFlow: null flow instance");
    // The product construction assumes a unique initial state per component;
    // multi-initial flows can be modeled with a shared pre-initial state.
    if (inst.flow->initial_states().size() != 1)
      throw std::invalid_argument("InterleavedFlow: flow '" +
                                  inst.flow->name() +
                                  "' must have exactly one initial state");
  }
  if (!legally_indexed(instances))
    throw std::invalid_argument(
        "InterleavedFlow: instances are not legally indexed (duplicate "
        "<flow, index> pair, Def. 4)");
  // Def. 5 lets a component move only while every other one is
  // non-atomic: two components starting atomic could never move, and the
  // Atom mutex would fail in the initial tuple itself.
  const auto starts_atomic = [](const IndexedFlow& inst) {
    return inst.flow->is_atomic(inst.flow->initial_states().front());
  };
  if (std::count_if(instances.begin(), instances.end(), starts_atomic) > 1)
    throw std::invalid_argument(
        "InterleavedFlow: more than one instance starts in an atomic state "
        "(Atom mutex, Def. 5)");
}

InterleavedFlow InterleavedFlow::build(std::vector<IndexedFlow> instances,
                                       const InterleaveOptions& options) {
  OBS_SPAN("interleave.build");
  require_valid_instances(instances);

  InterleavedFlow u;
  u.instances_ = std::move(instances);
  u.codec_ = KeyCodec(u.instances_);
  u.interner_ = KeyInterner(u.codec_.words());

  u.build_graph(options);
  OBS_COUNT("interleave.builds", 1);
  OBS_COUNT("interleave.nodes", u.num_nodes_);
  OBS_COUNT("interleave.edges", u.edges_.size());
  OBS_COUNT("interleave.interner.probes", u.interner_.probes());
  OBS_GAUGE_MAX("interleave.product_states", u.num_nodes_);
  OBS_GAUGE_MAX("interleave.product_edges", u.edges_.size());
  return u;
}

void InterleavedFlow::build_graph(const InterleaveOptions& options) {
  OBS_SPAN("interleave.graph");
  const std::size_t k = instances_.size();
  const std::size_t words = codec_.words();

  // The sorted distinct labels of the instances' component transitions.
  for (const IndexedFlow& inst : instances_)
    for (const Transition& t : inst.flow->transitions())
      labels_.push_back(IndexedMessage{t.message, inst.index});
  std::sort(labels_.begin(), labels_.end());
  labels_.erase(std::unique(labels_.begin(), labels_.end()), labels_.end());
  label_count_.assign(labels_.size(), 0);

  // Per-component state tables, and each state's outgoing transitions as
  // (target, label id) moves in the flow's order, CSR over the states.
  struct Move {
    StateId to = kInvalidState;
    std::uint32_t label = 0;
  };
  struct Component {
    std::vector<std::uint8_t> atomic;
    std::vector<std::uint8_t> stop;
    std::vector<std::uint32_t> first_move;  ///< size |S_i| + 1
    std::vector<Move> moves;
  };
  std::vector<Component> comps(k);
  for (std::size_t i = 0; i < k; ++i) {
    const Flow& f = *instances_[i].flow;
    Component& c = comps[i];
    c.first_move.push_back(0);
    for (StateId s = 0; s < f.num_states(); ++s) {
      c.atomic.push_back(f.is_atomic(s) ? 1 : 0);
      c.stop.push_back(f.is_stop(s) ? 1 : 0);
      for (std::uint32_t ti : f.outgoing(s)) {
        const Transition& t = f.transitions()[ti];
        const IndexedMessage im{t.message, instances_[i].index};
        c.moves.push_back(Move{
            t.to, static_cast<std::uint32_t>(
                      std::lower_bound(labels_.begin(), labels_.end(), im) -
                      labels_.begin())});
      }
      c.first_move.push_back(static_cast<std::uint32_t>(c.moves.size()));
    }
  }

  // Sized up front from the closed form's exact counts (DESIGN.md §9)
  // when they fit the cap: no interner rehash and no edge-list regrowth
  // during the sweep.
  std::size_t nodes = 0;
  std::size_t edges = 0;
  try {
    const ProductStats stats = ProductStats::build(instances_);
    if (stats.num_product_states() <= options.max_nodes) {
      nodes = stats.num_product_states();
      edges = stats.num_product_edges();
    }
  } catch (const std::overflow_error&) {
    // Past 64 bits: the cap stops the sweep long before.
  }
  interner_.reserve(nodes);
  stop_mask_.reserve(nodes);
  out_offset_.reserve(nodes + 1);
  edges_.reserve(edges);
  edge_label_.reserve(edges);

  // Interns a successor key; a new node gets its stop bit on discovery.
  const auto discover = [&](const std::uint64_t* key, bool stop) -> NodeId {
    bool inserted = false;
    const NodeId id = interner_.intern(key, inserted);
    if (inserted) {
      if (interner_.size() > options.max_nodes)
        throw std::length_error(
            "InterleavedFlow: reachable product exceeds max_nodes");
      stop_mask_.push_back(stop ? 1 : 0);
      if (stop) stop_.push_back(id);
    }
    return id;
  };

  std::vector<StateId> cur(k);
  std::vector<std::uint64_t> key(words);
  std::vector<std::uint64_t> next(words);
  {
    bool stop = true;
    for (std::size_t i = 0; i < k; ++i) {
      cur[i] = instances_[i].flow->initial_states().front();
      stop = stop && comps[i].stop[cur[i]];
    }
    codec_.encode(cur.data(), key.data());
    initial_.push_back(discover(key.data(), stop));
  }
  out_offset_.assign(1, 0);

  // Nodes are interned in discovery order, which is exactly the expansion
  // order, so a plain id sweep doubles as the worklist and the edge list
  // comes out sorted by source — the CSR offsets need no second pass.
  for (NodeId n = 0; static_cast<std::size_t>(n) < interner_.size(); ++n) {
    if ((n & 1023) == 0 && options.cancel.cancelled())
      throw util::CancelledError("interleave.build");
    // Copied out: interning a successor may grow the key storage.
    const std::uint64_t* stored = interner_.key(n);
    std::copy(stored, stored + words, key.begin());
    codec_.decode(key.data(), cur.data());

    // Which component sits in an atomic state? If one does, only it may
    // move (generalized Def. 5 rules i/ii). By construction at most one
    // component is atomic.
    std::size_t atomic_holder = k;  // k == none
    std::uint32_t non_stop = 0;
    for (std::size_t i = 0; i < k; ++i) {
      if (atomic_holder == k && comps[i].atomic[cur[i]]) atomic_holder = i;
      non_stop += comps[i].stop[cur[i]] ? 0 : 1;
    }

    for (std::size_t i = 0; i < k; ++i) {
      if (atomic_holder != k && atomic_holder != i) continue;
      const Component& c = comps[i];
      const StateId s = cur[i];
      // The successor's non-stop count differs from n's only in component
      // i's term.
      const std::uint32_t other_non_stop = non_stop - (c.stop[s] ? 0 : 1);
      for (std::uint32_t m = c.first_move[s]; m < c.first_move[s + 1]; ++m) {
        const Move& move = c.moves[m];
        codec_.with_component(key.data(), i, move.to, next.data());
        const NodeId to = discover(
            next.data(), other_non_stop + (c.stop[move.to] ? 0 : 1) == 0);
        ++label_count_[move.label];
        edges_.push_back(Edge{n, labels_[move.label], to,
                              static_cast<std::uint32_t>(i)});
        edge_label_.push_back(move.label);
      }
    }
    out_offset_.push_back(static_cast<std::uint32_t>(edges_.size()));
  }
  num_nodes_ = interner_.size();
  for (std::size_t l = 0; l < labels_.size(); ++l)
    if (label_count_[l] != 0) indexed_messages_.push_back(labels_[l]);
}

InterleavedFlow::OutgoingRange InterleavedFlow::outgoing(NodeId n) const {
  if (static_cast<std::size_t>(n) >= num_nodes_)
    throw std::out_of_range("InterleavedFlow: bad node id");
  return OutgoingRange(out_offset_[n], out_offset_[n + 1]);
}

std::vector<StateId> InterleavedFlow::node_key(NodeId n) const {
  if (static_cast<std::size_t>(n) >= num_nodes_)
    throw std::out_of_range("InterleavedFlow: bad node id");
  std::vector<StateId> key(instances_.size());
  codec_.decode(interner_.key(n), key.data());
  return key;
}

std::string InterleavedFlow::node_name(NodeId n) const {
  const auto key = node_key(n);
  std::ostringstream os;
  os << '(';
  for (std::size_t i = 0; i < key.size(); ++i) {
    if (i) os << ',';
    os << instances_[i].flow->state_name(key[i]) << ':'
       << instances_[i].index;
  }
  os << ')';
  return os.str();
}

std::size_t InterleavedFlow::occurrences(const IndexedMessage& im) const {
  const auto it = std::lower_bound(labels_.begin(), labels_.end(), im);
  return it == labels_.end() || *it != im
             ? 0
             : label_count_[static_cast<std::size_t>(it - labels_.begin())];
}

std::vector<LabelClassHistogram>
InterleavedFlow::label_target_histograms() const {
  // Counting-sort the edge targets by label id, then per label count
  // in-edges per target with a scratch array and a touched list.
  const std::size_t num_labels = labels_.size();
  std::vector<std::size_t> off(num_labels + 1, 0);
  for (std::size_t l = 0; l < num_labels; ++l)
    off[l + 1] = off[l] + label_count_[l];
  std::vector<NodeId> targets(edges_.size());
  {
    std::vector<std::size_t> cursor(off.begin(), off.end() - 1);
    for (std::size_t e = 0; e < edges_.size(); ++e)
      targets[cursor[edge_label_[e]]++] = edges_[e].to;
  }

  std::vector<std::uint64_t> cnt(num_nodes_, 0);
  std::vector<NodeId> touched;
  std::vector<std::uint64_t> counts;
  std::vector<LabelClassHistogram> out;
  out.reserve(indexed_messages_.size());
  for (std::size_t l = 0; l < num_labels; ++l) {
    if (off[l] == off[l + 1]) continue;  // a transition the product skips
    touched.clear();
    counts.clear();
    for (std::size_t i = off[l]; i < off[l + 1]; ++i) {
      const NodeId t = targets[i];
      if (cnt[t]++ == 0) touched.push_back(t);
    }
    for (NodeId t : touched) {
      counts.push_back(cnt[t]);
      cnt[t] = 0;
    }
    std::sort(counts.begin(), counts.end());
    LabelClassHistogram h;
    h.label = labels_[l];
    for (std::size_t i = 0; i < counts.size();) {
      std::size_t j = i;
      while (j < counts.size() && counts[j] == counts[i]) ++j;
      h.classes.emplace_back(counts[i], static_cast<std::uint64_t>(j - i));
      i = j;
    }
    out.push_back(std::move(h));
  }
  return out;
}

}  // namespace tracesel::flow
