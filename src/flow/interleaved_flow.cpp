#include "flow/interleaved_flow.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "util/obs.hpp"

namespace tracesel::flow {

namespace {

/// The position of every state of `f` in a topological (Kahn) order.
/// FlowBuilder rejects cyclic flows, so every state gets one.
std::vector<std::uint32_t> topological_ranks(const Flow& f) {
  std::vector<std::uint32_t> indegree(f.num_states(), 0);
  for (const Transition& t : f.transitions()) ++indegree[t.to];
  std::vector<StateId> order;
  order.reserve(f.num_states());
  for (StateId s = 0; s < f.num_states(); ++s)
    if (indegree[s] == 0) order.push_back(s);
  for (std::size_t head = 0; head < order.size(); ++head)
    for (std::uint32_t ti : f.outgoing(order[head]))
      if (--indegree[f.transitions()[ti].to] == 0)
        order.push_back(f.transitions()[ti].to);
  if (order.size() != f.num_states())
    throw std::logic_error("InterleavedFlow: flow '" + f.name() +
                           "' is cyclic");
  std::vector<std::uint32_t> rank(f.num_states());
  for (std::uint32_t r = 0; r < order.size(); ++r) rank[order[r]] = r;
  return rank;
}

/// |S| and |E| of the reachable product when no instance starts atomic
/// (DESIGN.md §9): every tuple with at most one atomic component, and a
/// transition of F_i fires from each tuple holding its source whose other
/// components are non-atomic. {0, 0} when an instance starts atomic or
/// |S| exceeds `cap`.
std::pair<std::size_t, std::size_t> closed_form_size(
    const std::vector<IndexedFlow>& instances, std::size_t cap) {
  std::vector<std::size_t> non_atomic;
  std::size_t all = 1;  // tuples without an atomic component
  for (const IndexedFlow& inst : instances) {
    const Flow& f = *inst.flow;
    if (f.is_atomic(f.initial_states().front())) return {0, 0};
    non_atomic.push_back(f.num_states() - f.atomic_states().size());
    if (all > cap / non_atomic.back()) return {0, 0};
    all *= non_atomic.back();
  }
  unsigned __int128 nodes = all;
  unsigned __int128 edges = 0;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const std::size_t others = all / non_atomic[i];
    nodes += static_cast<unsigned __int128>(
                 instances[i].flow->atomic_states().size()) *
             others;
    edges += static_cast<unsigned __int128>(
                 instances[i].flow->transitions().size()) *
             others;
  }
  if (nodes > cap) return {0, 0};
  return {static_cast<std::size_t>(nodes), static_cast<std::size_t>(edges)};
}

}  // namespace

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
                                       std::size_t max_nodes) {
  InterleaveOptions options;
  options.max_nodes = max_nodes;
  return build(std::move(instances), options);
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
  u.finish();
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
    std::vector<std::uint32_t> rank;
    std::vector<std::uint8_t> atomic;
    std::vector<std::uint8_t> stop;
    std::vector<std::uint32_t> first_move;  ///< size |S_i| + 1
    std::vector<Move> moves;
  };
  std::vector<Component> comps(k);
  for (std::size_t i = 0; i < k; ++i) {
    const Flow& f = *instances_[i].flow;
    Component& c = comps[i];
    c.rank = topological_ranks(f);
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

  // Sized up front when the closed form gives the exact counts: no
  // interner rehash and no edge-list regrowth during the sweep.
  const auto [nodes, edges] = closed_form_size(instances_, options.max_nodes);
  interner_.reserve(nodes);
  potential_.reserve(nodes);
  stop_mask_.reserve(nodes);
  out_offset_.reserve(nodes + 1);
  edges_.reserve(edges);
  edge_label_.reserve(edges);

  // Interns a successor key; a new node gets its potential and stop bit
  // on discovery.
  const auto discover = [&](const std::uint64_t* key, std::uint32_t potential,
                            bool stop) -> NodeId {
    bool inserted = false;
    const NodeId id = interner_.intern(key, inserted);
    if (inserted) {
      if (interner_.size() > options.max_nodes)
        throw std::length_error(
            "InterleavedFlow: reachable product exceeds max_nodes");
      potential_.push_back(potential);
      stop_mask_.push_back(stop ? 1 : 0);
      if (stop) stop_.push_back(id);
    }
    return id;
  };

  std::vector<StateId> cur(k);
  std::vector<std::uint64_t> key(words);
  std::vector<std::uint64_t> next(words);
  {
    std::uint32_t potential = 0;
    bool stop = true;
    for (std::size_t i = 0; i < k; ++i) {
      cur[i] = instances_[i].flow->initial_states().front();
      potential += comps[i].rank[cur[i]];
      stop = stop && comps[i].stop[cur[i]];
    }
    codec_.encode(cur.data(), key.data());
    initial_.push_back(discover(key.data(), potential, stop));
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
    const std::uint32_t potential = potential_[n];

    for (std::size_t i = 0; i < k; ++i) {
      if (atomic_holder != k && atomic_holder != i) continue;
      const Component& c = comps[i];
      const StateId s = cur[i];
      // The successor's potential and non-stop count differ from n's only
      // in component i's term.
      const std::uint32_t other_potential = potential - c.rank[s];
      const std::uint32_t other_non_stop = non_stop - (c.stop[s] ? 0 : 1);
      for (std::uint32_t m = c.first_move[s]; m < c.first_move[s + 1]; ++m) {
        const Move& move = c.moves[m];
        codec_.with_component(key.data(), i, move.to, next.data());
        const NodeId to =
            discover(next.data(), other_potential + c.rank[move.to],
                     other_non_stop + (c.stop[move.to] ? 0 : 1) == 0);
        ++label_count_[move.label];
        edges_.push_back(Edge{n, labels_[move.label], to,
                              static_cast<std::uint32_t>(i)});
        edge_label_.push_back(move.label);
      }
    }
    out_offset_.push_back(static_cast<std::uint32_t>(edges_.size()));
  }
  num_nodes_ = interner_.size();
}

void InterleavedFlow::finish() {
  for (std::size_t l = 0; l < labels_.size(); ++l)
    if (label_count_[l] != 0) indexed_messages_.push_back(labels_[l]);

  // Topological order: a counting sort of the nodes by potential. Every
  // edge strictly increases the potential, so successors sort after their
  // predecessors.
  const std::uint32_t max_potential =
      *std::max_element(potential_.begin(), potential_.end());
  std::vector<std::uint32_t> slot(static_cast<std::size_t>(max_potential) + 2,
                                  0);
  for (std::uint32_t p : potential_) ++slot[p + 1];
  for (std::size_t p = 1; p < slot.size(); ++p) slot[p] += slot[p - 1];
  topo_.resize(num_nodes_);
  for (NodeId n = 0; static_cast<std::size_t>(n) < num_nodes_; ++n)
    topo_[slot[potential_[n]]++] = n;

  // count_paths: one reverse-topological sweep. Executions end at a stop
  // tuple (Def. 2); per node the stop bonus comes first, then the edges in
  // ascending CSR order.
  std::vector<double> memo(num_nodes_, 0.0);
  for (std::size_t i = num_nodes_; i-- > 0;) {
    const NodeId n = topo_[i];
    double paths = stop_mask_[n] ? 1.0 : 0.0;
    for (std::uint32_t e = out_offset_[n]; e < out_offset_[n + 1]; ++e)
      paths += memo[edges_[e].to];
    memo[n] = paths;
  }
  total_paths_ = 0.0;
  for (NodeId r : initial_) total_paths_ += memo[r];
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

double InterleavedFlow::count_consistent_paths(
    const std::vector<MessageId>& selected,
    const std::vector<IndexedMessage>& observed) const {
  OBS_SPAN("interleave.consistent_paths");
  std::vector<MessageId> sorted_selected = selected;
  std::sort(sorted_selected.begin(), sorted_selected.end());
  const auto is_selected = [&](MessageId m) {
    return std::binary_search(sorted_selected.begin(), sorted_selected.end(),
                              m);
  };
  const std::size_t olen = observed.size();
  for (const IndexedMessage& im : observed) {
    if (!is_selected(im.message))
      throw std::invalid_argument(
          "count_consistent_paths: observed trace contains a message outside "
          "the selected combination");
  }

  // Distinct observed labels get small kind ids in first-occurrence order.
  std::vector<IndexedMessage> kinds;
  std::vector<std::int32_t> obs_kind(olen);
  for (std::size_t j = 0; j < olen; ++j) {
    const auto it = std::find(kinds.begin(), kinds.end(), observed[j]);
    if (it == kinds.end()) {
      obs_kind[j] = static_cast<std::int32_t>(kinds.size());
      kinds.push_back(observed[j]);
    } else {
      obs_kind[j] = static_cast<std::int32_t>(it - kinds.begin());
    }
  }
  // Labels, not edges, are classified against the observation; the sweep
  // reaches the class through edge_label_.
  // -2: invisible edge; -1: visible but never observed; >=0: kind id.
  std::vector<std::int32_t> label_code(labels_.size());
  for (std::size_t l = 0; l < labels_.size(); ++l) {
    if (!is_selected(labels_[l].message)) {
      label_code[l] = -2;
      continue;
    }
    const auto it = std::find(kinds.begin(), kinds.end(), labels_[l]);
    label_code[l] =
        it == kinds.end() ? -1 : static_cast<std::int32_t>(it - kinds.begin());
  }

  // f(n, j) = number of stop-terminated paths from n whose projection onto
  // `selected` extends observed[j..] as a prefix. A forward sweep bounds,
  // per node, the prefix positions [lo, hi] a path from the root can bring
  // into it. Every slot a band slot reads lies in its successor's band, so
  // the reverse sweep fills only the bands, packed node after node, and
  // skips the nodes no consistent path reaches. Per slot the additions
  // come in a fixed order: stop bonus first, then edges in ascending CSR
  // order.
  constexpr std::uint32_t kNone = ~std::uint32_t{0};
  const std::uint32_t full = static_cast<std::uint32_t>(olen);
  std::vector<std::uint32_t> lo(num_nodes_, kNone);
  std::vector<std::uint32_t> hi(num_nodes_, 0);
  for (NodeId r : initial_) lo[r] = hi[r] = 0;
  for (const NodeId n : topo_) {
    if (lo[n] == kNone) continue;
    for (std::uint32_t e = out_offset_[n]; e < out_offset_[n + 1]; ++e) {
      const std::int32_t code = label_code[edge_label_[e]];
      std::uint32_t a = lo[n];
      std::uint32_t b = hi[n];
      if (code != -2) {
        // A visible step advances the positions whose next observed kind
        // matches; a full prefix tolerates any visible suffix.
        a = kNone;
        for (std::uint32_t j = lo[n]; j <= hi[n] && j < full; ++j) {
          if (obs_kind[j] != code) continue;
          if (a == kNone) a = j + 1;
          b = j + 1;
        }
        if (hi[n] == full) {
          a = std::min(a, full);
          b = full;
        }
        if (a == kNone) continue;
      }
      const NodeId m = edges_[e].to;
      lo[m] = std::min(lo[m], a);
      hi[m] = std::max(hi[m], b);
    }
  }

  std::vector<std::size_t> base(num_nodes_, 0);  ///< memo index of (n, lo)
  std::size_t slots = 0;
  for (std::size_t n = 0; n < num_nodes_; ++n) {
    if (lo[n] == kNone) continue;
    base[n] = slots;
    slots += hi[n] - lo[n] + 1;
  }
  std::vector<double> memo(slots, 0.0);
  for (std::size_t i = num_nodes_; i-- > 0;) {
    const NodeId n = topo_[i];
    if (lo[n] == kNone) continue;
    double* row = &memo[base[n]];  // row[j - lo[n]] = f(n, j)
    if (stop_mask_[n] && hi[n] == full) row[full - lo[n]] = 1.0;
    for (std::uint32_t e = out_offset_[n]; e < out_offset_[n + 1]; ++e) {
      const std::int32_t code = label_code[edge_label_[e]];
      const NodeId m = edges_[e].to;
      const double* succ = &memo[base[m]];  // succ[j - lo[m]] = f(m, j)
      if (code == -2) {
        // Invisible step: j -> j over the whole band.
        const double* same = succ + (lo[n] - lo[m]);
        for (std::uint32_t j = 0; j <= hi[n] - lo[n]; ++j) row[j] += same[j];
      } else {
        for (std::uint32_t j = lo[n]; j <= hi[n] && j < full; ++j)
          if (obs_kind[j] == code) row[j - lo[n]] += succ[j + 1 - lo[m]];
        if (hi[n] == full) row[full - lo[n]] += succ[full - lo[m]];
      }
    }
  }
  double total = 0.0;
  for (NodeId r : initial_) total += memo[base[r]];
  return total;
}

std::vector<InterleavedFlow::LabelClassHistogram>
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
