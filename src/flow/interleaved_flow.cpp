#include "flow/interleaved_flow.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "flow/kernel.hpp"
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
  u.options_ = options;
  u.codec_ = KeyCodec(u.instances_);
  u.interner_ = KeyInterner(u.codec_.words());

  u.build_graph();
  u.finalize();
  OBS_COUNT("interleave.builds", 1);
  OBS_COUNT("interleave.nodes", u.num_nodes_);
  OBS_COUNT("interleave.edges", u.edges_.size());
  OBS_COUNT("interleave.interner.probes", u.interner_.probes());
  OBS_GAUGE_MAX("interleave.product_states", u.num_nodes_);
  OBS_GAUGE_MAX("interleave.product_edges", u.edges_.size());
  return u;
}

void InterleavedFlow::build_graph() {
  OBS_SPAN("interleave.graph");
  const std::size_t k = instances_.size();
  const std::size_t words = codec_.words();

  std::vector<StateId> cur(k);
  std::vector<StateId> nxt(k);
  std::vector<std::uint64_t> kw(words);

  auto intern = [&](const std::vector<StateId>& tuple) -> NodeId {
    codec_.encode(tuple.data(), kw.data());
    bool inserted = false;
    const NodeId id = interner_.intern(kw.data(), inserted);
    if (inserted && interner_.size() > options_.max_nodes)
      throw std::length_error(
          "InterleavedFlow: reachable product exceeds max_nodes");
    return id;
  };

  for (std::size_t i = 0; i < k; ++i)
    cur[i] = instances_[i].flow->initial_states().front();
  initial_.push_back(intern(cur));
  out_offset_.assign(1, 0);

  // Nodes are interned in discovery order, which is exactly the expansion
  // order, so a plain id sweep doubles as the worklist and the edge list
  // comes out sorted by source — the CSR offsets need no second pass.
  for (NodeId n = 0; static_cast<std::size_t>(n) < interner_.size(); ++n) {
    if ((n & 1023) == 0 && options_.cancel.cancelled())
      throw util::CancelledError("interleave.build");
    codec_.decode(interner_.key(n), cur.data());

    // Which component sits in an atomic state? If one does, only it may
    // move (generalized Def. 5 rules i/ii).
    std::size_t atomic_holder = k;  // k == none
    for (std::size_t i = 0; i < k; ++i) {
      if (instances_[i].flow->is_atomic(cur[i])) {
        atomic_holder = i;
        break;  // by construction at most one component is atomic
      }
    }

    for (std::size_t i = 0; i < k; ++i) {
      if (atomic_holder != k && atomic_holder != i) continue;
      const Flow& f = *instances_[i].flow;
      for (std::uint32_t ti : f.outgoing(cur[i])) {
        const Transition& t = f.transitions()[ti];
        nxt = cur;
        nxt[i] = t.to;
        const NodeId tgt = intern(nxt);
        edges_.push_back(Edge{n,
                              IndexedMessage{t.message, instances_[i].index},
                              tgt, static_cast<std::uint32_t>(i)});
      }
    }
    out_offset_.push_back(static_cast<std::uint32_t>(edges_.size()));
  }
  num_nodes_ = interner_.size();
}

void InterleavedFlow::finalize() {
  const std::size_t k = instances_.size();
  std::vector<StateId> cur(k);

  stop_mask_.assign(num_nodes_, false);
  for (NodeId n = 0; static_cast<std::size_t>(n) < num_nodes_; ++n) {
    codec_.decode(interner_.key(n), cur.data());
    bool all_stop = true;
    for (std::size_t i = 0; i < k; ++i) {
      if (!instances_[i].flow->is_stop(cur[i])) {
        all_stop = false;
        break;
      }
    }
    if (all_stop) {
      stop_mask_[n] = true;
      stop_.push_back(n);
    }
  }

  for (const Edge& e : edges_) {
    auto [it, fresh] = occurrence_counts_.try_emplace(e.label, 0u);
    if (fresh) indexed_messages_.push_back(e.label);
    ++it->second;
  }
  std::sort(indexed_messages_.begin(), indexed_messages_.end());
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
  const auto it = occurrence_counts_.find(im);
  return it == occurrence_counts_.end() ? 0 : it->second;
}

const kernel::Program& InterleavedFlow::program() const {
  std::lock_guard<std::mutex> lock(*kernel_.mutex);
  if (!kernel_.program)
    kernel_.program = std::make_shared<const kernel::Program>(
        kernel::Program::compile(*this));
  return *kernel_.program;
}

double InterleavedFlow::count_paths() const {
  if (options_.kernel == KernelMode::kCompiled)
    return program().count_paths();
  // Executions end at a stop tuple (Def. 2). In all flows in this repo stop
  // states are sinks, so "reaches a stop node" and "ends at a stop node"
  // coincide; we count the latter by backward DP over the DAG.
  std::vector<double> memo(num_nodes(), -1.0);
  // Iterative post-order to avoid recursion depth issues on deep products.
  std::vector<std::pair<NodeId, bool>> stack;
  double total = 0.0;
  for (NodeId r : initial_) {
    stack.emplace_back(r, false);
    while (!stack.empty()) {
      auto [n, processed] = stack.back();
      stack.pop_back();
      if (memo[n] >= 0.0) continue;
      if (!processed) {
        stack.emplace_back(n, true);
        for (std::uint32_t e : outgoing(n)) {
          const NodeId m = edges_[e].to;
          if (memo[m] < 0.0) stack.emplace_back(m, false);
        }
      } else {
        double paths = stop_mask_[n] ? 1.0 : 0.0;
        for (std::uint32_t e : outgoing(n))
          paths += memo[edges_[e].to];
        memo[n] = paths;
      }
    }
    total += memo[r];
  }
  return total;
}

double InterleavedFlow::count_consistent_paths(
    const std::vector<MessageId>& selected,
    const std::vector<IndexedMessage>& observed) const {
  if (options_.kernel == KernelMode::kCompiled)
    return program().count_consistent_paths(selected, observed);

  // f(n, j) = number of stop-terminated paths from n whose projection onto
  // `selected` extends observed[j..] as a prefix. Memoized on (node, j).
  std::vector<bool> is_selected;
  {
    MessageId max_id = 0;
    for (MessageId m : selected) max_id = std::max(max_id, m);
    for (const Edge& e : edges_) max_id = std::max(max_id, e.label.message);
    is_selected.assign(static_cast<std::size_t>(max_id) + 1, false);
    for (MessageId m : selected) is_selected[m] = true;
  }
  const std::size_t olen = observed.size();
  for (const IndexedMessage& im : observed) {
    if (im.message >= is_selected.size() || !is_selected[im.message])
      throw std::invalid_argument(
          "count_consistent_paths: observed trace contains a message outside "
          "the selected combination");
  }

  // Distinct observed labels get small ids; every edge is classified once
  // up front so the DP inner loop does integer compares, not label
  // comparisons or searches.
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
  // -2: invisible edge; -1: visible but never observed; >=0: kind id.
  std::vector<std::int32_t> edge_code(edges_.size());
  for (std::size_t e = 0; e < edges_.size(); ++e) {
    if (!is_selected[edges_[e].label.message]) {
      edge_code[e] = -2;
      continue;
    }
    const auto it = std::find(kinds.begin(), kinds.end(), edges_[e].label);
    edge_code[e] =
        it == kinds.end() ? -1 : static_cast<std::int32_t>(it - kinds.begin());
  }

  const std::size_t width = olen + 1;
  std::vector<double> memo(num_nodes() * width, -1.0);
  auto slot = [&](NodeId n, std::size_t j) -> double& {
    return memo[static_cast<std::size_t>(n) * width + j];
  };

  struct Item {
    NodeId n;
    std::uint32_t j;
    bool processed;
  };
  std::vector<Item> stack;
  double total = 0.0;
  for (NodeId r : initial_) {
    stack.push_back(Item{r, 0, false});
    while (!stack.empty()) {
      const Item it = stack.back();
      stack.pop_back();
      if (slot(it.n, it.j) >= 0.0) continue;
      // Successor (node, j') for an edge given matching rules.
      auto next_j = [&](std::uint32_t e) -> std::optional<std::uint32_t> {
        const std::int32_t code = edge_code[e];
        if (code == -2) return it.j;  // invisible step
        if (it.j < olen) {
          if (code == obs_kind[it.j]) return it.j + 1;
          return std::nullopt;  // visible mismatch kills the path
        }
        return it.j;  // prefix fully matched; extra visible messages fine
      };
      if (!it.processed) {
        stack.push_back(Item{it.n, it.j, true});
        for (std::uint32_t e : outgoing(it.n)) {
          if (auto j2 = next_j(e)) {
            if (slot(edges_[e].to, *j2) < 0.0)
              stack.push_back(Item{edges_[e].to, *j2, false});
          }
        }
      } else {
        double paths = 0.0;
        if (stop_mask_[it.n] && it.j == olen) paths += 1.0;
        for (std::uint32_t e : outgoing(it.n)) {
          if (auto j2 = next_j(e)) paths += slot(edges_[e].to, *j2);
        }
        slot(it.n, it.j) = paths;
      }
    }
    total += slot(r, 0);
  }
  return total;
}

double InterleavedFlow::count_consistent_paths_multiset(
    const std::vector<MessageId>& selected,
    const std::vector<IndexedMessage>& observed) const {
  std::vector<bool> is_selected;
  {
    MessageId max_id = 0;
    for (MessageId m : selected) max_id = std::max(max_id, m);
    for (const Edge& e : edges_) max_id = std::max(max_id, e.label.message);
    is_selected.assign(static_cast<std::size_t>(max_id) + 1, false);
    for (MessageId m : selected) is_selected[m] = true;
  }

  // Distinct observed indexed messages with multiplicities; a consumption
  // state is a vector of per-kind counts, encoded in mixed radix.
  std::vector<IndexedMessage> kinds;
  std::vector<std::uint32_t> need;
  for (const IndexedMessage& im : observed) {
    if (im.message >= is_selected.size() || !is_selected[im.message])
      throw std::invalid_argument(
          "count_consistent_paths_multiset: observed trace contains a "
          "message outside the selected combination");
    const auto it = std::find(kinds.begin(), kinds.end(), im);
    if (it == kinds.end()) {
      kinds.push_back(im);
      need.push_back(1);
    } else {
      ++need[static_cast<std::size_t>(it - kinds.begin())];
    }
  }
  std::size_t num_cstates = 1;
  for (std::uint32_t c : need) {
    num_cstates *= c + 1;
    // The consumption lattice is exponential in distinct observed kinds;
    // refuse queries whose memo would not fit in memory rather than
    // crash allocating it. Ordered-semantics counting stays linear.
    if (num_cstates > (std::size_t{1} << 22) ||
        num_cstates * num_nodes() > (std::size_t{1} << 26))
      throw std::length_error(
          "count_consistent_paths_multiset: observation has too many "
          "distinct indexed messages for multiset counting; use the "
          "ordered variant");
  }
  const std::size_t full = num_cstates - 1;  // all radixes at max

  // radix stride per kind.
  std::vector<std::size_t> stride(kinds.size());
  {
    std::size_t s = 1;
    for (std::size_t i = 0; i < kinds.size(); ++i) {
      stride[i] = s;
      s *= need[i] + 1;
    }
  }
  auto digit = [&](std::size_t cstate, std::size_t i) {
    return (cstate / stride[i]) % (need[i] + 1);
  };

  // Classify every edge once: -2 invisible, -1 visible non-observed kind,
  // >= 0 the observed kind consumed — the DP inner loop stops doing a
  // std::find over kinds per edge visit.
  std::vector<std::int32_t> edge_code(edges_.size());
  for (std::size_t e = 0; e < edges_.size(); ++e) {
    if (!is_selected[edges_[e].label.message]) {
      edge_code[e] = -2;
      continue;
    }
    const auto it = std::find(kinds.begin(), kinds.end(), edges_[e].label);
    edge_code[e] =
        it == kinds.end() ? -1 : static_cast<std::int32_t>(it - kinds.begin());
  }

  std::vector<double> memo(num_nodes() * num_cstates, -1.0);
  auto slot = [&](NodeId n, std::size_t c) -> double& {
    return memo[static_cast<std::size_t>(n) * num_cstates + c];
  };

  // Successor consumption state for taking edge e in state c, or nullopt if
  // the edge is inconsistent with the observation.
  auto next_c = [&](std::uint32_t e,
                    std::size_t c) -> std::optional<std::size_t> {
    const std::int32_t code = edge_code[e];
    if (code == -2) return c;
    if (c == full) return c;  // prefix complete; visible suffix unrestricted
    if (code == -1) return std::nullopt;  // visible non-observed kind
    const std::size_t i = static_cast<std::size_t>(code);
    if (digit(c, i) >= need[i]) return std::nullopt;  // kind already consumed
    return c + stride[i];
  };

  struct Item {
    NodeId n;
    std::size_t c;
    bool processed;
  };
  std::vector<Item> stack;
  double total = 0.0;
  for (NodeId r : initial_) {
    stack.push_back(Item{r, 0, false});
    while (!stack.empty()) {
      const Item it = stack.back();
      stack.pop_back();
      if (slot(it.n, it.c) >= 0.0) continue;
      if (!it.processed) {
        stack.push_back(Item{it.n, it.c, true});
        for (std::uint32_t e : outgoing(it.n)) {
          if (auto c2 = next_c(e, it.c)) {
            if (slot(edges_[e].to, *c2) < 0.0)
              stack.push_back(Item{edges_[e].to, *c2, false});
          }
        }
      } else {
        double paths = 0.0;
        if (stop_mask_[it.n] && it.c == full) paths += 1.0;
        for (std::uint32_t e : outgoing(it.n)) {
          if (auto c2 = next_c(e, it.c)) paths += slot(edges_[e].to, *c2);
        }
        slot(it.n, it.c) = paths;
      }
    }
    total += slot(r, 0);
  }
  return total;
}

std::vector<InterleavedFlow::LabelClassHistogram>
InterleavedFlow::label_target_histograms() const {
  if (options_.kernel == KernelMode::kCompiled)
    return program().label_target_histograms();
  return histograms_generic();
}

std::vector<InterleavedFlow::LabelClassHistogram>
InterleavedFlow::histograms_generic() const {
  // cnt[y][x] = number of edges labeled y that lead to product state x.
  std::map<IndexedMessage, std::unordered_map<NodeId, std::uint64_t>> cnt;
  for (const Edge& e : edges_) ++cnt[e.label][e.to];
  std::vector<LabelClassHistogram> out;
  out.reserve(cnt.size());
  for (const auto& [label, targets] : cnt) {
    std::map<std::uint64_t, std::uint64_t> classes;
    for (const auto& [node, c] : targets) ++classes[c];
    out.push_back(LabelClassHistogram{
        label, {classes.begin(), classes.end()}});
  }
  return out;
}

}  // namespace tracesel::flow
