#include "flow/product_grid.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/obs.hpp"

namespace tracesel::flow {

namespace {

/// The states of `f` in a topological (Kahn) order. FlowBuilder rejects
/// cyclic flows, so every state gets a position.
std::vector<StateId> topological_order(const Flow& f) {
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
    throw std::logic_error("ProductGrid: flow '" + f.name() + "' is cyclic");
  return order;
}

}  // namespace

/// A slot and its digits, stepped one slot up or down at a time. Each
/// digit change updates the atomic count, the sum of the atomic
/// components' positions (the holder when the count is one) and the
/// non-stop count, so a step costs O(1) amortized.
class ProductGrid::Odometer {
 public:
  Odometer(const std::vector<Component>& comps, std::size_t n)
      : comps_(comps), digit_(comps.size()) {
    for (std::size_t i = 0; i < comps.size(); ++i) {
      const Component& c = comps[i];
      const auto r = static_cast<std::uint32_t>((n / c.stride) % c.stop.size());
      digit_[i] = r;
      non_stop_ += 1u - c.stop[r];
      atomic_ += c.atomic[r];
      atomic_sum_ += i * c.atomic[r];
    }
  }

  /// Moves to slot n + 1 (`up`) or n - 1, carrying or borrowing.
  void step(bool up) {
    for (std::size_t i = 0; i < digit_.size(); ++i) {
      const auto top = static_cast<std::uint32_t>(comps_[i].stop.size() - 1);
      const bool wrap = digit_[i] == (up ? top : 0);
      set(i, wrap ? (up ? 0 : top) : (up ? digit_[i] + 1 : digit_[i] - 1));
      if (!wrap) return;
    }
  }

  /// At most one component atomic (the Atom mutex).
  bool legal() const { return atomic_ < 2; }
  bool stop() const { return non_stop_ == 0; }

  /// Calls fn(move) on every product edge out of this (legal) slot in the
  /// product's CSR order: only the atomic holder moves if there is one,
  /// else every component, ascending, each in its flow's order.
  template <typename Fn>
  void for_each_move(Fn&& fn) const {
    const std::size_t first = atomic_ == 0 ? 0 : atomic_sum_;
    const std::size_t last = atomic_ == 0 ? comps_.size() : atomic_sum_ + 1;
    for (std::size_t i = first; i < last; ++i) {
      const Component& c = comps_[i];
      for (std::uint32_t m = c.first_move[digit_[i]];
           m < c.first_move[digit_[i] + 1]; ++m)
        fn(c.moves[m]);
    }
  }

 private:
  void set(std::size_t i, std::uint32_t r) {
    const Component& c = comps_[i];
    const std::uint32_t old = digit_[i];
    non_stop_ = non_stop_ + c.stop[old] - c.stop[r];
    atomic_ = atomic_ - c.atomic[old] + c.atomic[r];
    atomic_sum_ = atomic_sum_ - i * c.atomic[old] + i * c.atomic[r];
    digit_[i] = r;
  }

  const std::vector<Component>& comps_;
  std::vector<std::uint32_t> digit_;
  std::size_t non_stop_ = 0;
  std::size_t atomic_ = 0;
  std::size_t atomic_sum_ = 0;
};

ProductGrid ProductGrid::build(const std::vector<IndexedFlow>& instances,
                               const InterleaveOptions& options) {
  OBS_SPAN("interleave.grid");
  require_valid_instances(instances);

  ProductGrid g;
  for (const IndexedFlow& inst : instances)
    for (const Transition& t : inst.flow->transitions())
      g.labels_.push_back(IndexedMessage{t.message, inst.index});
  std::sort(g.labels_.begin(), g.labels_.end());
  g.labels_.erase(std::unique(g.labels_.begin(), g.labels_.end()),
                  g.labels_.end());

  std::size_t slots = 1;
  for (const IndexedFlow& inst : instances) {
    const Flow& f = *inst.flow;
    if (f.num_states() > options.max_nodes / slots)
      throw std::length_error("ProductGrid: state grid exceeds max_nodes");
    Component c;
    c.stride = slots;
    slots *= f.num_states();
    const std::vector<StateId> by_rank = topological_order(f);
    c.rank.resize(by_rank.size());
    for (std::uint32_t r = 0; r < by_rank.size(); ++r) c.rank[by_rank[r]] = r;
    c.first_move.push_back(0);
    for (const StateId s : by_rank) {
      c.atomic.push_back(f.is_atomic(s) ? 1 : 0);
      c.stop.push_back(f.is_stop(s) ? 1 : 0);
      for (std::uint32_t ti : f.outgoing(s)) {
        const Transition& t = f.transitions()[ti];
        const IndexedMessage im{t.message, inst.index};
        c.moves.push_back(Move{
            (c.rank[t.to] - c.rank[s]) * c.stride,
            static_cast<std::uint32_t>(
                std::lower_bound(g.labels_.begin(), g.labels_.end(), im) -
                g.labels_.begin())});
      }
      c.first_move.push_back(static_cast<std::uint32_t>(c.moves.size()));
    }
    g.initial_ += c.rank[f.initial_states().front()] * c.stride;
    g.comps_.push_back(std::move(c));
  }
  g.num_slots_ = slots;
  OBS_COUNT("interleave.grid.slots", slots);

  // count_paths: one descending sweep over the slots from the initial one
  // up (no slot below it is reachable). Executions end at a stop tuple
  // (Def. 2); per slot the stop bonus comes first, then the moves in CSR
  // order.
  std::vector<double> memo(slots - g.initial_, 0.0);
  Odometer o(g.comps_, slots - 1);
  for (std::size_t at = memo.size(); at-- > 0; o.step(false)) {
    if (((memo.size() - 1 - at) & 1023) == 0 && options.cancel.cancelled())
      throw util::CancelledError("interleave.grid");
    if (!o.legal()) continue;
    double paths = o.stop() ? 1.0 : 0.0;
    o.for_each_move([&](const Move& m) { paths += memo[at + m.delta]; });
    memo[at] = paths;
  }
  g.total_paths_ = memo[0];
  return g;
}

std::size_t ProductGrid::slot(std::span<const StateId> states) const {
  if (states.size() != comps_.size())
    throw std::invalid_argument("ProductGrid::slot: wrong tuple size");
  std::size_t n = 0;
  for (std::size_t i = 0; i < comps_.size(); ++i)
    n += comps_[i].rank.at(states[i]) * comps_[i].stride;
  return n;
}

double ProductGrid::count_consistent_paths(
    const std::vector<MessageId>& selected,
    const std::vector<IndexedMessage>& observed) const {
  OBS_SPAN("interleave.consistent_paths");
  std::vector<MessageId> sorted_selected = selected;
  std::sort(sorted_selected.begin(), sorted_selected.end());
  const auto is_selected = [&](MessageId m) {
    return std::binary_search(sorted_selected.begin(), sorted_selected.end(),
                              m);
  };
  // Distinct observed labels get small kind ids in first-occurrence order.
  const std::size_t olen = observed.size();
  std::vector<IndexedMessage> kinds;
  std::vector<std::int32_t> obs_kind(olen);
  for (std::size_t j = 0; j < olen; ++j) {
    if (!is_selected(observed[j].message))
      throw std::invalid_argument(
          "count_consistent_paths: observed trace contains a message outside "
          "the selected combination");
    const auto it = std::find(kinds.begin(), kinds.end(), observed[j]);
    obs_kind[j] = static_cast<std::int32_t>(it - kinds.begin());
    if (it == kinds.end()) kinds.push_back(observed[j]);
  }
  // -2: invisible label; -1: visible but never observed; >=0: kind id.
  std::vector<std::int32_t> label_code(labels_.size());
  for (std::size_t l = 0; l < labels_.size(); ++l) {
    const auto it = std::find(kinds.begin(), kinds.end(), labels_[l]);
    label_code[l] = !is_selected(labels_[l].message) ? -2
                    : it == kinds.end()
                        ? -1
                        : static_cast<std::int32_t>(it - kinds.begin());
  }

  // f(n, j) = number of stop-terminated paths from slot n whose projection
  // onto `selected` extends observed[j..] as a prefix. An ascending sweep
  // from the initial slot bounds, per slot, the prefix positions [lo, hi]
  // a path from the root can bring into it. Every slot a band slot reads
  // lies in its successor's band, so the descending sweep fills only the
  // bands, packed slot after slot, and skips the slots no consistent path
  // reaches. Slots are indexed from the initial one.
  constexpr std::uint32_t kNone = ~std::uint32_t{0};
  const std::uint32_t full = static_cast<std::uint32_t>(olen);
  const std::size_t span = num_slots_ - initial_;
  std::vector<std::uint32_t> lo(span, kNone);
  std::vector<std::uint32_t> hi(span, 0);
  lo[0] = 0;
  Odometer up(comps_, initial_);
  for (std::size_t at = 0; at < span; ++at, up.step(true)) {
    if (lo[at] == kNone) continue;
    up.for_each_move([&](const Move& move) {
      const std::int32_t code = label_code[move.label];
      std::uint32_t a = lo[at];
      std::uint32_t b = hi[at];
      if (code != -2) {
        // A visible step advances the positions whose next observed kind
        // matches; a full prefix tolerates any visible suffix.
        a = kNone;
        for (std::uint32_t j = lo[at]; j <= hi[at] && j < full; ++j) {
          if (obs_kind[j] != code) continue;
          if (a == kNone) a = j + 1;
          b = j + 1;
        }
        if (hi[at] == full) {
          a = std::min(a, full);
          b = full;
        }
        if (a == kNone) return;
      }
      const std::size_t m = at + move.delta;
      lo[m] = std::min(lo[m], a);
      hi[m] = std::max(hi[m], b);
    });
  }

  std::vector<std::size_t> base(span, 0);  ///< memo index of (n, lo)
  std::size_t cells = 0;
  for (std::size_t at = 0; at < span; ++at) {
    if (lo[at] == kNone) continue;
    base[at] = cells;
    cells += hi[at] - lo[at] + 1;
  }
  std::vector<double> memo(cells, 0.0);
  Odometer down(comps_, num_slots_ - 1);
  for (std::size_t at = span; at-- > 0; down.step(false)) {
    if (lo[at] == kNone) continue;
    double* row = &memo[base[at]];  // row[j - lo[at]] = f(at, j)
    if (down.stop() && hi[at] == full) row[full - lo[at]] = 1.0;
    down.for_each_move([&](const Move& move) {
      const std::int32_t code = label_code[move.label];
      const std::size_t m = at + move.delta;
      const double* succ = &memo[base[m]];  // succ[j - lo[m]] = f(m, j)
      if (code == -2) {
        // Invisible step: j -> j over the whole band.
        const double* same = succ + (lo[at] - lo[m]);
        for (std::uint32_t j = 0; j <= hi[at] - lo[at]; ++j) row[j] += same[j];
      } else {
        for (std::uint32_t j = lo[at]; j <= hi[at] && j < full; ++j)
          if (obs_kind[j] == code) row[j - lo[at]] += succ[j + 1 - lo[m]];
        if (hi[at] == full) row[full - lo[at]] += succ[full - lo[m]];
      }
    });
  }
  return memo[0];
}

}  // namespace tracesel::flow
