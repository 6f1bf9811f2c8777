#include "flow/product_grid.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "util/obs.hpp"

namespace tracesel::flow {

namespace {

using u128 = unsigned __int128;

/// Path counts below 2^53 are exact in a double; the closed form
/// saturates at it. Saturating adds and products of non-negative counts
/// yield min(exact, kExact), so a total below kExact is exact.
constexpr std::uint64_t kExact = std::uint64_t{1} << 53;

std::uint64_t saturate(u128 v) {
  return v < kExact ? static_cast<std::uint64_t>(v) : kExact;
}

std::uint64_t saturating_add(std::uint64_t a, std::uint64_t b) {
  return std::min(a + b, kExact);
}

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
        const std::uint32_t step = c.rank[t.to] - c.rank[s];
        c.moves.push_back(Move{
            step * c.stride,
            static_cast<std::uint32_t>(
                std::lower_bound(g.labels_.begin(), g.labels_.end(), im) -
                g.labels_.begin()),
            step});
      }
      c.first_move.push_back(static_cast<std::uint32_t>(c.moves.size()));
    }
    g.initial_ += c.rank[f.initial_states().front()] * c.stride;
    g.comps_.push_back(std::move(c));
  }
  g.num_slots_ = slots;
  if (options.cancel.cancelled()) throw util::CancelledError("interleave.grid");

  // Past the closed form's reach, count_paths is the consistent-path sweep
  // of an empty observation with every label invisible.
  if (!g.closed_form_paths())
    g.total_paths_ =
        g.sweep(std::vector<std::int32_t>(g.labels_.size(), -2), {},
                options.cancel);
  return g;
}

bool ProductGrid::closed_form_paths() {
  // No stop state is atomic, so a component's execution is a sequence of
  // whole blocks: one move out of a non-atomic state plus the atomic run
  // after it. Under Def. 5 the blocks of different components interleave
  // freely, so the executions are sum_n ways[n], where ways[n] counts the
  // interleavings of the components so far that reach a stop tuple after
  // n blocks in all. A component that starts atomic first runs alone to a
  // non-atomic state; that run precedes every other move and adds no
  // block.
  std::vector<std::uint64_t> ways{1};
  for (const Component& c : comps_) {
    // reach[r][b]: paths from the initial state to rank r over b blocks;
    // blocks[b]: those ending at a stop state.
    const auto init =
        static_cast<std::uint32_t>((initial_ / c.stride) % c.stop.size());
    std::vector<std::vector<std::uint64_t>> reach(c.stop.size());
    reach[init] = {1};
    std::vector<std::uint64_t> blocks;
    for (std::uint32_t r = init; r < reach.size(); ++r) {
      const std::vector<std::uint64_t> here = std::move(reach[r]);
      if (here.empty()) continue;
      const auto add_to = [&](std::vector<std::uint64_t>& to,
                              std::size_t shift) {
        if (to.size() < here.size() + shift)
          to.resize(here.size() + shift, 0);
        for (std::size_t b = 0; b < here.size(); ++b)
          to[b + shift] = saturating_add(to[b + shift], here[b]);
      };
      if (c.stop[r]) add_to(blocks, 0);
      for (std::uint32_t m = c.first_move[r]; m < c.first_move[r + 1]; ++m)
        add_to(reach[r + c.moves[m].step], c.atomic[r] ? 0 : 1);
    }
    if (blocks.empty()) {
      total_paths_ = 0.0;
      return true;
    }
    // n blocks so far and b new ones merge in binom(n + b, b) ways.
    std::vector<std::uint64_t> next(ways.size() + blocks.size() - 1, 0);
    for (std::size_t n = 0; n < ways.size(); ++n) {
      if (ways[n] == 0) continue;
      std::uint64_t binom = 1;
      for (std::size_t b = 0; b < blocks.size(); ++b) {
        // binom(n + b, b) = binom(n + b - 1, b - 1) * (n + b) / b, exact
        // below kExact and non-decreasing in b, so it saturates for good.
        if (b > 0 && binom < kExact)
          binom = saturate(u128{binom} * (n + b) / b);
        next[n + b] = saturating_add(
            next[n + b],
            saturate(u128{saturate(u128{ways[n]} * blocks[b])} * binom));
      }
    }
    ways = std::move(next);
  }
  std::uint64_t total = 0;
  for (const std::uint64_t w : ways) total = saturating_add(total, w);
  if (total >= kExact) return false;
  total_paths_ = static_cast<double>(total);
  return true;
}

template <typename Fn>
bool ProductGrid::expand(std::size_t n, std::vector<std::uint32_t>& digits,
                         Fn&& fn) const {
  std::size_t atomic = 0;
  std::size_t holder = 0;
  bool stop = true;
  for (std::size_t i = 0; i < comps_.size(); ++i) {
    const Component& c = comps_[i];
    const std::uint32_t r = digits[i] =
        static_cast<std::uint32_t>(n % c.stop.size());
    n /= c.stop.size();
    if (c.atomic[r]) {
      ++atomic;
      holder = i;
    }
    stop = stop && c.stop[r];
  }
  // Def. 5: the atomic holder moves alone; a tuple with two atomic
  // components (only ever an initial one) has no moves and, since no stop
  // state is atomic, is no stop tuple.
  if (atomic > 1) return false;
  const std::size_t first = atomic == 0 ? 0 : holder;
  const std::size_t last = atomic == 0 ? comps_.size() : holder + 1;
  for (std::size_t i = first; i < last; ++i) {
    const Component& c = comps_[i];
    for (std::uint32_t m = c.first_move[digits[i]];
         m < c.first_move[digits[i] + 1]; ++m)
      fn(c.moves[m]);
  }
  return stop;
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

  return sweep(label_code, obs_kind, util::CancelToken{});
}

double ProductGrid::sweep(const std::vector<std::int32_t>& label_code,
                          const std::vector<std::int32_t>& obs_kind,
                          const util::CancelToken& cancel) const {
  // f(n, j) = number of stop-terminated paths from slot n whose projection
  // onto the visible labels extends observed[j..] as a prefix. A slot's
  // level is its rank sum above the initial tuple's; every move raises it
  // by the move's step, so popping the reached slots level by level pops a
  // slot after every predecessor has widened its band [lo, hi] of the
  // prefix positions a path from the root brings into it. Each pop keeps
  // the moves some position survives; every cell a band cell reads lies in
  // its successor's band, so the fill walks the pops in reverse and fills
  // only the bands, packed slot after slot. Every structure is sized by
  // the reached slots, never by the grid.
  constexpr std::uint32_t kNone = ~std::uint32_t{0};
  const auto full = static_cast<std::uint32_t>(obs_kind.size());
  /// A reached slot, by discovery id.
  struct Visit {
    std::size_t slot = 0;
    std::size_t base = 0;  ///< memo index of (slot, lo)
    std::uint32_t lo = kNone;
    std::uint32_t hi = 0;
    std::uint32_t first_kept = 0;  ///< its kept moves end at the next pop's
    bool stop = false;
  };
  /// A move some consistent path takes.
  struct Kept {
    std::int32_t code = 0;
    std::uint32_t to = 0;  ///< the successor's discovery id
  };
  std::vector<Visit> visits;
  std::vector<Kept> kept;
  std::size_t top = 0;  ///< the highest level
  for (const Component& c : comps_)
    top += c.stop.size() - 1 - (initial_ / c.stride) % c.stop.size();
  std::vector<std::vector<std::uint32_t>> levels(top + 1);  ///< ids
  // Slot -> id: Fibonacci hashing and linear probing in a power-of-two
  // table at most half full.
  std::vector<std::uint32_t> index(1024, kNone);
  const auto entry = [&](std::size_t n) -> std::uint32_t& {
    const std::size_t mask = index.size() - 1;
    std::size_t i = (n * 0x9E3779B97F4A7C15u) >>
                    (64 - std::countr_zero(index.size()));
    while (index[i] != kNone && visits[index[i]].slot != n) i = (i + 1) & mask;
    return index[i];
  };
  // Slot n at `level`, entered with positions [a, b].
  const auto reach = [&](std::size_t n, std::size_t level, std::uint32_t a,
                         std::uint32_t b) {
    std::uint32_t id = entry(n);
    if (id == kNone) {
      if (visits.size() == kNone)
        throw std::length_error("ProductGrid: 2^32 slots reached");
      id = entry(n) = static_cast<std::uint32_t>(visits.size());
      visits.push_back(Visit{.slot = n});
      levels[level].push_back(id);
      if (2 * visits.size() > index.size()) {
        index.assign(2 * index.size(), kNone);
        for (std::uint32_t v = 0; v < visits.size(); ++v)
          entry(visits[v].slot) = v;
      }
    }
    visits[id].lo = std::min(visits[id].lo, a);
    visits[id].hi = std::max(visits[id].hi, b);
    return id;
  };

  std::vector<std::uint32_t> digits(comps_.size());
  reach(initial_, 0, 0, 0);
  std::size_t pops = 0;
  for (std::size_t level = 0; level <= top; ++level) {
    // Successors lie on higher levels, so this one no longer grows.
    for (const std::uint32_t id : levels[level]) {
      if ((pops++ & 1023) == 0 && cancel.cancelled())
        throw util::CancelledError("interleave.grid");
      if (kept.size() >= kNone)
        throw std::length_error("ProductGrid: 2^32 moves kept");
      const std::size_t n = visits[id].slot;
      const std::uint32_t lo = visits[id].lo;
      const std::uint32_t hi = visits[id].hi;
      visits[id].first_kept = static_cast<std::uint32_t>(kept.size());
      const bool stop = expand(n, digits, [&](const Move& move) {
        const std::int32_t code = label_code[move.label];
        std::uint32_t a = lo;
        std::uint32_t b = hi;
        if (code != -2) {
          // A visible step advances the positions whose next observed kind
          // matches; a full prefix tolerates any visible suffix.
          a = kNone;
          for (std::uint32_t j = lo; j <= hi && j < full; ++j) {
            if (obs_kind[j] != code) continue;
            if (a == kNone) a = j + 1;
            b = j + 1;
          }
          if (hi == full) {
            a = std::min(a, full);
            b = full;
          }
          if (a == kNone) return;
        }
        kept.push_back(
            Kept{code, reach(n + move.delta, level + move.step, a, b)});
      });
      visits[id].stop = stop;
    }
  }
  OBS_COUNT("interleave.grid.visited", visits.size());

  std::size_t cells = 0;
  for (Visit& v : visits) {
    v.base = cells;
    cells += v.hi - v.lo + 1;
  }
  std::vector<double> memo(cells, 0.0);
  std::size_t end_kept = kept.size();
  for (auto level = levels.rbegin(); level != levels.rend(); ++level) {
    for (auto at = level->rbegin(); at != level->rend(); ++at) {
      const Visit& v = visits[*at];
      double* row = &memo[v.base];  // row[j - v.lo] = f(slot, j)
      if (v.stop && v.hi == full) row[full - v.lo] = 1.0;
      for (std::size_t e = v.first_kept; e < end_kept; ++e) {
        const Visit& to = visits[kept[e].to];
        const double* succ = &memo[to.base];  // succ[j - to.lo] = f(m, j)
        if (kept[e].code == -2) {
          // Invisible step: j -> j over the whole band.
          const double* same = succ + (v.lo - to.lo);
          for (std::uint32_t j = 0; j <= v.hi - v.lo; ++j) row[j] += same[j];
        } else {
          for (std::uint32_t j = v.lo; j <= v.hi && j < full; ++j)
            if (obs_kind[j] == kept[e].code)
              row[j - v.lo] += succ[j + 1 - to.lo];
          if (v.hi == full) row[full - v.lo] += succ[full - to.lo];
        }
      }
      end_kept = v.first_kept;
    }
  }
  return memo[0];
}

}  // namespace tracesel::flow
