#include "flow/kernel.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "util/obs.hpp"

namespace tracesel::flow::kernel {

Program Program::compile(const InterleavedFlow& u) {
  OBS_SPAN("kernel.compile");
  const auto t0 = std::chrono::steady_clock::now();

  Program p;
  p.hist_ = std::make_unique<HistCache>();
  p.num_nodes_ = u.num_nodes();
  p.out_offset_ = u.out_offset_;

  // Sorted distinct label table + per-edge label ids: the per-edge-kind
  // dispatch tables. Queries classify |labels| entries once instead of
  // std::find-ing over every edge.
  const std::vector<InterleavedFlow::Edge>& edges = u.edges_;
  const std::size_t num_edges = edges.size();
  p.labels_.reserve(num_edges);
  for (const InterleavedFlow::Edge& e : edges) p.labels_.push_back(e.label);
  std::sort(p.labels_.begin(), p.labels_.end());
  p.labels_.erase(std::unique(p.labels_.begin(), p.labels_.end()),
                  p.labels_.end());
  p.edge_to_.resize(num_edges);
  p.edge_label_.resize(num_edges);
  for (std::size_t e = 0; e < num_edges; ++e) {
    p.edge_to_[e] = edges[e].to;
    p.edge_label_[e] = static_cast<std::uint32_t>(
        std::lower_bound(p.labels_.begin(), p.labels_.end(), edges[e].label) -
        p.labels_.begin());
  }

  p.stop_bits_.assign((p.num_nodes_ + 63) / 64, 0);
  for (NodeId n : u.stop_nodes())
    p.stop_bits_[n >> 6] |= std::uint64_t{1} << (n & 63);
  p.initial_ = u.initial_nodes();

  // Kahn topological schedule. Nodes are interned in discovery order, which
  // is *not* topological in general, so the dense sweeps need an explicit
  // order with every successor scheduled after (= processed before, in the
  // reverse sweep) its predecessors.
  {
    std::vector<std::uint32_t> indeg(p.num_nodes_, 0);
    for (std::uint32_t t : p.edge_to_) ++indeg[t];
    p.topo_.reserve(p.num_nodes_);
    for (std::size_t n = 0; n < p.num_nodes_; ++n)
      if (indeg[n] == 0) p.topo_.push_back(static_cast<std::uint32_t>(n));
    for (std::size_t head = 0; head < p.topo_.size(); ++head) {
      const std::uint32_t n = p.topo_[head];
      for (std::uint32_t e = p.out_offset_[n]; e < p.out_offset_[n + 1]; ++e)
        if (--indeg[p.edge_to_[e]] == 0) p.topo_.push_back(p.edge_to_[e]);
    }
    if (p.topo_.size() != p.num_nodes_)
      throw std::logic_error(
          "kernel::Program: interleaved product is not acyclic");
  }

  // count_paths via one dense reverse-topological pass. Per node the
  // summation order matches the generic DP exactly (stop bonus, then edges
  // in ascending CSR order); memo values are order-independent functions of
  // the successors, so the total is bit-identical.
  {
    std::vector<double> memo(p.num_nodes_, 0.0);
    for (std::size_t i = p.topo_.size(); i-- > 0;) {
      const std::uint32_t n = p.topo_[i];
      double paths = p.is_stop(n) ? 1.0 : 0.0;
      for (std::uint32_t e = p.out_offset_[n]; e < p.out_offset_[n + 1]; ++e)
        paths += memo[p.edge_to_[e]];
      memo[n] = paths;
    }
    p.total_paths_ = 0.0;
    for (NodeId r : p.initial_) p.total_paths_ += memo[r];
  }

  p.stats_.nodes = p.num_nodes_;
  p.stats_.edges = num_edges;
  p.stats_.labels = p.labels_.size();
  p.stats_.table_bytes = p.out_offset_.capacity() * sizeof(std::uint32_t) +
                         p.edge_to_.capacity() * sizeof(std::uint32_t) +
                         p.edge_label_.capacity() * sizeof(std::uint32_t) +
                         p.labels_.capacity() * sizeof(IndexedMessage) +
                         p.topo_.capacity() * sizeof(std::uint32_t) +
                         p.stop_bits_.capacity() * sizeof(std::uint64_t) +
                         p.initial_.capacity() * sizeof(NodeId);
  p.stats_.compile_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();

  OBS_COUNT("kernel.compiles", 1);
  OBS_GAUGE_MAX("kernel.compile_ms", p.stats_.compile_ms + 0.5);
  OBS_GAUGE_MAX("kernel.table_bytes", p.stats_.table_bytes);
  return p;
}

double Program::count_consistent_paths(
    const std::vector<MessageId>& selected,
    const std::vector<IndexedMessage>& observed) const {
  OBS_SPAN("kernel.exec");
  OBS_COUNT("kernel.execs", 1);

  // Validation replicates the generic path exactly, including the
  // is_selected sizing (max over selected ids and edge label ids; labels_
  // is precisely the distinct edge label set).
  std::vector<bool> is_selected;
  {
    MessageId max_id = 0;
    for (MessageId m : selected) max_id = std::max(max_id, m);
    for (const IndexedMessage& im : labels_)
      max_id = std::max(max_id, im.message);
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

  // Distinct observed labels get small kind ids (first-occurrence order,
  // matching the generic path).
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
  // Per-*label* classification — the compiled lookup table. The generic
  // path classifies per edge (O(E * K)); here it is O(L * K) with the DP
  // indexing the table through edge_label_.
  // -2: invisible edge; -1: visible but never observed; >=0: kind id.
  std::vector<std::int32_t> label_code(labels_.size());
  for (std::size_t l = 0; l < labels_.size(); ++l) {
    if (!is_selected[labels_[l].message]) {
      label_code[l] = -2;
      continue;
    }
    const auto it = std::find(kinds.begin(), kinds.end(), labels_[l]);
    label_code[l] =
        it == kinds.end() ? -1 : static_cast<std::int32_t>(it - kinds.begin());
  }

  // Dense (node x prefix-position) sweep in reverse topological order.
  // Layout matches the generic memo (node-major rows of width olen+1), so
  // one node's row and each successor row are contiguous. Unreachable
  // (node, j) slots are computed too — harmless extra work that buys the
  // branch-free sweep. Per slot the additions happen in exactly the generic
  // order: stop bonus first, then edges ascending.
  const std::size_t width = olen + 1;
  std::vector<double> memo(num_nodes_ * width, 0.0);
  for (std::size_t i = topo_.size(); i-- > 0;) {
    const std::uint32_t n = topo_[i];
    double* row = &memo[static_cast<std::size_t>(n) * width];
    if (is_stop(n)) row[olen] = 1.0;
    for (std::uint32_t e = out_offset_[n]; e < out_offset_[n + 1]; ++e) {
      const std::int32_t code = label_code[edge_label_[e]];
      const double* succ =
          &memo[static_cast<std::size_t>(edge_to_[e]) * width];
      if (code == -2) {
        // Invisible step: j -> j for every prefix position.
        std::size_t j = 0;
#if defined(TRACESEL_KERNEL_SIMD)
        // 4-wide unroll of independent lanes; same per-lane additions, so
        // still bit-identical. (Plain unroll — autovectorizes well; swap in
        // explicit intrinsics here if a target needs them.)
        for (; j + 4 <= width; j += 4) {
          row[j] += succ[j];
          row[j + 1] += succ[j + 1];
          row[j + 2] += succ[j + 2];
          row[j + 3] += succ[j + 3];
        }
#endif
        for (; j < width; ++j) row[j] += succ[j];
      } else {
        // Visible step: j advances only where the next observed kind
        // matches; a full prefix (j == olen) tolerates any visible suffix.
        for (std::size_t j = 0; j < olen; ++j)
          if (obs_kind[j] == code) row[j] += succ[j + 1];
        row[olen] += succ[olen];
      }
    }
  }
  double total = 0.0;
  for (NodeId r : initial_)
    total += memo[static_cast<std::size_t>(r) * width];
  return total;
}

const std::vector<InterleavedFlow::LabelClassHistogram>&
Program::label_target_histograms() const {
  std::call_once(hist_->once, [this] { build_histograms(); });
  return hist_->value;
}

void Program::build_histograms() const {
  OBS_SPAN("kernel.exec");
  // Counting-sort the edge targets by label id, then per label count
  // in-edges per target with a scratch array + touched list. Produces the
  // exact integers (labels ascending, classes ascending by c) of the
  // generic nested-map computation.
  const std::size_t num_labels = labels_.size();
  const std::size_t num_edges = edge_label_.size();
  std::vector<std::uint32_t> off(num_labels + 1, 0);
  for (std::uint32_t l : edge_label_) ++off[l + 1];
  for (std::size_t l = 0; l < num_labels; ++l) off[l + 1] += off[l];
  std::vector<std::uint32_t> targets(num_edges);
  {
    std::vector<std::uint32_t> cursor(off.begin(), off.end() - 1);
    for (std::size_t e = 0; e < num_edges; ++e)
      targets[cursor[edge_label_[e]]++] = edge_to_[e];
  }

  std::vector<std::uint64_t> cnt(num_nodes_, 0);
  std::vector<std::uint32_t> touched;
  std::vector<std::uint64_t> counts;
  hist_->value.reserve(num_labels);
  for (std::size_t l = 0; l < num_labels; ++l) {
    touched.clear();
    counts.clear();
    for (std::uint32_t i = off[l]; i < off[l + 1]; ++i) {
      const std::uint32_t t = targets[i];
      if (cnt[t]++ == 0) touched.push_back(t);
    }
    for (std::uint32_t t : touched) {
      counts.push_back(cnt[t]);
      cnt[t] = 0;
    }
    std::sort(counts.begin(), counts.end());
    InterleavedFlow::LabelClassHistogram h;
    h.label = labels_[l];
    for (std::size_t i = 0; i < counts.size();) {
      std::size_t j = i;
      while (j < counts.size() && counts[j] == counts[i]) ++j;
      h.classes.emplace_back(counts[i], static_cast<std::uint64_t>(j - i));
      i = j;
    }
    hist_->value.push_back(std::move(h));
  }
}

}  // namespace tracesel::flow::kernel
