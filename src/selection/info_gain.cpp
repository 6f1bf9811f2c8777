#include "selection/info_gain.hpp"

#include <cmath>

#include "util/obs.hpp"

namespace tracesel::selection {

InfoGainEngine::InfoGainEngine(const flow::ProductStats& stats) {
  OBS_SPAN("selection.gain.engine_build");
  // The statistics reduce the per-edge terms to in-edge class histograms
  // (k product states with c in-edges labeled y), and the sum below runs
  // over those classes in one canonical order — labels ascending, class
  // sizes ascending — so the resulting doubles are bit-identical whether
  // the histograms came from the closed form or from the product.
  const double num_states = static_cast<double>(stats.num_product_states());
  const double total_edges = static_cast<double>(stats.num_product_edges());
  if (total_edges == 0) return;

  // Labels ascend, so the last histogram carries the largest message id.
  const auto& histograms = stats.label_target_histograms();
  if (!histograms.empty())
    dense_.assign(static_cast<std::size_t>(histograms.back().label.message) + 1,
                  0.0);
  for (const auto& h : histograms) {
    const double occ_y = static_cast<double>(stats.occurrences(h.label));
    double gain = 0.0;
    for (const auto& [c, k] : h.classes) {
      // p(x,y) = c / total_edges;  p(x) = 1/|S|;  p(y) = occ_y / E.
      // Term per state: p(x,y) * ln( p(x,y) / (p(x) p(y)) )
      //              = (c/E) * ln( c * |S| / occ_y ), k identical states.
      const double pxy = static_cast<double>(c) / total_edges;
      const double ratio = static_cast<double>(c) * num_states / occ_y;
      gain += static_cast<double>(k) * (pxy * std::log(ratio));
    }
    contrib_[h.label] = gain;
    dense_[h.label.message] += gain;
    total_gain_ += gain;
  }
}

double InfoGainEngine::info_gain(
    std::span<const flow::MessageId> combination) const {
  OBS_COUNT("selection.gain.evals", 1);
  double gain = 0.0;
  for (flow::MessageId m : combination)
    gain += m < dense_.size() ? dense_[m] : 0.0;
  return gain;
}

double InfoGainEngine::contribution(const flow::IndexedMessage& im) const {
  const auto it = contrib_.find(im);
  return it == contrib_.end() ? 0.0 : it->second;
}

double InfoGainEngine::message_contribution(flow::MessageId m) const {
  return m < dense_.size() ? dense_[m] : 0.0;
}

}  // namespace tracesel::selection
