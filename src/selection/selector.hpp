#pragma once
// The top-level message selection facade tying Steps 1-3 together
// (Sec. 3): enumerate fitting combinations, pick the one with maximal
// mutual information gain, then pack subgroups into the leftover buffer.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "selection/combination.hpp"
#include "selection/coverage.hpp"
#include "selection/info_gain.hpp"
#include "selection/packing.hpp"
#include "util/cancel.hpp"

namespace tracesel::selection {

class GainMemo;
class ParallelSelector;
struct SearchCheckpoint;

/// How Step 1/2 search the combination space.
enum class SearchMode {
  /// Score every fitting combination (paper Sec. 3.1-3.2). Exponential;
  /// the reference the knapsack DP is tested against.
  kExhaustive,
  /// Score only maximal fitting combinations. Finds the optimal gain (the
  /// estimator is monotone under adding messages) but, when a message adds
  /// nothing, not the narrower tie exhaustive picks. Exponential.
  kMaximal,
  /// Greedy marginal-gain ascent; near-linear, for very large message sets
  /// (the scalability objective of Sec. 1).
  kGreedy,
  /// Exact 0/1-knapsack dynamic program over (width, gain). Because the
  /// paper's gain estimator decomposes additively per message, this finds
  /// the true Step 2 optimum in O(messages x buffer_width): the same
  /// combination, width and gain bits as kExhaustive. Default.
  kKnapsack,
};

/// Whether `mode` walks the combination space in shards: only these modes
/// run in parallel, checkpoint, honour a shard budget or mem-budget beam,
/// and farm work units out to worker processes. Greedy and knapsack are
/// sequential and near-linear.
constexpr bool is_sharded(SearchMode mode) {
  return mode == SearchMode::kMaximal || mode == SearchMode::kExhaustive;
}

/// The single options struct for the whole selection pipeline. Every entry
/// point (MessageSelector, ParallelSelector, MultiScenarioSelector,
/// tracesel::Session, the CLI and the benches) takes its knobs from here.
struct SelectorConfig {
  std::uint32_t buffer_width = 32;  ///< bits, Table 3 uses 32
  bool packing = true;              ///< run Step 3
  SearchMode mode = SearchMode::kKnapsack;
  std::size_t max_combinations = 1u << 22;
  /// Worker threads for the Step 1/2 search (and the other hot loops that
  /// honour this config): 1 = the classic serial path, 0 = one worker per
  /// hardware thread, N = exactly N workers. Results are bit-identical to
  /// the serial path for every value.
  std::size_t jobs = 1;
  /// Scoring/DP engine for the hot loops (DESIGN.md §14): kCompiled runs
  /// the flat per-spec kernel tables, kGeneric the original reference
  /// paths. A *runtime* knob — results are bit-identical either way — so
  /// it never enters cache keys and composes freely with --jobs / resume.
  flow::KernelMode kernel = flow::KernelMode::kCompiled;
  /// Observability sinks (tracesel::obs, DESIGN.md §10). Either being
  /// non-empty turns the obs layer on when the config reaches a
  /// tracesel::Session; Session::write_observability() then writes the
  /// Chrome trace-event JSON / flat metrics JSON to these paths.
  std::string trace_out;
  std::string metrics_out;

  // --- resilience (DESIGN.md §11, docs/resilience.md) ---
  // The wave checkpoints, shard budget, resume and the beam degradation
  // below belong to the sharded kMaximal/kExhaustive search; the knapsack
  // and greedy paths ignore them (the CLI rejects them there).
  /// Cooperative cancellation / deadline. The default token is inert. When
  /// it fires, the search stops within one shard granule and select()
  /// returns the best-so-far with SelectionResult::partial = true instead
  /// of throwing or hanging.
  util::CancelToken cancel;
  /// Non-empty: persist a SearchCheckpoint to this path (atomically) at
  /// every completed wave of `checkpoint_interval` seed shards.
  std::string checkpoint_path;
  std::size_t checkpoint_interval = 64;
  /// Non-zero: explore at most this many seed shards in this call, then
  /// checkpoint (if enabled) and return a partial result — deterministic
  /// time-slicing for cooperative schedulers and the kill/resume tests.
  std::size_t shard_budget = 0;
  /// Soft memory budget in MiB for the Step 2 search (0 = unlimited).
  /// Enforced via a deterministic estimate of the fitting-combination
  /// storage: when over budget the search degrades to a beam-limited
  /// variant and records it in SelectionResult::degradation. The same
  /// value should be passed to InterleaveOptions::mem_budget_mb to bound
  /// the product build too.
  std::size_t mem_budget_mb = 0;
  /// Continue a previously checkpointed search: completed shards are
  /// skipped, the running best / emitted counter / gain memo are
  /// preloaded, and the final selection is bit-identical to the
  /// uninterrupted run. The checkpoint's fingerprint must match this
  /// search (std::runtime_error otherwise).
  std::shared_ptr<const SearchCheckpoint> resume_from;
  /// Provenance stamped into written checkpoints so Session::resume can
  /// rebuild the pipeline; filled by tracesel::Session, ignored elsewhere.
  std::string checkpoint_spec_path;
  std::uint32_t checkpoint_instances = 0;
};

/// The full outcome of a selection run, carrying both the packed and
/// unpacked views so benches can report the paper's WP/WoP columns.
struct SelectionResult {
  Combination combination;          ///< Step 2 winner
  std::vector<PackedGroup> packed;  ///< Step 3 additions (empty if disabled)
  double gain = 0.0;                ///< I(X;Y) of the final observable set
  double gain_unpacked = 0.0;       ///< I(X;Y) of the Step 2 winner alone
  double coverage = 0.0;            ///< Def. 7 of the final observable set
  double coverage_unpacked = 0.0;
  std::uint32_t used_width = 0;     ///< combination width + packed widths
  std::uint32_t buffer_width = 0;

  /// True when the run was interrupted (cancel/deadline/shard_budget): the
  /// result is the exact champion of the explored region, not of the full
  /// space. A partial result may be empty (no shard finished).
  bool partial = false;
  /// Fraction of seed shards fully explored; 1.0 for complete runs. For the
  /// serial greedy/knapsack paths an interrupted run reports 0.0 (their
  /// progress has no shard granularity).
  double explored_fraction = 1.0;
  /// Non-empty when a memory budget degraded a stage (interleave fallback,
  /// beam-limited Step 2); see docs/resilience.md.
  std::string degradation;
  bool degraded() const { return !degradation.empty(); }

  double utilization() const {
    return buffer_width ? static_cast<double>(used_width) / buffer_width : 0.0;
  }
  double utilization_unpacked() const {
    return buffer_width
               ? static_cast<double>(combination.width) / buffer_width
               : 0.0;
  }

  /// Message ids observable in the trace (Step 2 set plus packed parents).
  std::vector<flow::MessageId> observable() const {
    return observable_messages(combination, packed);
  }
};

class MessageSelector {
 public:
  /// The candidate message pool is the union of messages labeling the
  /// interleaved flow's edges (i.e. the participating flows' alphabets).
  MessageSelector(const flow::MessageCatalog& catalog,
                  const flow::InterleavedFlow& u);

  SelectionResult select(const SelectorConfig& config = {}) const;

  /// select() plus a coverage constraint: every participating flow must
  /// contribute at least one observable message. The paper's pure-gain
  /// objective can leave a whole flow dark under tight budgets (nothing in
  /// Step 2 values *which* flow a bit watches); a validation plan usually
  /// cannot accept that. Repairs by evicting the lowest-contribution
  /// messages of over-represented flows. Throws std::runtime_error when a
  /// flow's narrowest message cannot fit the buffer at all.
  SelectionResult select_with_flow_constraint(
      const SelectorConfig& config = {}) const;

  const InfoGainEngine& engine() const { return engine_; }
  const flow::MessageCatalog& catalog() const { return *catalog_; }
  const flow::InterleavedFlow& interleaving() const { return *u_; }
  const std::vector<flow::MessageId>& candidates() const {
    return candidates_;
  }

 private:
  friend class ParallelSelector;

  /// Shared Step 2 epilogue: metrics + Step 3 packing over a winner.
  /// `memo` (optional) caches per-combination gains across steps.
  SelectionResult finalize(Combination combination,
                           const SelectorConfig& config,
                           GainMemo* memo) const;

  Combination search_exhaustive(const SelectorConfig& config,
                                bool maximal_only) const;
  Combination search_greedy(const SelectorConfig& config) const;
  Combination search_knapsack(const SelectorConfig& config) const;
  /// Memory-budget degradation of the exhaustive/maximal search: a
  /// level-synchronous beam over combination sizes, beam width derived
  /// deterministically from the budget. Approximate (and flagged via
  /// SelectionResult::degradation) but bounded-memory.
  Combination search_beam(const SelectorConfig& config,
                          std::size_t beam_width) const;
  /// Deterministic estimate (bytes) of what materializing every fitting
  /// combination would cost — counts only, never runtime RSS.
  double estimate_search_bytes(const SelectorConfig& config) const;

  const flow::MessageCatalog* catalog_;
  const flow::InterleavedFlow* u_;
  InfoGainEngine engine_;
  std::vector<flow::MessageId> candidates_;
};

}  // namespace tracesel::selection
