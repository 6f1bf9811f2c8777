#include "selection/parallel_selector.hpp"

#include <atomic>
#include <bit>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "flow/interleaved_flow.hpp"
#include "selection/checkpoint.hpp"
#include "util/obs.hpp"

namespace tracesel::selection {

namespace {

/// Per-task champion under the serial search's strict total order:
/// gain descending, then width ascending, then lexicographic messages.
struct Best {
  bool valid = false;
  double gain = -1.0;
  Combination combo;

  void offer(double g, const std::vector<flow::MessageId>& messages,
             std::uint32_t width) {
    const bool better =
        !valid || g > gain ||
        (g == gain &&
         (width < combo.width ||
          (width == combo.width && messages < combo.messages)));
    if (better) {
      valid = true;
      gain = g;
      combo.messages = messages;
      combo.width = width;
    }
  }

  void offer(const Best& other) {
    if (other.valid) offer(other.gain, other.combo.messages, other.combo.width);
  }
};

/// Shared combination walker: enumerates every combination owned by one
/// seed with the exact order, width accounting and maximality filter of
/// the serial search. Both the pooled path (search_sharded) and the
/// distributed path (run_unit) drive it, differing only in their emit
/// policy — which is the whole point: one enumerator, bit-identical
/// emissions everywhere.
struct SeedWalker {
  const std::vector<flow::MessageId>& candidates;
  const std::vector<std::uint32_t>& widths;
  std::uint32_t budget;
  bool maximal_only;

  /// keep_going() is polled at every node (pre-filter) — cancellation.
  /// emit(messages, width) fires for every post-filter combination and
  /// returns false to stop the walk (cap crossing). on_push(i) / on_pop()
  /// mirror every candidate entering/leaving `current` (prefix included),
  /// so an incremental scorer (GainCursor) can ride the walk. Returns
  /// false iff the walk stopped early.
  template <typename KeepGoing, typename Emit, typename OnPush,
            typename OnPop>
  bool run(const ShardSeed& seed, KeepGoing&& keep_going, Emit&& emit,
           OnPush&& on_push, OnPop&& on_pop) const {
    const std::size_t n = candidates.size();
    std::vector<char> in_current(n, 0);
    std::vector<flow::MessageId> current;
    current.reserve(n);
    std::uint32_t width = 0;
    for (std::size_t i : seed.prefix) {
      in_current[i] = 1;
      current.push_back(candidates[i]);
      width += widths[i];
      on_push(i);
    }

    bool stopped = false;
    const auto consider = [&] {
      if (!keep_going()) {
        stopped = true;
        return;
      }
      if (maximal_only) {
        for (std::size_t i = 0; i < n; ++i) {
          if (!in_current[i] && width + widths[i] <= budget) return;
        }
      }
      if (!emit(current, width)) stopped = true;
    };

    if (!seed.subtree) {
      consider();
    } else {
      auto walk = [&](auto&& self, std::size_t next) -> void {
        consider();
        if (stopped) return;
        for (std::size_t i = next; i < n && !stopped; ++i) {
          if (width + widths[i] > budget) continue;
          in_current[i] = 1;
          current.push_back(candidates[i]);
          width += widths[i];
          on_push(i);
          self(self, i + 1);
          on_pop();
          width -= widths[i];
          current.pop_back();
          in_current[i] = 0;
        }
      };
      walk(walk, seed.next);
    }
    return !stopped;
  }
};

std::vector<std::uint32_t> candidate_widths(const MessageSelector& base) {
  const auto& candidates = base.candidates();
  const auto& catalog = base.catalog();
  std::vector<std::uint32_t> widths(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i)
    widths[i] = catalog.get(candidates[i]).trace_width();
  return widths;
}

}  // namespace

std::vector<ShardSeed> shard_seeds(const MessageSelector& base,
                                   const SelectorConfig& config) {
  const std::size_t n = base.candidates().size();
  const std::uint32_t budget = config.buffer_width;
  const std::vector<std::uint32_t> widths = candidate_widths(base);

  // Shard prefix depth: 3 gives ~C(n,3) well-balanced subtrees; drop to 2
  // for very large alphabets to keep the task count bounded.
  const std::size_t depth = n <= 40 ? 3 : 2;

  std::vector<ShardSeed> seeds;
  std::vector<std::size_t> prefix;
  std::uint32_t width = 0;
  auto gen = [&](auto&& self, std::size_t next) -> void {
    for (std::size_t i = next; i < n; ++i) {
      if (width + widths[i] > budget) continue;
      prefix.push_back(i);
      width += widths[i];
      const bool subtree = prefix.size() == depth;
      seeds.push_back(ShardSeed{prefix, width, i + 1, subtree});
      if (!subtree) self(self, i + 1);
      width -= widths[i];
      prefix.pop_back();
    }
  };
  gen(gen, 0);
  return seeds;
}

ParallelSelector::ParallelSelector(const flow::MessageCatalog& catalog,
                                   const flow::InterleavedFlow& u)
    : owned_(std::make_unique<MessageSelector>(catalog, u)),
      base_(owned_.get()) {}

ParallelSelector::ParallelSelector(const MessageSelector& base)
    : base_(&base) {}

ParallelSelector::SearchOutcome ParallelSelector::search_sharded(
    const SelectorConfig& config, bool maximal_only,
    util::ThreadPool& pool) const {
  OBS_SPAN("selection.parallel.search");
  const auto& candidates = base_->candidates();
  const InfoGainEngine& engine = base_->engine();
  const util::CancelToken cancel = config.cancel;  // shared state, cheap copy

  const std::vector<std::uint32_t> widths = candidate_widths(*base_);
  const std::vector<ShardSeed> seeds = shard_seeds(*base_, config);
  OBS_COUNT("selection.parallel.seeds", seeds.size());

  // Resume: validate that the checkpoint describes *this* search, then
  // preload the running best, the emitted-combination counter and the
  // memo, and skip the shards the previous run completed.
  std::size_t start_seed = 0;
  Best overall;
  std::size_t emitted_start = 0;
  if (config.resume_from) {
    const SearchCheckpoint& ck = *config.resume_from;
    if (ck.fingerprint !=
            search_fingerprint(*base_, config, maximal_only) ||
        ck.seeds_total != seeds.size())
      throw std::runtime_error(
          "ParallelSelector: checkpoint does not match this search "
          "(different spec, candidates, buffer width, mode or cap)");
    start_seed = static_cast<std::size_t>(ck.next_seed);
    emitted_start = static_cast<std::size_t>(ck.emitted);
    if (ck.best_valid)
      overall.offer(std::bit_cast<double>(ck.best_gain_bits),
                    ck.best_messages, ck.best_width);
    memo_.restore(ck.memo);
    OBS_COUNT("resilience.resumes", 1);
  }

  std::atomic<std::size_t> emitted{emitted_start};

  const SeedWalker walker{candidates, widths, config.buffer_width,
                          maximal_only};
  const bool compiled = config.kernel == flow::KernelMode::kCompiled;
  const auto run_seed = [&](const ShardSeed& seed, Best& best,
                            bool& stopped) {
    // Compiled Step-2 hot loop: a per-shard GainCursor keeps the exact
    // left-to-right prefix sums of the walk, so each emission scores in
    // O(1) — the very summation info_gain(current) would run, not re-run
    // from scratch, hence bit-identical champions.
    GainCursor cursor(engine);
    const bool complete = walker.run(
        seed, [&] { return !cancel.cancelled(); },
        [&](const std::vector<flow::MessageId>& current,
            std::uint32_t width) {
          // Same cap semantics as the serial enumerator: only combinations
          // that pass the maximality filter count, and emission number
          // max_combinations + 1 throws.
          if (emitted.fetch_add(1, std::memory_order_relaxed) >=
              config.max_combinations)
            throw std::length_error(
                "enumerate_combinations: result cap exceeded; use "
                "maximal/greedy enumeration for large message sets");
          best.offer(compiled ? cursor.gain() : engine.info_gain(current),
                     current, width);
          return true;
        },
        [&](std::size_t i) {
          if (compiled) cursor.push(candidates[i]);
        },
        [&] {
          if (compiled) cursor.pop();
        });
    if (!complete) stopped = true;
  };

  const auto write_checkpoint = [&](std::size_t next_seed) {
    OBS_SPAN("resilience.checkpoint.write");
    SearchCheckpoint ck;
    ck.spec_path = config.checkpoint_spec_path;
    ck.instances = config.checkpoint_instances;
    ck.fingerprint = search_fingerprint(*base_, config, maximal_only);
    ck.buffer_width = config.buffer_width;
    ck.mode = static_cast<std::uint32_t>(config.mode);
    ck.packing = config.packing;
    ck.max_combinations = config.max_combinations;
    const flow::InterleaveOptions& iopt = base_->interleaving().options();
    ck.symmetry_reduction = iopt.symmetry_reduction;
    ck.max_nodes = iopt.max_nodes;
    ck.seeds_total = seeds.size();
    ck.next_seed = next_seed;
    ck.emitted = emitted.load(std::memory_order_relaxed);
    ck.best_valid = overall.valid;
    if (overall.valid) {
      ck.best_gain_bits = std::bit_cast<std::uint64_t>(overall.gain);
      ck.best_width = overall.combo.width;
      ck.best_messages = overall.combo.messages;
    }
    ck.memo = memo_.entries();
    const util::Status st = save_checkpoint(config.checkpoint_path, ck);
    if (!st.ok())
      throw std::runtime_error("ParallelSelector: cannot write checkpoint: " +
                               st.error().to_string());
    OBS_COUNT("resilience.checkpoints.written", 1);
  };

  // Dispatch in waves. A wave is a barrier: once every shard in it has
  // finished, its champions are merged in ascending seed order and the
  // boundary is a legal checkpoint. Without checkpointing or a shard
  // budget the single wave covers all remaining seeds — identical
  // scheduling to the pre-resilience engine.
  const bool waved =
      !config.checkpoint_path.empty() || config.shard_budget > 0;
  const std::size_t wave =
      waved ? std::max<std::size_t>(1, config.checkpoint_interval)
            : seeds.size();

  std::size_t completed = start_seed;  // seeds fully explored (prefix)
  std::size_t s = start_seed;
  bool stopped_early = false;
  std::vector<Best> tail;  // champions of cancelled, part-explored shards

  while (s < seeds.size()) {
    if (cancel.cancelled()) {
      stopped_early = true;
      break;
    }
    if (config.shard_budget > 0 &&
        s - start_seed >= config.shard_budget) {
      stopped_early = true;
      break;
    }
    std::size_t wave_end = std::min(seeds.size(), s + wave);
    if (config.shard_budget > 0)
      wave_end = std::min(wave_end,
                          start_seed + config.shard_budget);

    const std::size_t len = wave_end - s;
    std::vector<Best> results(len);
    std::vector<std::uint8_t> done(len, 0);
    for (std::size_t t = 0; t < len; ++t) {
      pool.submit([&, t] {
        if (cancel.cancelled()) return;  // skipped shard: done stays 0
        bool stopped = false;
        run_seed(seeds[s + t], results[t], stopped);
        if (!stopped) done[t] = 1;
      });
    }
    pool.wait();

    bool wave_complete = true;
    for (std::size_t t = 0; t < len; ++t)
      if (!done[t]) wave_complete = false;

    if (wave_complete) {
      for (std::size_t t = 0; t < len; ++t) overall.offer(results[t]);
      s = wave_end;
      completed = wave_end;
      if (!config.checkpoint_path.empty()) write_checkpoint(completed);
    } else {
      // Cancelled mid-wave: the boundary checkpoint already on disk stays
      // authoritative. Completed shards still merge exactly; cancelled
      // shards contribute their (valid, exactly scored) champions to the
      // *returned* partial best only.
      for (std::size_t t = 0; t < len; ++t) {
        if (done[t]) {
          ++completed;
          overall.offer(results[t]);
        } else {
          tail.push_back(std::move(results[t]));
        }
      }
      stopped_early = true;
      break;
    }
  }
  const std::size_t scored =
      emitted.load(std::memory_order_relaxed) - emitted_start;
  OBS_COUNT("selection.combinations", scored);
  // The compiled walk scores through GainCursor, past info_gain's own
  // counter: one evaluation per scored combination, as on the serial path.
  if (compiled) OBS_COUNT("selection.gain.evals", scored);

  SearchOutcome out;
  out.partial = stopped_early;
  out.explored_fraction =
      seeds.empty() ? 1.0
                    : static_cast<double>(completed) /
                          static_cast<double>(seeds.size());
  if (stopped_early) OBS_COUNT("resilience.cancelled_searches", 1);
  for (const Best& b : tail) overall.offer(b);
  if (!overall.valid) {
    if (stopped_early) return out;  // empty partial result, not an error
    throw std::runtime_error(
        "MessageSelector: no message fits the trace buffer");
  }
  out.valid = true;
  out.combo = std::move(overall.combo);
  return out;
}

SelectionResult ParallelSelector::select(const SelectorConfig& config,
                                         util::ThreadPool* pool) const {
  if (!is_sharded(config.mode)) {
    // Greedy ascent and the knapsack DP are sequential by nature (each
    // step/row depends on the previous) and already near-linear; run them
    // on the serial path.
    SelectorConfig serial = config;
    serial.jobs = 1;
    return base_->select(serial);
  }
  if (config.mem_budget_mb > 0 &&
      base_->estimate_search_bytes(config) >
          static_cast<double>(config.mem_budget_mb) * (1u << 20)) {
    // Over the Step 2 memory budget: the serial path degrades to the
    // beam-limited search (MessageSelector::select applies the budget
    // check before its parallel routing, so this cannot bounce back here).
    SelectorConfig serial = config;
    serial.jobs = 1;
    return base_->select(serial);
  }

  std::optional<util::ThreadPool> local;
  if (pool == nullptr) {
    local.emplace(util::ThreadPool::resolve_jobs(config.jobs));
    pool = &*local;
  }
  SearchOutcome out = search_sharded(
      config, /*maximal_only=*/config.mode == SearchMode::kMaximal, *pool);
  if (!out.valid) {
    // Interrupted before any shard produced a champion: a well-formed
    // empty partial result (never a throw or a hang).
    SelectionResult result;
    result.buffer_width = config.buffer_width;
    result.partial = true;
    result.explored_fraction = out.explored_fraction;
    return result;
  }
  SelectionResult result =
      base_->finalize(std::move(out.combo), config, &memo_);
  result.partial = out.partial;
  result.explored_fraction = out.explored_fraction;
  return result;
}

std::size_t ParallelSelector::seed_count(const SelectorConfig& config) const {
  return shard_seeds(*base_, config).size();
}

bool ParallelSelector::memory_degraded(const SelectorConfig& config) const {
  return config.mem_budget_mb > 0 &&
         base_->estimate_search_bytes(config) >
             static_cast<double>(config.mem_budget_mb) * (1u << 20);
}

ParallelSelector::UnitOutcome ParallelSelector::run_unit(
    const SelectorConfig& config, std::size_t begin, std::size_t end) const {
  OBS_SPAN("selection.dist.unit");
  const bool maximal_only = config.mode == SearchMode::kMaximal;
  const std::vector<std::uint32_t> widths = candidate_widths(*base_);
  const std::vector<ShardSeed> seeds = shard_seeds(*base_, config);
  end = std::min(end, seeds.size());
  begin = std::min(begin, end);

  const InfoGainEngine& engine = base_->engine();
  const util::CancelToken cancel = config.cancel;
  const SeedWalker walker{base_->candidates(), widths, config.buffer_width,
                          maximal_only};

  const bool compiled = config.kernel == flow::KernelMode::kCompiled;
  UnitOutcome out;
  Best best;
  for (std::size_t s = begin; s < end; ++s) {
    // Fresh cursor per seed: the walker pushes each seed's prefix without
    // popping it at the end of the walk.
    GainCursor cursor(engine);
    const bool complete = walker.run(
        seeds[s], [&] { return !cancel.cancelled(); },
        [&](const std::vector<flow::MessageId>& current,
            std::uint32_t width) {
          ++out.emitted;
          // This range alone has crossed the global cap: no need to keep
          // walking, the coordinator must throw whatever the other units
          // report. The crossing emission stays counted so the sum the
          // coordinator checks is still a lower bound > cap.
          if (out.emitted > config.max_combinations) {
            out.cap_exceeded = true;
            return false;
          }
          best.offer(compiled ? cursor.gain() : engine.info_gain(current),
                     current, width);
          return true;
        },
        [&](std::size_t i) {
          if (compiled) cursor.push(base_->candidates()[i]);
        },
        [&] {
          if (compiled) cursor.pop();
        });
    if (!complete) {
      if (!out.cap_exceeded) out.stopped = true;
      break;
    }
  }
  // The emission that crossed the cap was counted but not scored.
  if (compiled)
    OBS_COUNT("selection.gain.evals",
              out.emitted - (out.cap_exceeded ? 1 : 0));
  out.valid = best.valid;
  out.gain = best.gain;
  out.combo = std::move(best.combo);
  return out;
}

SelectionResult ParallelSelector::finalize_distributed(
    bool valid, Combination combo, std::uint64_t emitted_total, bool partial,
    double explored_fraction, const SelectorConfig& config) const {
  if (emitted_total > config.max_combinations)
    throw std::length_error(
        "enumerate_combinations: result cap exceeded; use "
        "maximal/greedy enumeration for large message sets");
  if (!valid) {
    if (partial) {
      SelectionResult result;
      result.buffer_width = config.buffer_width;
      result.partial = true;
      result.explored_fraction = explored_fraction;
      return result;
    }
    throw std::runtime_error(
        "MessageSelector: no message fits the trace buffer");
  }
  SelectionResult result = base_->finalize(std::move(combo), config, &memo_);
  result.partial = partial;
  result.explored_fraction = explored_fraction;
  return result;
}

}  // namespace tracesel::selection
