#pragma once
// tracesel::ArtifactStore — the shared workload cache of the query layer
// (DESIGN.md §13).
//
// A selection job's expensive, *deterministic* middle product is its
// workload: parse spec -> product statistics -> selector over them. It is
// a pure function of the spec content and the instance count, so
// concurrent and repeated jobs can share it. The store maps
//
//   workload key : FNV-1a(spec content hash, instances)
//
// to the built workload. Selection results are not kept here: the daemon's
// one result cache is the job journal's bounded result index
// (service/journal.hpp).
//
// Concurrency. A lookup holds the lock only to probe and to insert; the
// build runs outside it. Two requesters that miss the same key at once
// both build, and the first insert wins (the daemon attaches identical
// concurrent jobs to one run, so this is rare). A builder that throws
// leaves the key vacant.
//
// Bound. The store keeps at most kMaxWorkloads entries and evicts the
// oldest insert first, so a client sending ever-new inline specs cannot
// grow it without limit.
//
// Everything cached is immutable-by-contract: values are handed out as
// shared_ptr<const T> and must never be mutated by consumers.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>

namespace tracesel {

struct Workload;  // query_core.hpp — the resolved spec/statistics/selector

class ArtifactStore {
 public:
  /// Entries kept before the oldest is evicted.
  static constexpr std::size_t kMaxWorkloads = 64;

  struct Stats {
    std::uint64_t workload_hits = 0;
    std::uint64_t workload_misses = 0;
    /// Always 0: the store keeps no results (the journal's index does).
    /// Kept for the benchmark's `tracesel.store.result_hit_ratio`.
    std::uint64_t result_hits = 0;
    std::uint64_t result_misses = 0;
    std::uint64_t workload_entries = 0;  ///< cached values
  };

  using WorkloadBuilder = std::function<std::shared_ptr<const Workload>()>;

  ArtifactStore() = default;
  ArtifactStore(const ArtifactStore&) = delete;
  ArtifactStore& operator=(const ArtifactStore&) = delete;

  /// Returns the cached workload for `key`, or runs `build` and caches its
  /// product (first insert wins). `cache_hit` (optional) reports whether
  /// the value came from the cache rather than `build`. Exceptions from
  /// `build` propagate and cache nothing.
  std::shared_ptr<const Workload> workload(std::uint64_t key,
                                           const WorkloadBuilder& build,
                                           bool* cache_hit = nullptr);

  Stats stats() const;

 private:
  mutable std::mutex mu_;
  /// Oldest insert first.
  std::deque<std::pair<std::uint64_t, std::shared_ptr<const Workload>>>
      workloads_;
  Stats stats_;
};

}  // namespace tracesel
