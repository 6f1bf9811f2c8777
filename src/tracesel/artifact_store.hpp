#pragma once
// tracesel::ArtifactStore — the shared, immutable artifact cache of the
// query layer (DESIGN.md §13).
//
// A selection job factors into two expensive, *deterministic* products:
//
//   workload  =  parse spec -> product statistics -> selector over them
//   result    =  Step 1-3 search over a workload under a search config
//
// Both are pure functions of the job description (tracesel::JobRequest),
// so concurrent and repeated jobs can share them. The store is a
// content-addressed map over the request's canonical hashes:
//
//   workload key : FNV-1a(spec content hash, instances)
//   result key   : JobRequest::canonical_hash(spec content hash) — every
//                  structural field, no runtime knobs (deadline, node
//                  cap), because a run they stop is never cached.
//
// Concurrency. Each key holds a shared_future: the first requester becomes
// the builder, later requesters block on the future instead of duplicating
// the work (in-flight deduplication). A builder that fails — throws, or
// returns nullptr to signal "do not cache" (partial results) — leaves the
// key vacant and hands waiters nullptr, so they rebuild for themselves;
// a failed or partial build never poisons the cache.
//
// Hash collisions. Result entries carry the JobRequest that built them;
// a hit whose request is not the same computation (JobRequest::
// same_computation) is served as a miss, bypassing the cache, and counted
// in Stats::collisions.
//
// Everything cached is immutable-by-contract: values are handed out as
// shared_ptr<const T> and must never be mutated by consumers.

#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>

#include "selection/selector.hpp"
#include "tracesel/job_request.hpp"

namespace tracesel {

struct Workload;  // query_core.hpp — the resolved spec/statistics/selector

class ArtifactStore {
 public:
  struct Stats {
    std::uint64_t workload_hits = 0;
    std::uint64_t workload_misses = 0;
    std::uint64_t result_hits = 0;
    std::uint64_t result_misses = 0;
    std::uint64_t collisions = 0;       ///< result-key hash collisions
    std::uint64_t workload_entries = 0; ///< cached (completed) values
    std::uint64_t result_entries = 0;
  };

  using WorkloadBuilder = std::function<std::shared_ptr<const Workload>()>;
  using ResultBuilder =
      std::function<std::shared_ptr<const selection::SelectionResult>()>;

  ArtifactStore() = default;
  ArtifactStore(const ArtifactStore&) = delete;
  ArtifactStore& operator=(const ArtifactStore&) = delete;

  /// Returns the cached workload for `key`, or runs `build` (exactly once
  /// across concurrent requesters) and caches its non-null product.
  /// nullptr only when an in-flight builder on another thread failed —
  /// callers then build privately. `cache_hit` (optional) reports whether
  /// the value came from the cache / an in-flight builder rather than
  /// `build`.
  std::shared_ptr<const Workload> workload(std::uint64_t key,
                                           const WorkloadBuilder& build,
                                           bool* cache_hit = nullptr);

  /// Same protocol for selection results, plus the collision guard:
  /// `request` must be the job the key was derived from. A builder that
  /// returns nullptr (partial result — cancelled, deadline, budget) leaves
  /// the key uncached.
  std::shared_ptr<const selection::SelectionResult> result(
      std::uint64_t key, const JobRequest& request, const ResultBuilder& build,
      bool* cache_hit = nullptr);

  Stats stats() const;
  /// Drops every cached value (in-flight builds are unaffected: their
  /// futures complete but land in the fresh generation only if re-asked).
  void clear();

 private:
  template <typename T>
  struct Entry {
    std::shared_future<std::shared_ptr<const T>> future;
    bool ready = false;  ///< set once the builder committed a value
  };

  struct ResultEntry : Entry<selection::SelectionResult> {
    JobRequest request;
  };

  mutable std::mutex mu_;
  std::map<std::uint64_t, Entry<Workload>> workloads_;
  std::map<std::uint64_t, ResultEntry> results_;
  Stats stats_;
};

}  // namespace tracesel
