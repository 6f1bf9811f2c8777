#include "tracesel/artifact_store.hpp"

#include "tracesel/query_core.hpp"
#include "util/obs.hpp"

namespace tracesel {

namespace {

/// Shared get-or-build protocol over one entry map. The builder runs
/// outside the lock; its exceptions reach only the building caller (the
/// promise is fulfilled with nullptr first, so waiters rebuild privately
/// instead of inheriting a failure — e.g. one job's CancelledError must
/// not cancel the jobs waiting on it).
template <typename EntryMap, typename Ptr, typename Build, typename OnInsert>
Ptr get_or_build(std::mutex& mu, EntryMap& entries, std::uint64_t key,
                 const Build& build, const OnInsert& on_insert, bool* hit,
                 std::uint64_t& hits, std::uint64_t& misses) {
  std::promise<Ptr> promise;
  {
    std::unique_lock<std::mutex> lk(mu);
    auto it = entries.find(key);
    if (it != entries.end()) {
      ++hits;
      if (hit != nullptr) *hit = true;
      std::shared_future<Ptr> inflight = it->second.future;
      // Wait outside the lock: an in-flight build may take seconds and
      // must not serialize every other store operation behind it.
      lk.unlock();
      return inflight.get();
    }
    ++misses;
    if (hit != nullptr) *hit = false;
    auto& entry = entries[key];
    entry.future = promise.get_future().share();
    on_insert(entry);
  }

  Ptr value;
  try {
    value = build();
  } catch (...) {
    promise.set_value(nullptr);
    std::lock_guard<std::mutex> lk(mu);
    entries.erase(key);
    throw;
  }
  promise.set_value(value);
  std::lock_guard<std::mutex> lk(mu);
  if (value == nullptr) {
    entries.erase(key);  // "do not cache" — partial results
  } else {
    auto it = entries.find(key);
    if (it != entries.end()) it->second.ready = true;
  }
  return value;
}

}  // namespace

std::shared_ptr<const Workload> ArtifactStore::workload(
    std::uint64_t key, const WorkloadBuilder& build, bool* cache_hit) {
  bool hit = false;
  auto value = get_or_build<decltype(workloads_),
                            std::shared_ptr<const Workload>>(
      mu_, workloads_, key, build, [](Entry<Workload>&) {}, &hit,
      stats_.workload_hits, stats_.workload_misses);
  if (cache_hit != nullptr) *cache_hit = hit && value != nullptr;
  // One OBS_COUNT per name: the macro caches its metric id per call site.
  if (hit)
    OBS_COUNT("store.workload.hits", 1);
  else
    OBS_COUNT("store.workload.misses", 1);
  return value;
}

std::shared_ptr<const selection::SelectionResult> ArtifactStore::result(
    std::uint64_t key, const JobRequest& request, const ResultBuilder& build,
    bool* cache_hit) {
  // Collision guard: an entry whose request is a different computation is
  // served as an uncached miss — the cache must never hand job B job A's
  // bits just because two canonical hashes collided.
  bool collision = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = results_.find(key);
    if (it != results_.end() &&
        !it->second.request.same_computation(request)) {
      collision = true;
      ++stats_.collisions;
      ++stats_.result_misses;
    }
  }
  if (collision) {  // never hold the store lock across a search
    if (cache_hit != nullptr) *cache_hit = false;
    OBS_COUNT("store.result.collisions", 1);
    return build();
  }

  bool hit = false;
  auto value =
      get_or_build<decltype(results_),
                   std::shared_ptr<const selection::SelectionResult>>(
          mu_, results_, key, build,
          [&](ResultEntry& e) { e.request = request; }, &hit,
          stats_.result_hits, stats_.result_misses);
  if (cache_hit != nullptr) *cache_hit = hit && value != nullptr;
  if (hit)
    OBS_COUNT("store.result.hits", 1);
  else
    OBS_COUNT("store.result.misses", 1);
  return value;
}

ArtifactStore::Stats ArtifactStore::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  Stats s = stats_;
  s.workload_entries = 0;
  for (const auto& [k, e] : workloads_)
    if (e.ready) ++s.workload_entries;
  s.result_entries = 0;
  for (const auto& [k, e] : results_)
    if (e.ready) ++s.result_entries;
  return s;
}

void ArtifactStore::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  workloads_.clear();
  results_.clear();
}

}  // namespace tracesel
