#include "tracesel/artifact_store.hpp"

#include <algorithm>

#include "tracesel/query_core.hpp"
#include "util/obs.hpp"

namespace tracesel {

std::shared_ptr<const Workload> ArtifactStore::workload(
    std::uint64_t key, const WorkloadBuilder& build, bool* cache_hit) {
  const auto find = [&] {
    return std::find_if(workloads_.begin(), workloads_.end(),
                        [&](const auto& e) { return e.first == key; });
  };
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (const auto it = find(); it != workloads_.end()) {
      ++stats_.workload_hits;
      if (cache_hit != nullptr) *cache_hit = true;
      OBS_COUNT("store.workload.hits", 1);
      return it->second;
    }
    ++stats_.workload_misses;
  }
  if (cache_hit != nullptr) *cache_hit = false;
  OBS_COUNT("store.workload.misses", 1);

  // Never hold the lock across a build: it may take seconds.
  std::shared_ptr<const Workload> value = build();
  std::lock_guard<std::mutex> lk(mu_);
  if (const auto it = find(); it != workloads_.end()) return it->second;
  workloads_.emplace_back(key, value);
  if (workloads_.size() > kMaxWorkloads) workloads_.pop_front();
  return value;
}

ArtifactStore::Stats ArtifactStore::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  Stats s = stats_;
  s.workload_entries = workloads_.size();
  return s;
}

}  // namespace tracesel
