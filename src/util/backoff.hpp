#pragma once
// Exponential backoff with seeded jitter.
//
// Every retry loop in the pipeline — recapturing an unusable trace,
// reconnecting to a restarting daemon, honouring its retry-after hints —
// needs spacing between attempts that (a) grows exponentially so
// a persistent failure backs off instead of busy-spinning, (b) is jittered
// so a fleet of retriers does not stampede in lockstep, and (c) is
// *deterministic given a seed*, because the whole repository's testing
// story is bit-reproducibility: a seeded fault schedule must produce the
// same delays on every run.
//
// A Backoff is a small value type: next() returns the delay to wait before
// the upcoming attempt (attempt 0 -> initial_ms scaled by jitter, then
// doubling — or whatever `multiplier` says — up to cap_ms). Jitter draws
// from a private Rng stream seeded with (policy.seed, stream), so two
// retriers with different stream ids (e.g. work-unit ids) decorrelate while
// staying reproducible.

#include <chrono>
#include <cstdint>

#include "util/rng.hpp"

namespace tracesel::util {

/// The shape of a retry schedule. Defaults suit in-process retries; the
/// distributed coordinator overrides them per deployment.
struct BackoffPolicy {
  std::uint32_t initial_ms = 10;  ///< base delay before the first retry
  double multiplier = 2.0;        ///< growth factor per attempt
  std::uint32_t cap_ms = 2000;    ///< ceiling for the (pre-jitter) delay
  /// Fraction of the base delay randomized: the returned delay is uniform
  /// in [base*(1-jitter), base*(1+jitter)], clamped to cap_ms. 0 disables.
  double jitter = 0.25;
  std::uint64_t seed = 1;  ///< jitter stream seed (deterministic schedules)
};

class Backoff {
 public:
  /// `stream` decorrelates independent retriers sharing one policy (the
  /// distributed coordinator passes the work-unit id).
  explicit Backoff(BackoffPolicy policy = {}, std::uint64_t stream = 0)
      : policy_(policy), stream_(stream), rng_(mix(policy.seed, stream)) {}

  /// Delay before the next attempt; advances the schedule.
  std::chrono::milliseconds next();

  /// Restarts the schedule (attempt counter and jitter stream).
  void reset() {
    attempt_ = 0;
    rng_ = Rng(mix(policy_.seed, stream_));
  }

  /// Attempts scheduled so far (== next() calls since construction/reset).
  std::uint32_t attempts() const { return attempt_; }

  const BackoffPolicy& policy() const { return policy_; }

 private:
  static std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
    // splitmix-style avalanche so (seed, stream) and (seed, stream+1)
    // produce unrelated Rng states.
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  BackoffPolicy policy_;
  std::uint64_t stream_ = 0;
  Rng rng_;
  std::uint32_t attempt_ = 0;
};

}  // namespace tracesel::util
