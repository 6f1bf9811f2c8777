#pragma once
// Cooperative cancellation and deadlines for long-running pipeline stages
// (DESIGN.md §11). A selection job on a production-scale spec runs for
// hours; operator interrupts, node preemption and per-request deadlines
// must stop it cleanly — never a crash, never a hang, and with the best
// partial answer found so far preserved.
//
// Design constraints, in order:
//
//  1. Cooperative. Nothing is ever killed: hot loops poll cancelled() at
//     natural granule boundaries (a product node, a batch of enumerated or
//     scored combinations, a Monte-Carlo trial) and unwind with a typed partial outcome. The
//     poll is one relaxed atomic load (plus a steady_clock read when a
//     deadline is armed), cheap against any granule that does real work.
//
//  2. Signal-safe. cancel() performs a single lock-free atomic store, so a
//     SIGINT/SIGTERM handler may call it directly on a pre-created token.
//
//  3. Inert by default. A default-constructed token has no shared state
//     and can never report cancellation, so plumbing a CancelToken through
//     every SelectorConfig costs nothing to callers that never use it.
//
// Tokens are value types sharing state: copies observe (and may request)
// the same cancellation. Stages that cannot return a partial result
// (parsing, building the interleaving) throw CancelledError instead; the
// daemon and the CLI translate it into a typed util::Result error or the
// distinct "interrupted" exit code.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

namespace tracesel::util {

/// Thrown by stages that cannot carry a partial result when cancellation
/// is observed mid-construction (flow parse, interleave build). Stages
/// that *can* degrade (Step 1/2 search, Monte-Carlo) return a partial
/// outcome instead of throwing.
class CancelledError : public std::runtime_error {
 public:
  explicit CancelledError(const std::string& stage)
      : std::runtime_error("cancelled: " + stage), stage_(stage) {}
  const std::string& stage() const { return stage_; }

 private:
  std::string stage_;
};

class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;

  /// Inert token: valid() is false and cancelled() can never become true.
  CancelToken() = default;

  /// A live token with fresh shared state, not cancelled, no deadline.
  static CancelToken make() {
    CancelToken t;
    t.state_ = std::make_shared<State>();
    return t;
  }

  /// A live token that auto-cancels once `timeout` has elapsed.
  static CancelToken after(std::chrono::nanoseconds timeout) {
    CancelToken t = make();
    t.set_deadline(Clock::now() + timeout);
    return t;
  }

  bool valid() const { return state_ != nullptr; }

  /// Requests cancellation. Idempotent and async-signal-safe (one
  /// lock-free atomic store); a no-op on an inert token.
  void cancel() const {
    if (state_) state_->cancelled.store(true, std::memory_order_relaxed);
  }

  /// Arms (or replaces) the deadline; reaching it makes cancelled() true.
  void set_deadline(Clock::time_point deadline) const {
    if (state_)
      state_->deadline_ns.store(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              deadline.time_since_epoch())
              .count(),
          std::memory_order_relaxed);
  }
  void set_timeout(std::chrono::nanoseconds timeout) const {
    set_deadline(Clock::now() + timeout);
  }
  /// A deadline `ms` milliseconds away, as a request or the CLI gives it:
  /// 0, or a count too large for the clock to hold, arms none.
  void set_timeout_ms(std::uint64_t ms) const {
    using std::chrono::milliseconds;
    constexpr milliseconds kMax =
        std::chrono::duration_cast<milliseconds>(Clock::duration::max()) / 2;
    if (ms > 0 && ms <= static_cast<std::uint64_t>(kMax.count()))
      set_timeout(milliseconds(static_cast<milliseconds::rep>(ms)));
  }

  /// True iff cancel() was called (deadline expiry not considered).
  bool cancel_requested() const {
    return state_ && state_->cancelled.load(std::memory_order_relaxed);
  }

  /// The cooperative poll: cancel() was called or the deadline passed.
  /// Deadline expiry latches the flag so later polls skip the clock read.
  bool cancelled() const {
    if (state_ == nullptr) return false;
    if (state_->cancelled.load(std::memory_order_relaxed)) return true;
    const std::int64_t d = state_->deadline_ns.load(std::memory_order_relaxed);
    if (d != 0 &&
        Clock::now().time_since_epoch() >= std::chrono::nanoseconds(d)) {
      state_->cancelled.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

 private:
  struct State {
    std::atomic<bool> cancelled{false};
    /// Steady-clock deadline in ns since clock epoch; 0 = no deadline.
    std::atomic<std::int64_t> deadline_ns{0};
  };

  std::shared_ptr<State> state_;
};

}  // namespace tracesel::util
