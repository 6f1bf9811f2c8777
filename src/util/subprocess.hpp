#pragma once
// Child-process plumbing: fork/exec with stdin/stdout pipes.
//
// Subprocess wraps fork/exec with explicit lifecycle control: a parent
// can kill a hung child outright (SIGKILL, never cooperative — the child
// may be wedged), reap every child it spawned (no zombies, even when the
// parent unwinds via an exception: the destructor kills and reaps), and
// survive a child dying mid-write (SIGPIPE is turned into an EPIPE error return by
// ignore_sigpipe(), which spawn() installs process-wide).
//
// The byte framing the coordinator/worker pipes speak lives in
// util/framing.hpp (shared with the traceseld socket protocol); it is
// re-exported here because every subprocess peer needs it.

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/framing.hpp"
#include "util/result.hpp"

namespace tracesel::util {

/// Installs SIG_IGN for SIGPIPE (idempotent, first call wins) so a write
/// to a dead peer fails with EPIPE instead of killing the process.
void ignore_sigpipe();

class Subprocess {
 public:
  Subprocess() = default;
  Subprocess(const Subprocess&) = delete;
  Subprocess& operator=(const Subprocess&) = delete;
  Subprocess(Subprocess&& other) noexcept { *this = std::move(other); }
  Subprocess& operator=(Subprocess&& other) noexcept;
  /// Kills (SIGKILL) and reaps the child if it is still running — a
  /// coordinator unwinding through an exception leaves no zombies behind.
  ~Subprocess();

  /// fork/exec of argv (argv[0] resolved via PATH when it has no slash),
  /// with pipes on the child's stdin/stdout; stderr is inherited so
  /// worker diagnostics reach the operator. The parent's read end is
  /// non-blocking (poll-driven); the write end stays blocking. exec
  /// failure inside the child exits 127, observed by the caller as an
  /// immediate child death.
  static Result<Subprocess> spawn(const std::vector<std::string>& argv);

  bool valid() const { return pid_ > 0; }
  pid_t pid() const { return pid_; }
  int stdin_fd() const { return stdin_fd_; }
  int stdout_fd() const { return stdout_fd_; }

  /// Blocking write of the whole buffer (EINTR retried). A typed error on
  /// EPIPE (peer died) or any other write failure.
  Status write_all(std::string_view bytes) const;

  void close_stdin();

  /// SIGKILL; the caller still must wait()/try_wait() to reap.
  void kill_hard() const;

  /// Non-blocking reap. True when the child has exited (code: exit status,
  /// or 128+signal for a signalled death); false while still running.
  bool try_wait(int* code);

  /// Blocking reap; idempotent (returns the cached code after the first).
  int wait();

 private:
  void close_fds();

  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  int stdout_fd_ = -1;
  bool reaped_ = false;
  int exit_code_ = -1;
};

}  // namespace tracesel::util
