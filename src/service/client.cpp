#include "service/client.hpp"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "util/framing.hpp"

namespace tracesel::service {

namespace {

constexpr int kPollMs = 100;

/// Sleeps `delay` in kPollMs slices so a local cancel interrupts the wait.
/// Returns false when cancelled.
bool sleep_unless_cancelled(std::chrono::milliseconds delay,
                            const util::CancelToken& cancel) {
  auto remaining = delay;
  while (remaining.count() > 0) {
    if (cancel.cancelled()) return false;
    const auto slice =
        std::min(remaining, std::chrono::milliseconds(kPollMs));
    std::this_thread::sleep_for(slice);
    remaining -= slice;
  }
  return !cancel.cancelled();
}

}  // namespace

Client::~Client() { close(); }

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      reader_(std::move(other.reader_)),
      socket_path_(std::move(other.socket_path_)) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    reader_ = std::move(other.reader_);
    socket_path_ = std::move(other.socket_path_);
  }
  return *this;
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

util::Result<Client> Client::connect(const std::string& socket_path) {
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path))
    return util::Result<Client>::err(
        util::ErrorCode::kInvalidArgument,
        "socket path '" + socket_path + "' exceeds the sun_path limit");
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size());

  util::ignore_sigpipe();
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0)
    return util::Result<Client>::err(
        util::ErrorCode::kInternal,
        std::string("socket failed: ") + std::strerror(errno));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    return util::Result<Client>::err(
        util::ErrorCode::kInvalidArgument,
        "cannot reach traceseld at " + socket_path + ": " +
            std::strerror(err) + " (is the daemon running?)");
  }
  Client c;
  c.fd_ = fd;
  c.socket_path_ = socket_path;
  return c;
}

util::Result<Client> Client::connect(const std::string& socket_path,
                                     const ConnectOptions& options) {
  // A fresh FrameReader per attempt comes for free: connect() builds a
  // new Client, so no stale bytes from a dead daemon survive a retry.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options.timeout_ms);
  util::Backoff backoff(options.backoff);
  for (;;) {
    auto c = connect(socket_path);
    if (c.ok()) return c;
    // Path-too-long cannot heal by waiting; everything else (absent
    // socket, connection refused during a restart window) can.
    if (c.error().message.find("sun_path") != std::string::npos) return c;
    if (options.timeout_ms == 0) return c;
    if (options.cancel.cancelled() ||
        std::chrono::steady_clock::now() >= deadline)
      return c;
    if (!sleep_unless_cancelled(backoff.next(), options.cancel)) return c;
  }
}

util::Status Client::send_payload(const std::string& payload) {
  if (fd_ < 0)
    return util::Error{util::ErrorCode::kInvalidArgument, "not connected"};
  return util::write_frame(fd_, payload);
}

util::Result<Message> Client::next_message(const util::CancelToken* cancel,
                                           bool* sent_cancel) {
  using R = util::Result<Message>;
  char buf[4096];
  std::string payload;
  for (;;) {
    // Drain frames already buffered before touching the socket.
    const auto st = reader_.next(payload);
    if (st == util::FrameReader::State::kFrame) {
      auto msg = parse_message(payload);
      if (!msg.ok()) return msg.error();
      return std::move(msg).value();
    }
    if (st == util::FrameReader::State::kCorrupt)
      return R::err(util::ErrorCode::kCorruptCapture,
                    "traceseld stream corrupt: " + reader_.corrupt_reason());

    // Relay a local cancellation once, then keep waiting: the server's
    // result frame is the authoritative outcome of the cancelled job.
    if (cancel && sent_cancel && !*sent_cancel && cancel->cancelled()) {
      *sent_cancel = true;
      auto ws = send_payload(encode_simple(MessageType::kCancel));
      if (!ws.ok()) return ws.error();
    }

    pollfd pfd{fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, kPollMs);
    if (pr < 0) {
      if (errno == EINTR) continue;
      return R::err(util::ErrorCode::kInternal,
                    std::string("poll failed: ") + std::strerror(errno));
    }
    if (pr == 0) continue;
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      return R::err(util::ErrorCode::kInternal,
                    std::string("read failed: ") + std::strerror(errno));
    }
    if (n == 0)
      return R::err(util::ErrorCode::kInternal,
                    "traceseld closed the connection");
    reader_.feed(buf, static_cast<std::size_t>(n));
  }
}

util::Result<JobOutcome> Client::submit(const JobRequest& request,
                                        util::CancelToken cancel,
                                        const EventFn& on_event,
                                        RetryAfter* retry_after) {
  auto ws = send_payload(encode_submit(request));
  if (!ws.ok()) return ws.error();
  bool sent_cancel = false;
  for (;;) {
    auto msg = next_message(&cancel, &sent_cancel);
    if (!msg.ok()) return msg.error();
    Message& m = msg.value();
    switch (m.type) {
      case MessageType::kEvent:
        if (on_event) on_event(m.text, m.position);
        break;
      case MessageType::kResult:
        return std::move(m.outcome);
      case MessageType::kError:
        return util::Result<JobOutcome>::err(util::ErrorCode::kInvalidArgument,
                                             "traceseld rejected the job: " +
                                                 m.text);
      case MessageType::kRetryAfter:
        if (retry_after) {
          retry_after->hinted = true;
          retry_after->ms = m.retry_after_ms;
          retry_after->reason = m.text;
        }
        return util::Result<JobOutcome>::err(
            util::ErrorCode::kResourceExhausted,
            "traceseld shed the job: " + m.text + " (retry after ~" +
                std::to_string(m.retry_after_ms) + "ms)");
      case MessageType::kOk:
        break;  // ack of our cancel frame
      default:
        return util::Result<JobOutcome>::err(
            util::ErrorCode::kParse, "unexpected reply while awaiting result");
    }
  }
}

util::Result<JobOutcome> Client::submit_resilient(const JobRequest& request,
                                                  const SubmitOptions& options,
                                                  util::CancelToken cancel,
                                                  const EventFn& on_event) {
  using R = util::Result<JobOutcome>;
  util::Backoff backoff(options.backoff);
  const std::size_t attempts = std::max<std::size_t>(1, options.max_attempts);
  util::Error last{util::ErrorCode::kInternal, "submit never attempted"};
  for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
    if (cancel.cancelled())
      return R::err(util::ErrorCode::kCancelled,
                    "cancelled while retrying submit");
    if (!connected()) {
      ConnectOptions co;
      co.timeout_ms = options.connect_timeout_ms;
      co.backoff = options.backoff;
      co.cancel = cancel;
      auto c = connect(socket_path_, co);
      if (!c.ok()) {
        last = c.error();
        if (cancel.cancelled()) break;
        if (!sleep_unless_cancelled(backoff.next(), cancel)) break;
        continue;
      }
      *this = std::move(c).value();
    }
    RetryAfter ra;
    auto out = submit(request, cancel, on_event, &ra);
    if (out.ok()) return out;
    last = out.error();
    if (last.code == util::ErrorCode::kInvalidArgument ||
        last.code == util::ErrorCode::kCancelled)
      return out;  // a real rejection (or our own cancel): retrying is futile
    if (ra.hinted) {
      // Admission-control shed: sleep the server's hint (it knows the
      // backlog better than our local schedule does), then resubmit.
      const auto wait = std::chrono::milliseconds(
          options.honor_retry_after
              ? std::min(ra.ms, options.retry_after_cap_ms)
              : backoff.next().count());
      if (!sleep_unless_cancelled(wait, cancel)) break;
      continue;
    }
    // Connection-level failure (daemon died / restarting): drop the dead
    // socket and its half-read frames, back off, reconnect, resubmit. The
    // resubmission is idempotent — the restarted daemon attaches us to the
    // recovered job or serves the durable result.
    close();
    reader_ = util::FrameReader();
    if (!sleep_unless_cancelled(backoff.next(), cancel)) break;
  }
  if (cancel.cancelled() && last.code != util::ErrorCode::kCancelled)
    return R::err(util::ErrorCode::kCancelled,
                  "cancelled while retrying submit (last error: " +
                      last.to_string() + ")");
  return R::err(util::ErrorCode::kExhaustedRetries,
                "submit failed after " + std::to_string(attempts) +
                    " attempt(s): " + last.to_string());
}

util::Result<std::string> Client::stats() {
  auto ws = send_payload(encode_simple(MessageType::kStats));
  if (!ws.ok()) return ws.error();
  auto msg = next_message(nullptr, nullptr);
  if (!msg.ok()) return msg.error();
  if (msg.value().type == MessageType::kError)
    return util::Result<std::string>::err(util::ErrorCode::kInternal,
                                          msg.value().text);
  if (msg.value().type != MessageType::kStatsResult)
    return util::Result<std::string>::err(
        util::ErrorCode::kParse, "unexpected reply to stats request");
  return std::move(msg.value().text);
}

util::Result<std::string> Client::telemetry() {
  auto ws = send_payload(encode_simple(MessageType::kTelemetry));
  if (!ws.ok()) return ws.error();
  auto msg = next_message(nullptr, nullptr);
  if (!msg.ok()) return msg.error();
  if (msg.value().type == MessageType::kError)
    return util::Result<std::string>::err(util::ErrorCode::kInternal,
                                          msg.value().text);
  if (msg.value().type != MessageType::kTelemetryResult)
    return util::Result<std::string>::err(
        util::ErrorCode::kParse, "unexpected reply to telemetry request");
  return std::move(msg.value().text);
}

util::Status Client::ping() {
  auto ws = send_payload(encode_simple(MessageType::kPing));
  if (!ws.ok()) return ws;
  auto msg = next_message(nullptr, nullptr);
  if (!msg.ok()) return msg.error();
  if (msg.value().type != MessageType::kPong)
    return util::Error{util::ErrorCode::kParse, "unexpected reply to ping"};
  return util::Status::success();
}

util::Status Client::stop() {
  auto ws = send_payload(encode_simple(MessageType::kStop));
  if (!ws.ok()) return ws;
  auto msg = next_message(nullptr, nullptr);
  if (!msg.ok()) return msg.error();
  if (msg.value().type == MessageType::kError)
    return util::Error{util::ErrorCode::kInternal, msg.value().text};
  if (msg.value().type != MessageType::kOk)
    return util::Error{util::ErrorCode::kParse, "unexpected reply to stop"};
  return util::Status::success();
}

}  // namespace tracesel::service
