#pragma once
// tracesel::service protocol — the wire format of the traceseld daemon
// (docs/service.md).
//
// Transport: length-prefixed binary frames (util/framing.hpp — the
// "TSELFRM1" + u32 length + FNV-1a checksum format the job journal also
// uses) over a Unix domain socket. Every frame payload is a
// self-describing text message whose first line is
//
//     tracesel-svc <verb> <version>
//
// in the style of the util/framing text envelopes. Client verbs:
// submit (a serialized tracesel::JobRequest follows), cancel, stats,
// telemetry (the live introspection surface: journal, slow jobs, queue
// gauges), stop, ping. Server verbs: event (job lifecycle:
// queued/started), result (the job outcome with length-prefixed
// error/metrics/report/telemetry blocks), stats, telemetry-result, pong,
// ok, error.
//
// The report block of a result is selection::to_json(...).dump(2) — the
// exact bytes `tracesel select --json` prints — so a daemon answer can be
// diffed against the single-process CLI byte for byte (the acceptance
// check of PR 7, exercised by the CI daemon smoke step).

#include <cstdint>
#include <string>
#include <string_view>

#include "tracesel/job_request.hpp"
#include "util/result.hpp"

namespace tracesel::service {

inline constexpr std::uint32_t kProtocolVersion = 1;
/// First-line prefix of every protocol payload.
inline constexpr char kProtocolTag[] = "tracesel-svc";

enum class MessageType {
  // client -> server
  kSubmit,
  kCancel,
  kStats,
  kTelemetry,
  kStop,
  kPing,
  // server -> client
  kEvent,
  kResult,
  kStatsResult,
  kTelemetryResult,
  kPong,
  kOk,
  kError,
  /// Typed backpressure: the submission was shed (queue full, tenant cap,
  /// unmeetable deadline) and the server suggests retrying after a hint
  /// derived from current queue depth and utilization. Unlike kError, the
  /// client is expected to resubmit — idempotently, by canonical job hash.
  kRetryAfter,
};

std::string_view to_string(MessageType type);

/// The outcome of one job as carried by a result frame.
struct JobOutcome {
  /// "ok" | "partial" (deadline/budget stopped the search) | "cancelled"
  /// (the client asked) | "error".
  std::string status = "ok";
  bool cache_hit = false;           ///< served from the result index
  bool workload_cache_hit = false;  ///< workload was shared
  std::uint64_t job_id = 0;
  std::uint64_t elapsed_ms = 0;
  std::string error;         ///< non-empty iff status == "error"
  std::string metrics_json;  ///< per-job obs counter deltas (may be empty)
  std::string report_json;   ///< selection::to_json(...).dump(2) bytes
  /// obs::serialize_telemetry of the daemon's per-job spans + counter
  /// deltas, when the request carried a trace context (else empty). The
  /// client adopts it to merge the daemon lane into its own trace.
  std::string telemetry;

  bool ok() const { return status == "ok"; }
};

/// A decoded protocol message; which fields are meaningful depends on
/// `type` (request: kSubmit; outcome: kResult; text: kEvent status /
/// kError message / kStatsResult JSON; position: kEvent queue position).
struct Message {
  MessageType type = MessageType::kPing;
  JobRequest request;
  JobOutcome outcome;
  std::string text;
  std::uint64_t position = 0;
  /// kRetryAfter only: the server-computed backoff hint in milliseconds.
  std::uint64_t retry_after_ms = 0;
};

// --- encoders (frame payloads; wrap with util::encode_frame to send) ---
std::string encode_submit(const JobRequest& request);
/// cancel / stats / stop / ping / pong / ok — verbs with no body.
std::string encode_simple(MessageType type);
std::string encode_event(std::string_view status, std::uint64_t position);
std::string encode_result(const JobOutcome& outcome);
std::string encode_stats_result(std::string_view stats_json);
std::string encode_telemetry_result(std::string_view telemetry_json);
std::string encode_error(std::string_view message);
/// Admission-control shed: "come back in about `retry_after_ms` ms".
std::string encode_retry_after(std::uint64_t retry_after_ms,
                               std::string_view reason);

/// Decodes one frame payload. Typed errors on unknown verbs, version
/// mismatches and malformed bodies — a daemon must reject, never crash.
util::Result<Message> parse_message(std::string_view payload);

}  // namespace tracesel::service
