#pragma once
// The one framing codec every tracesel byte stream speaks (DESIGN.md §13,
// §16). Two layers, independently usable:
//
// Binary frames — pipes and sockets are byte streams, so messages are
// delimited by a fixed 20-byte header: 8-byte magic "TSELFRM1",
// little-endian u32 payload length, little-endian u64 FNV-1a checksum of
// the payload. The checksum catches payload corruption inside an intact
// frame; a bad magic or an over-cap length means stream
// desynchronization, which FrameReader reports as kCorrupt —
// unrecoverable for that stream (peers respond by dropping the
// connection). Used by the traceseld Unix-socket protocol
// (service/protocol.hpp) and its job journal (service/journal.hpp).
//
// Text envelopes — durable artifacts (job requests, stored results,
// telemetry snapshots) are text prefixed by one header line
//
//     <tag> <version> <fnv1a64-of-payload-in-hex>\n<payload>
//
// so version skew and payload corruption surface as typed parse errors
// before any field is interpreted, and every envelope user validates
// identically.

#include <cstdint>
#include <string>
#include <string_view>

#include "util/result.hpp"

namespace tracesel::util {

// --- binary length-prefixed frames -------------------------------------

inline constexpr char kFrameMagic[8] = {'T', 'S', 'E', 'L',
                                        'F', 'R', 'M', '1'};
inline constexpr std::size_t kFrameHeaderBytes = 8 + 4 + 8;
/// Frames carry request/report-sized payloads; anything larger is a
/// corrupted length field, not a legitimate message.
inline constexpr std::size_t kMaxFrameBytes = 64u << 20;

/// Header + payload as one contiguous buffer.
std::string encode_frame(std::string_view payload);

/// encode_frame + a full blocking write on a raw fd (EINTR retried; EPIPE
/// reported as a typed error, never a signal — see ignore_sigpipe).
Status write_frame(int fd, std::string_view payload);

/// Ignores SIGPIPE process-wide (idempotent), so a write to a vanished
/// peer surfaces as EPIPE instead of killing the process.
void ignore_sigpipe();

/// Incremental decoder: feed() raw bytes as they arrive, then drain
/// complete frames with next(). Once a frame fails validation the stream
/// is poisoned (kCorrupt forever) — framing cannot resynchronize.
class FrameReader {
 public:
  enum class State { kFrame, kNeedMore, kCorrupt };

  explicit FrameReader(std::size_t max_frame_bytes = kMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  void feed(const char* data, std::size_t n) { feed(std::string_view(data, n)); }
  void feed(std::string_view bytes);

  /// Extracts the next complete frame's payload into `payload`.
  State next(std::string& payload);

  /// Human-readable reason after kCorrupt.
  const std::string& corrupt_reason() const { return corrupt_reason_; }

  /// Bytes buffered but not yet consumed (diagnostics).
  std::size_t buffered() const { return buffer_.size() - head_; }

 private:
  std::size_t max_frame_bytes_ = kMaxFrameBytes;
  std::string buffer_;
  /// Bytes of buffer_ already consumed. next() only advances it, and
  /// feed() drops that prefix, so draining many frames from one large
  /// feed is linear rather than one erase per frame.
  std::size_t head_ = 0;
  bool corrupt_ = false;
  std::string corrupt_reason_;
};

// --- integer fields ------------------------------------------------------

/// Parses all of `token` as an unsigned integer in `base`, by
/// std::from_chars rules (no sign, whitespace or radix prefix). False on
/// an empty, partly numeric or out-of-range token. Every text format in
/// the repository (frame headers, envelopes, journal records, protocol
/// and job-request fields, telemetry) reads its integers through it.
bool parse_u64(std::string_view token, std::uint64_t& out, int base = 10);

// --- versioned, checksummed text envelopes -----------------------------

/// "<tag> <version> <checksum-hex>\n" + payload.
std::string encode_envelope(std::string_view tag, std::uint32_t version,
                            std::string_view payload);

/// Validates the header line and checksum and returns a view of the
/// payload (into `text`). `subject` names the artifact in diagnostics
/// ("job request", "stored result", ...). Errors: kParse for a malformed
/// header or an unsupported version, kCorruptCapture for a checksum
/// mismatch.
Result<std::string_view> decode_envelope(std::string_view text,
                                         std::string_view tag,
                                         std::uint32_t version,
                                         std::string_view subject);

}  // namespace tracesel::util
