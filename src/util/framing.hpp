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
//
// Text fields — every text reader (the .flow parser, the CLI's argv,
// protocol messages, job requests, journal records, telemetry) splits
// tokens, reads integers and takes length-prefixed blocks through the
// helpers below, so one input means one thing wherever it arrives.

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

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

// --- text fields -------------------------------------------------------

/// Whitespace as `operator>>` reads it in the C locale: space, \t, \n,
/// \v, \f and \r.
constexpr bool is_space(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// Removes the first whitespace-delimited token from `text` and returns
/// it as a view; empty once only whitespace is left.
std::string_view take_token(std::string_view& text);

/// Replaces the contents of `out` with the whitespace-delimited tokens of
/// `text`, as views into it. A reused `out` allocates nothing once grown.
void split_tokens(std::string_view text, std::vector<std::string_view>& out);

/// Removes the first line of `text` and points `line` at it, without its
/// '\n'. False, with `text` untouched, when `text` holds no '\n'.
bool take_line(std::string_view& text, std::string_view& line);

/// Parses all of `token` as an unsigned integer in `base`, by
/// std::from_chars rules (no sign, whitespace or radix prefix). False on
/// an empty, partly numeric or out-of-range token.
bool parse_u64(std::string_view token, std::uint64_t& out, int base = 10);

/// The one integer reader: parse_u64 narrowed to T, so a value T cannot
/// hold is rejected, never truncated. A leading '-' is read as a sign
/// only when T is signed; '+' never is.
template <typename T>
bool parse_number(std::string_view token, T& out, int base = 10) {
  static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>);
  const bool negative = std::is_signed_v<T> && token.starts_with('-');
  std::uint64_t magnitude = 0;
  if (!parse_u64(negative ? token.substr(1) : token, magnitude, base))
    return false;
  const auto max = static_cast<std::uint64_t>(std::numeric_limits<T>::max());
  if (!negative) {
    if (magnitude > max) return false;
    out = static_cast<T>(magnitude);
  } else {
    if (magnitude > max + 1) return false;
    // -(magnitude - 1) - 1 stays in range down to T's minimum.
    out = magnitude == 0
              ? T{0}
              : static_cast<T>(-static_cast<T>(magnitude - 1) - T{1});
  }
  return true;
}

/// Appends the block "<name> <size>\n<bytes>\n", which carries bytes that
/// may hold anything (JSON, error text, a nested request).
void append_block(std::string& out, std::string_view name,
                  std::string_view bytes);

/// Takes one block written by append_block from the front of `text` and
/// points `bytes` at its payload (a view into `text`). False, with `text`
/// untouched, when the next block has another name, a malformed size, or
/// fewer bytes than its size promises plus the closing '\n'.
bool take_block(std::string_view& text, std::string_view name,
                std::string_view& bytes);

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
