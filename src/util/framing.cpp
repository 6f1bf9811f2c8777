#include "util/framing.hpp"

#include <errno.h>
#include <signal.h>
#include <unistd.h>

#include <charconv>
#include <cstring>

#include "util/atomic_file.hpp"

namespace tracesel::util {

void ignore_sigpipe() {
  static const bool installed = [] {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &sa, nullptr);
    return true;
  }();
  (void)installed;
}

namespace {

void put_u32le(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
  out.push_back(static_cast<char>((v >> 16) & 0xFF));
  out.push_back(static_cast<char>((v >> 24) & 0xFF));
}

void put_u64le(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

std::uint32_t get_u32le(const char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

std::uint64_t get_u64le(const char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

}  // namespace

// --- text fields --------------------------------------------------------

std::string_view take_token(std::string_view& text) {
  std::size_t begin = 0;
  while (begin < text.size() && is_space(text[begin])) ++begin;
  std::size_t end = begin;
  while (end < text.size() && !is_space(text[end])) ++end;
  const std::string_view token = text.substr(begin, end - begin);
  text.remove_prefix(end);
  return token;
}

void split_tokens(std::string_view text, std::vector<std::string_view>& out) {
  out.clear();
  for (std::string_view t = take_token(text); !t.empty(); t = take_token(text))
    out.push_back(t);
}

bool take_line(std::string_view& text, std::string_view& line) {
  const std::size_t eol = text.find('\n');
  if (eol == std::string_view::npos) return false;
  line = text.substr(0, eol);
  text.remove_prefix(eol + 1);
  return true;
}

bool parse_u64(std::string_view token, std::uint64_t& out, int base) {
  const char* first = token.data();
  const char* last = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(first, last, out, base);
  return ec == std::errc{} && ptr == last;
}

void append_block(std::string& out, std::string_view name,
                  std::string_view bytes) {
  out += name;
  out += ' ';
  out += std::to_string(bytes.size());
  out += '\n';
  out += bytes;
  out += '\n';
}

bool take_block(std::string_view& text, std::string_view name,
                std::string_view& bytes) {
  std::string_view rest = text;
  std::string_view line;
  if (!take_line(rest, line) || !line.starts_with(name) ||
      line.size() <= name.size() || line[name.size()] != ' ')
    return false;
  std::size_t n = 0;
  if (!parse_number(line.substr(name.size() + 1), n) || n >= rest.size() ||
      rest[n] != '\n')
    return false;
  bytes = rest.substr(0, n);
  text = rest.substr(n + 1);
  return true;
}

std::string encode_frame(std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  out.append(kFrameMagic, sizeof(kFrameMagic));
  put_u32le(out, static_cast<std::uint32_t>(payload.size()));
  put_u64le(out, fnv1a64(payload));
  out.append(payload);
  return out;
}

Status write_frame(int fd, std::string_view payload) {
  if (payload.size() > kMaxFrameBytes) {
    return Error{ErrorCode::kInternal, "write_frame: payload exceeds cap"};
  }
  const std::string frame = encode_frame(payload);
  std::size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n = ::write(fd, frame.data() + off, frame.size() - off);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      const char* what = errno == EPIPE ? "write_frame: peer closed (EPIPE)"
                                        : "write_frame: write failed";
      return Error{ErrorCode::kInternal,
                   std::string(what) + ": " + std::strerror(errno)};
    }
    off += static_cast<std::size_t>(n);
  }
  return Status::success();
}

void FrameReader::feed(std::string_view bytes) {
  buffer_.erase(0, head_);
  head_ = 0;
  buffer_.append(bytes);
}

FrameReader::State FrameReader::next(std::string& payload) {
  if (corrupt_) {
    return State::kCorrupt;
  }
  const std::string_view buffer = std::string_view(buffer_).substr(head_);
  // Validate the magic on whatever prefix has arrived so far: garbage is
  // reported the moment it shows up, not deferred until (and unless) a
  // full header's worth of bytes accumulates.
  const std::size_t have = std::min(buffer.size(), sizeof(kFrameMagic));
  if (std::memcmp(buffer.data(), kFrameMagic, have) != 0) {
    corrupt_ = true;
    corrupt_reason_ = "bad frame magic (stream desynchronized)";
    return State::kCorrupt;
  }
  if (buffer.size() < kFrameHeaderBytes) {
    return State::kNeedMore;
  }
  const std::uint32_t len = get_u32le(buffer.data() + 8);
  if (len > max_frame_bytes_) {
    corrupt_ = true;
    corrupt_reason_ = "frame length exceeds cap (corrupt length field)";
    return State::kCorrupt;
  }
  if (buffer.size() < kFrameHeaderBytes + len) {
    return State::kNeedMore;
  }
  const std::uint64_t want = get_u64le(buffer.data() + 12);
  const std::string_view body(buffer.data() + kFrameHeaderBytes, len);
  if (fnv1a64(body) != want) {
    corrupt_ = true;
    corrupt_reason_ = "frame checksum mismatch";
    return State::kCorrupt;
  }
  payload.assign(body);
  head_ += kFrameHeaderBytes + len;
  return State::kFrame;
}

// --- text envelopes -----------------------------------------------------

std::string encode_envelope(std::string_view tag, std::uint32_t version,
                            std::string_view payload) {
  char hex[17];
  const std::uint64_t checksum = fnv1a64(payload);
  const auto [end, ec] =
      std::to_chars(hex, hex + sizeof(hex), checksum, 16);
  std::string out;
  out.reserve(tag.size() + 32 + payload.size());
  out.append(tag);
  out.push_back(' ');
  out.append(std::to_string(version));
  out.push_back(' ');
  out.append(hex, static_cast<std::size_t>(end - hex));
  out.push_back('\n');
  out.append(payload);
  return out;
}

Result<std::string_view> decode_envelope(std::string_view text,
                                         std::string_view tag,
                                         std::uint32_t version,
                                         std::string_view subject) {
  const auto bad_header = [&] {
    return Result<std::string_view>::err(
        ErrorCode::kParse,
        std::string(subject) + " line 1: bad envelope header");
  };
  std::string_view payload = text;
  std::string_view header;
  if (!take_line(payload, header)) return bad_header();
  // "<tag> <version> <checksum-hex>", exactly three tokens.
  std::uint32_t got_version = 0;
  std::uint64_t checksum = 0;
  if (take_token(header) != tag ||
      !parse_number(take_token(header), got_version) ||
      !parse_number(take_token(header), checksum, 16) ||
      !take_token(header).empty())
    return bad_header();

  if (got_version != version)
    return Result<std::string_view>::err(
        ErrorCode::kParse,
        std::string(subject) + " version " + std::to_string(got_version) +
            " is not supported (expected " + std::to_string(version) + ")");

  if (fnv1a64(payload) != checksum)
    return Result<std::string_view>::err(
        ErrorCode::kCorruptCapture,
        std::string(subject) +
            " checksum mismatch (truncated or corrupted file)");
  return payload;
}

}  // namespace tracesel::util
