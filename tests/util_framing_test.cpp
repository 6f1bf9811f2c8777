// util/framing: the one codec every tracesel byte stream speaks — binary
// length-prefixed frames (the traceseld socket and job journal) and
// versioned checksummed text envelopes (job requests, stored results) —
// plus the FrameReader state machine under partial feeds and corruption.

#include "util/framing.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <string>
#include <vector>

namespace tracesel::util {
namespace {

TEST(Framing, RoundTripsOneFrame) {
  const std::string payload = "hello, frames";
  FrameReader reader;
  reader.feed(encode_frame(payload));
  std::string out;
  EXPECT_EQ(reader.next(out), FrameReader::State::kFrame);
  EXPECT_EQ(out, payload);
  EXPECT_EQ(reader.next(out), FrameReader::State::kNeedMore);
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(Framing, RoundTripsEmptyAndBinaryPayloads) {
  FrameReader reader;
  const std::string binary("\x00\x01\xffpayload\n\r\x7f", 12);
  reader.feed(encode_frame(""));
  reader.feed(encode_frame(binary));
  std::string out;
  ASSERT_EQ(reader.next(out), FrameReader::State::kFrame);
  EXPECT_TRUE(out.empty());
  ASSERT_EQ(reader.next(out), FrameReader::State::kFrame);
  EXPECT_EQ(out, binary);
}

TEST(Framing, ReassemblesByteByByte) {
  const std::string payload(1000, 'x');
  const std::string wire = encode_frame(payload);
  FrameReader reader;
  std::string out;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    reader.feed(&wire[i], 1);
    ASSERT_EQ(reader.next(out), FrameReader::State::kNeedMore);
  }
  reader.feed(&wire[wire.size() - 1], 1);
  ASSERT_EQ(reader.next(out), FrameReader::State::kFrame);
  EXPECT_EQ(out, payload);
}

TEST(Framing, DrainsMultipleFramesFromOneFeed) {
  FrameReader reader;
  reader.feed(encode_frame("a") + encode_frame("bb") + encode_frame("ccc"));
  std::string out;
  ASSERT_EQ(reader.next(out), FrameReader::State::kFrame);
  EXPECT_EQ(out, "a");
  ASSERT_EQ(reader.next(out), FrameReader::State::kFrame);
  EXPECT_EQ(out, "bb");
  ASSERT_EQ(reader.next(out), FrameReader::State::kFrame);
  EXPECT_EQ(out, "ccc");
  EXPECT_EQ(reader.next(out), FrameReader::State::kNeedMore);
}

TEST(Framing, FeedAfterAPartialDrainKeepsOrderAndCount) {
  // Consumed frames are dropped lazily; buffered() and the next frame must
  // not see them, whether the reader is drained between feeds or not.
  const std::string wire =
      encode_frame("first") + encode_frame("second") + encode_frame("third");
  const std::size_t cut = wire.size() - 3;
  FrameReader reader;
  reader.feed(std::string_view(wire).substr(0, cut));
  std::string out;
  ASSERT_EQ(reader.next(out), FrameReader::State::kFrame);
  EXPECT_EQ(out, "first");
  EXPECT_EQ(reader.buffered(), cut - encode_frame("first").size());
  ASSERT_EQ(reader.next(out), FrameReader::State::kFrame);
  EXPECT_EQ(out, "second");
  EXPECT_EQ(reader.next(out), FrameReader::State::kNeedMore);
  EXPECT_EQ(reader.buffered(), encode_frame("third").size() - 3);
  reader.feed(std::string_view(wire).substr(cut));
  EXPECT_EQ(reader.buffered(), encode_frame("third").size());
  ASSERT_EQ(reader.next(out), FrameReader::State::kFrame);
  EXPECT_EQ(out, "third");
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(Framing, BadMagicPoisonsTheStream) {
  FrameReader reader;
  std::string wire = encode_frame("payload");
  wire[0] = 'X';
  reader.feed(wire);
  std::string out;
  EXPECT_EQ(reader.next(out), FrameReader::State::kCorrupt);
  EXPECT_FALSE(reader.corrupt_reason().empty());
  // Poisoned forever: even a pristine frame afterwards stays corrupt.
  reader.feed(encode_frame("fine"));
  EXPECT_EQ(reader.next(out), FrameReader::State::kCorrupt);
}

TEST(Framing, ChecksumMismatchIsCorrupt) {
  std::string wire = encode_frame("payload");
  wire[wire.size() - 1] ^= 0x01;  // flip a payload bit, keep the length
  FrameReader reader;
  reader.feed(wire);
  std::string out;
  EXPECT_EQ(reader.next(out), FrameReader::State::kCorrupt);
}

TEST(Framing, OversizedLengthIsCorruptNotAllocated) {
  // A reader with a small cap must reject a frame whose header claims more
  // than the cap — that is a corrupted length field, not a real message.
  FrameReader reader(/*max_frame_bytes=*/16);
  reader.feed(encode_frame(std::string(64, 'x')));
  std::string out;
  EXPECT_EQ(reader.next(out), FrameReader::State::kCorrupt);
}

TEST(Envelope, RoundTrips) {
  const std::string payload = "line one\nline two\n";
  const std::string text = encode_envelope("tracesel-job", 3, payload);
  const auto decoded = decode_envelope(text, "tracesel-job", 3, "job");
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), payload);
}

TEST(Envelope, RejectsWrongTagVersionAndChecksum) {
  const std::string text = encode_envelope("tracesel-job", 3, "payload");

  const auto wrong_tag = decode_envelope(text, "tracesel-ck", 3, "job");
  ASSERT_FALSE(wrong_tag.ok());
  EXPECT_EQ(wrong_tag.error().code, ErrorCode::kParse);

  const auto wrong_version = decode_envelope(text, "tracesel-job", 4, "job");
  ASSERT_FALSE(wrong_version.ok());
  EXPECT_EQ(wrong_version.error().code, ErrorCode::kParse);

  std::string flipped = text;
  flipped[flipped.size() - 2] ^= 0x01;
  const auto bad_sum = decode_envelope(flipped, "tracesel-job", 3, "job");
  ASSERT_FALSE(bad_sum.ok());
  EXPECT_EQ(bad_sum.error().code, ErrorCode::kCorruptCapture);
}

TEST(Envelope, RejectsGarbageHeader) {
  const auto r = decode_envelope("not an envelope", "tracesel-job", 1, "job");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kParse);
}

// --- FrameReader ---------------------------------------------------------

TEST(FrameReaderTest, ByteAtATimeFeedStillDecodes) {
  const std::string wire = encode_frame("abc") + encode_frame("");
  FrameReader reader;
  std::string payload;
  std::vector<std::string> frames;
  for (char c : wire) {
    reader.feed(&c, 1);
    while (reader.next(payload) == FrameReader::State::kFrame)
      frames.push_back(payload);
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0], "abc");
  EXPECT_EQ(frames[1], "");
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(FrameReaderTest, ChecksumMismatchPoisonsForever) {
  std::string wire = encode_frame("payload bytes");
  wire.back() ^= 0x01;  // flip one payload bit
  FrameReader reader;
  reader.feed(wire);
  std::string payload;
  EXPECT_EQ(reader.next(payload), FrameReader::State::kCorrupt);
  EXPECT_FALSE(reader.corrupt_reason().empty());
  // Poisoned: even a pristine follow-up frame is rejected.
  reader.feed(encode_frame("fine"));
  EXPECT_EQ(reader.next(payload), FrameReader::State::kCorrupt);
}

TEST(FrameReaderTest, BadMagicIsCorrupt) {
  std::string wire = encode_frame("x");
  wire[0] = 'Z';
  FrameReader reader;
  reader.feed(wire);
  std::string payload;
  EXPECT_EQ(reader.next(payload), FrameReader::State::kCorrupt);
}

TEST(FrameReaderTest, GarbageShorterThanHeaderIsCorruptImmediately) {
  // A bad magic must be detected on the prefix that has arrived, not
  // deferred until a full header accumulates (it never would: this is
  // what a human typing at a worker's stdin looks like).
  FrameReader reader;
  reader.feed("not a frame at all\n");
  std::string payload;
  EXPECT_EQ(reader.next(payload), FrameReader::State::kCorrupt);
}

TEST(FrameReaderTest, OversizedLengthIsCorruptNotAllocation) {
  std::string wire = encode_frame("x");
  // Length field (little-endian u32 at offset 8): claim ~4 GiB.
  wire[8] = wire[9] = wire[10] = wire[11] = '\xff';
  FrameReader reader;
  reader.feed(wire);
  std::string payload;
  EXPECT_EQ(reader.next(payload), FrameReader::State::kCorrupt);
}

TEST(FrameReaderTest, NeedMoreUntilPayloadComplete) {
  const std::string wire = encode_frame("0123456789");
  FrameReader reader;
  std::string payload;
  reader.feed(wire.substr(0, kFrameHeaderBytes + 4));
  EXPECT_EQ(reader.next(payload), FrameReader::State::kNeedMore);
  reader.feed(wire.substr(kFrameHeaderBytes + 4));
  EXPECT_EQ(reader.next(payload), FrameReader::State::kFrame);
  EXPECT_EQ(payload, "0123456789");
}

// --- integer fields -----------------------------------------------------

TEST(Framing, ParseU64AcceptsWholeUnsignedTokensOnly) {
  std::uint64_t v = 0;
  EXPECT_TRUE(parse_u64("0", v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(parse_u64("18446744073709551615", v));
  EXPECT_EQ(v, UINT64_MAX);
  EXPECT_TRUE(parse_u64("00042", v));
  EXPECT_EQ(v, 42u);
  EXPECT_TRUE(parse_u64("ffffffffffffffff", v, 16));
  EXPECT_EQ(v, UINT64_MAX);
  EXPECT_TRUE(parse_u64("DeadBeef", v, 16));
  EXPECT_EQ(v, 0xDEADBEEFu);
  for (const char* bad : {"", "18446744073709551616", "-1", "+1", " 1", "1 ",
                          "12a", "0x10", "1.5"})
    EXPECT_FALSE(parse_u64(bad, v)) << "'" << bad << "'";
  EXPECT_FALSE(parse_u64("10000000000000000", v, 16));
  EXPECT_FALSE(parse_u64("g", v, 16));
}

TEST(Framing, ParseNumberRejectsWhatTheTargetCannotHold) {
  std::uint32_t u32 = 7;
  EXPECT_TRUE(parse_number("4294967295", u32));
  EXPECT_EQ(u32, UINT32_MAX);
  for (const char* bad : {"4294967296", "99999999999", "-1", "+5", "32x",
                          "1e30", ""})
    EXPECT_FALSE(parse_number(bad, u32)) << "'" << bad << "'";
  EXPECT_EQ(u32, UINT32_MAX);  // a rejected token leaves the field as it was

  std::int64_t i64 = 0;
  EXPECT_TRUE(parse_number("-9223372036854775808", i64));
  EXPECT_EQ(i64, INT64_MIN);
  EXPECT_TRUE(parse_number("9223372036854775807", i64));
  EXPECT_EQ(i64, INT64_MAX);
  EXPECT_FALSE(parse_number("9223372036854775808", i64));
  EXPECT_FALSE(parse_number("-9223372036854775809", i64));
  EXPECT_FALSE(parse_number("+1", i64));
  EXPECT_FALSE(parse_number("--1", i64));

  std::uint64_t hex = 0;
  EXPECT_TRUE(parse_number("feedbeef", hex, 16));
  EXPECT_EQ(hex, 0xfeedbeefu);
}

// --- tokens, lines and blocks ---------------------------------------------

TEST(Framing, TokensSplitOnOperatorShiftWhitespace) {
  std::vector<std::string_view> tokens{"stale"};
  split_tokens(" a\tb\r\vc\fd\n  e ", tokens);
  EXPECT_EQ(tokens, (std::vector<std::string_view>{"a", "b", "c", "d", "e"}));
  split_tokens(" \t\r ", tokens);
  EXPECT_TRUE(tokens.empty());

  std::string_view rest = "  first second\tthird";
  EXPECT_EQ(take_token(rest), "first");
  EXPECT_EQ(rest, " second\tthird");
  EXPECT_EQ(take_token(rest), "second");
  EXPECT_EQ(take_token(rest), "third");
  EXPECT_EQ(take_token(rest), "");
  EXPECT_TRUE(rest.empty());
}

TEST(Framing, TakeLineNeedsItsNewline) {
  std::string_view text = "one\n\ntwo";
  std::string_view line;
  ASSERT_TRUE(take_line(text, line));
  EXPECT_EQ(line, "one");
  ASSERT_TRUE(take_line(text, line));
  EXPECT_EQ(line, "");
  EXPECT_FALSE(take_line(text, line));
  EXPECT_EQ(text, "two");
}

TEST(Framing, BlocksRoundTripAnyBytes) {
  std::string out;
  append_block(out, "report", std::string("a\nb\0c", 5));
  append_block(out, "empty", "");
  EXPECT_EQ(out, std::string("report 5\na\nb\0c\nempty 0\n\n", 24));
  std::string_view text = out;
  std::string_view bytes;
  ASSERT_TRUE(take_block(text, "report", bytes));
  EXPECT_EQ(bytes, std::string_view("a\nb\0c", 5));
  ASSERT_TRUE(take_block(text, "empty", bytes));
  EXPECT_EQ(bytes, "");
  EXPECT_TRUE(text.empty());
}

TEST(Framing, TakeBlockLeavesTheTextUntouchedOnFailure) {
  for (const char* bad :
       {"other 3\nabc\n", "report 3\nabc", "report 3\nabcd\n",
        "report 4\nabc\n", "report +3\nabc\n", "report 3x\nabc\n",
        "report\nabc\n", "report3\nabc\n", "report 3"}) {
    std::string_view text = bad;
    std::string_view bytes = "kept";
    EXPECT_FALSE(take_block(text, "report", bytes)) << bad;
    EXPECT_EQ(text, bad);
    EXPECT_EQ(bytes, "kept");
  }
}

// --- SIGPIPE ------------------------------------------------------------

TEST(Framing, WriteToClosedPipeIsEpipeNotSigpipe) {
  ignore_sigpipe();
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ::close(fds[0]);  // the reader is gone
  const Status st = write_frame(fds[1], "payload");
  EXPECT_FALSE(st.ok());  // EPIPE surfaced as a typed error, process alive
  ::close(fds[1]);
}

}  // namespace
}  // namespace tracesel::util
