#include "flow/parser.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <fstream>

#include "flow/indexed_flow.hpp"
#include "flow/interleaved_flow.hpp"
#include "selection/selector.hpp"
#include "soc/t2_design.hpp"
#include "util/rng.hpp"

namespace tracesel::flow {
namespace {

constexpr const char* kCoherence = R"(
# toy cache coherence (Fig. 1a)
message ReqE 1 IP1 -> Dir
message GntE 1 Dir -> IP1
message Ack  1 IP1 -> Dir

flow CacheCoherence {
  state Init initial
  state Wait
  state GntW atomic
  state Done stop
  Init -> Wait on ReqE
  Wait -> GntW on GntE
  GntW -> Done on Ack
}
)";

TEST(FlowParser, ParsesCoherenceExample) {
  const ParsedSpec spec = parse_flow_spec(kCoherence);
  EXPECT_EQ(spec.catalog.size(), 3u);
  ASSERT_EQ(spec.flows.size(), 1u);
  const Flow& f = spec.flow("CacheCoherence");
  EXPECT_EQ(f.num_states(), 4u);
  EXPECT_EQ(f.transitions().size(), 3u);
  EXPECT_TRUE(f.is_atomic(f.require_state("GntW")));
  EXPECT_TRUE(f.is_stop(f.require_state("Done")));
}

TEST(FlowParser, ParsedFlowReproducesPaperNumbers) {
  const ParsedSpec spec = parse_flow_spec(kCoherence);
  const Flow& f = spec.flow("CacheCoherence");
  const auto u = InterleavedFlow::build(make_instances({&f}, 2));
  EXPECT_EQ(u.num_product_states(), 15u);
  EXPECT_EQ(u.num_product_edges(), 18u);
  const selection::MessageSelector sel(spec.catalog, u);
  selection::SelectorConfig cfg;
  cfg.buffer_width = 2;
  EXPECT_NEAR(sel.select(cfg).gain, 1.073, 5e-4);
}

TEST(FlowParser, CommentsAndBlankLinesIgnored) {
  const ParsedSpec spec = parse_flow_spec(R"(
# leading comment

message a 1 X -> Y   # trailing comment

flow f {
  state s initial    # inline
  state t stop
  s -> t on a
}
)");
  EXPECT_EQ(spec.flows.size(), 1u);
}

TEST(FlowParser, MessageWithBeatsAndSubgroups) {
  const ParsedSpec spec = parse_flow_spec(R"(
message wide 20 A -> B beats 4
subgroup wide tid 6
message narrow 1 B -> A
flow f {
  state s initial
  state t stop
  s -> t on wide
}
)");
  const Message& m = spec.catalog.get(spec.catalog.require("wide"));
  EXPECT_EQ(m.width, 20u);
  EXPECT_EQ(m.beats, 4u);
  EXPECT_EQ(m.trace_width(), 5u);
  ASSERT_EQ(m.subgroups.size(), 1u);
  EXPECT_EQ(m.subgroups[0].name, "tid");
}

TEST(FlowParser, MessagesInsideFlowBlocksAllowed) {
  const ParsedSpec spec = parse_flow_spec(R"(
flow f {
  message a 1 X -> Y
  state s initial
  state t stop
  s -> t on a
}
)");
  EXPECT_EQ(spec.catalog.size(), 1u);
}

TEST(FlowParser, SubgroupBeforeMessageDeclaration) {
  // Two-pass message collection: order independent.
  const ParsedSpec spec = parse_flow_spec(R"(
subgroup wide tid 6
message wide 20 A -> B
message go 1 B -> A
flow f {
  state s initial
  state t stop
  s -> t on go
  s -> t on wide
}
)");
  EXPECT_EQ(spec.catalog.get(spec.catalog.require("wide")).subgroups.size(),
            1u);
}

TEST(FlowParser, MultipleFlowsShareCatalog) {
  const ParsedSpec spec = parse_flow_spec(R"(
message a 1 X -> Y
message b 2 Y -> X
flow f1 {
  state s initial
  state t stop
  s -> t on a
}
flow f2 {
  state s initial
  state t stop
  s -> t on b
}
)");
  EXPECT_EQ(spec.flows.size(), 2u);
  EXPECT_EQ(spec.catalog.size(), 2u);
}

TEST(FlowParser, ErrorsCarryLineNumbers) {
  try {
    parse_flow_spec("message a 1 X -> Y\nbogus line here\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2u);
  }
}

TEST(FlowParser, RejectsMalformedMessage) {
  EXPECT_THROW(parse_flow_spec("message a X -> Y\n"), ParseError);
  EXPECT_THROW(parse_flow_spec("message a 0 X -> Y\n"), ParseError);
  EXPECT_THROW(parse_flow_spec("message a 1 X >> Y\n"), ParseError);
  EXPECT_THROW(parse_flow_spec("message a 1 X -> Y beats zero\n"),
               ParseError);
}

TEST(FlowParser, IntegersAreDecimalDigitsFromOneTo32Bits) {
  // The same integer rule as the wire: no sign, no trailing bytes, in range.
  for (const char* width : {"+5", "-5", "5x", "0x10", "4294967296", "0"})
    EXPECT_THROW(parse_flow_spec("message a " + std::string(width) +
                                 " X -> Y\n"),
                 ParseError)
        << width;
  EXPECT_THROW(parse_flow_spec("message a 1 X -> Y beats +2\n"), ParseError);
  EXPECT_THROW(parse_flow_spec("message a 8 X -> Y\nsubgroup a s +2\n"),
               ParseError);
  const ParsedSpec spec =
      parse_flow_spec("message a 4294967295 X -> Y beats 007\n");
  EXPECT_EQ(spec.catalog.get(*spec.catalog.find("a")).width, 4294967295u);
  EXPECT_EQ(spec.catalog.get(*spec.catalog.find("a")).beats, 7u);
}

TEST(FlowParser, TokensSplitOnTheOperatorShiftWhitespaceSet) {
  // Space, \t, \r, \v and \f separate tokens, as they did for operator>>.
  const ParsedSpec spec = parse_flow_spec(
      "message\ta\v1\fX -> Y\r\nflow f {\r\n state\ts initial\n"
      " state t\vstop\n s -> t\fon a # comment\r\n}\n");
  ASSERT_EQ(spec.flows.size(), 1u);
  EXPECT_EQ(spec.catalog.size(), 1u);
  EXPECT_EQ(spec.catalog.get(*spec.catalog.find("a")).source_ip, "X");
}

TEST(FlowParser, RejectsUnknownMessageInTransition) {
  EXPECT_THROW(parse_flow_spec(R"(
flow f {
  state s initial
  state t stop
  s -> t on ghost
}
)"),
               ParseError);
}

TEST(FlowParser, RejectsUnknownSubgroupParent) {
  EXPECT_THROW(parse_flow_spec("subgroup ghost tid 3\n"), ParseError);
}

TEST(FlowParser, RejectsUnterminatedFlow) {
  EXPECT_THROW(parse_flow_spec("flow f {\n  state s initial\n"), ParseError);
}

TEST(FlowParser, RejectsUnknownStateFlag) {
  EXPECT_THROW(parse_flow_spec(R"(
message a 1 X -> Y
flow f {
  state s initial sticky
  state t stop
  s -> t on a
}
)"),
               ParseError);
}

TEST(FlowParser, SemanticViolationsSurfaceAsParseErrors) {
  // A flow without a stop state fails FlowBuilder validation; the parser
  // wraps it with the flow's line number.
  EXPECT_THROW(parse_flow_spec(R"(
message a 1 X -> Y
flow f {
  state s initial
  state t
  s -> t on a
}
)"),
               ParseError);
}

TEST(FlowParser, UnknownFlowLookupThrows) {
  const ParsedSpec spec = parse_flow_spec(kCoherence);
  EXPECT_THROW(spec.flow("nope"), std::out_of_range);
}

TEST(FlowParser, FileLoaderErrorsOnMissingFile) {
  EXPECT_THROW(parse_flow_spec_file("/nonexistent/x.flow"),
               std::runtime_error);
}

TEST(FlowParser, ErrorsCarryFileNameWhenKnown) {
  try {
    parse_flow_spec("message a 1 X -> Y\nbogus line here\n", "spec.flow");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.file(), "spec.flow");
    EXPECT_EQ(e.line(), 2u);
    EXPECT_EQ(std::string(e.what()).rfind("spec.flow:2: ", 0), 0u)
        << e.what();
  }
}

TEST(FlowParser, FileLoaderPrefixesErrorsWithPath) {
  const std::string path = ::testing::TempDir() + "bad.flow";
  {
    std::ofstream out(path);
    out << "message a 1 X -> Y\nbogus\n";
  }
  try {
    parse_flow_spec_file(path);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.file(), path);
    EXPECT_EQ(e.line(), 2u);
    EXPECT_NE(std::string(e.what()).find(path + ":2: "), std::string::npos);
  }
}

TEST(FlowParser, LenientAccumulatesAllErrors) {
  // Four independent mistakes; strict mode would stop at the first.
  const auto result = parse_flow_spec_lenient(R"(
message a 1 X -> Y
message bad zero X -> Y
subgroup ghost tid 3
flow f {
  state s initial
  state t stop
  s -> t on missing
  s -> t on a
}
bogus trailing line
)",
                                              "multi.flow");
  EXPECT_FALSE(result.ok());
  ASSERT_EQ(result.errors.size(), 4u);
  EXPECT_EQ(result.errors[0].line, 3u);   // bad width
  EXPECT_EQ(result.errors[1].line, 11u);  // bogus top-level line
  EXPECT_EQ(result.errors[2].line, 4u);   // unknown subgroup parent
  EXPECT_EQ(result.errors[3].line, 8u);   // unknown message in transition
  for (const ParseDiagnostic& d : result.errors) {
    EXPECT_EQ(d.file, "multi.flow");
    EXPECT_EQ(d.to_string().rfind("multi.flow:", 0), 0u) << d.to_string();
  }
  // The salvageable parts survive: message 'a' and flow 'f' (built from
  // its two good lines and the one good transition).
  EXPECT_EQ(result.spec.catalog.size(), 1u);
  ASSERT_EQ(result.spec.flows.size(), 1u);
  EXPECT_EQ(result.spec.flows[0].name(), "f");
}

TEST(FlowParser, LenientDropsUnbuildableFlowWithoutCascade) {
  // The flow body is fine line-by-line but has no stop state: exactly one
  // diagnostic (at the flow header), and the flow is dropped.
  const auto result = parse_flow_spec_lenient(R"(
message a 1 X -> Y
flow f {
  state s initial
  state t
  s -> t on a
}
)");
  ASSERT_EQ(result.errors.size(), 1u);
  EXPECT_EQ(result.errors[0].line, 3u);
  EXPECT_TRUE(result.spec.flows.empty());
  EXPECT_EQ(result.spec.catalog.size(), 1u);
}

TEST(FlowParser, LenientCleanInputIsOk) {
  const auto result = parse_flow_spec_lenient(kCoherence);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.spec.flows.size(), 1u);
}

TEST(FlowParser, LenientUnreadableFileIsOneDiagnostic) {
  const auto result = parse_flow_spec_file_lenient("/nonexistent/x.flow");
  ASSERT_EQ(result.errors.size(), 1u);
  EXPECT_EQ(result.errors[0].file, "/nonexistent/x.flow");
  EXPECT_EQ(result.errors[0].line, 0u);
}

TEST(FlowParser, T2CollateralFileMatchesBuiltInDesign) {
  // data/t2.flow mirrors soc::T2Design; parsing it must yield the same
  // catalog widths and flow shapes.
  const ParsedSpec spec = parse_flow_spec_file(TRACESEL_DATA_DIR "/t2.flow");
  const soc::T2Design design;
  EXPECT_EQ(spec.catalog.size(), design.catalog().size());
  for (const Message& m : design.catalog()) {
    const auto id = spec.catalog.find(m.name);
    ASSERT_TRUE(id.has_value()) << m.name;
    const Message& parsed = spec.catalog.get(*id);
    EXPECT_EQ(parsed.width, m.width) << m.name;
    EXPECT_EQ(parsed.source_ip, m.source_ip) << m.name;
    EXPECT_EQ(parsed.dest_ip, m.dest_ip) << m.name;
    EXPECT_EQ(parsed.subgroups.size(), m.subgroups.size()) << m.name;
  }
  ASSERT_EQ(spec.flows.size(), 7u);
  for (const char* name :
       {"PIOR", "PIOW", "NCUU", "NCUD", "Mon", "DMAR", "DMAW"}) {
    const Flow& parsed = spec.flow(name);
    const Flow& built = design.flow_by_name(name);
    EXPECT_EQ(parsed.num_states(), built.num_states()) << name;
    EXPECT_EQ(parsed.transitions().size(), built.transitions().size())
        << name;
    EXPECT_EQ(parsed.atomic_states().size(), built.atomic_states().size())
        << name;
  }
}

class ParserFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzzTest, GarbageNeverCrashesOnlyThrows) {
  // Random token soup from the parser's own vocabulary plus junk: the
  // parser must either produce a spec or throw ParseError/-invalid_argument
  // — never crash, hang, or accept structurally invalid input silently.
  util::Rng rng(GetParam());
  static const char* kTokens[] = {
      "message", "subgroup", "flow",  "state",   "initial", "stop",
      "atomic",  "->",       "on",    "{",       "}",       "beats",
      "a",       "b",        "s0",    "s1",      "12",      "0",
      "#junk",   "xyzzy",    "-3",    "4096",    "A",       "B"};
  std::string text;
  const std::size_t lines = 5 + rng.index(20);
  for (std::size_t l = 0; l < lines; ++l) {
    const std::size_t toks = 1 + rng.index(7);
    for (std::size_t t = 0; t < toks; ++t) {
      text += kTokens[rng.index(std::size(kTokens))];
      text += ' ';
    }
    text += '\n';
  }
  try {
    const ParsedSpec spec = parse_flow_spec(text);
    // If it parsed, the artifacts must be internally consistent.
    for (const Flow& f : spec.flows) {
      EXPECT_FALSE(f.initial_states().empty());
      EXPECT_FALSE(f.stop_states().empty());
    }
  } catch (const ParseError&) {
  } catch (const std::invalid_argument&) {
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTokenSoup, ParserFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 33));

TEST(ParserCapsTest, OverlongLineRejectedWithLineNumber) {
  std::string text = "message Ok 1 A -> B\n";
  text += std::string(65 * 1024, 'x');  // one 65 KiB line
  text += "\nmessage Ok2 1 A -> B\n";
  try {
    parse_flow_spec(text, "caps.flow");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2u);
    EXPECT_EQ(e.file(), "caps.flow");
    EXPECT_NE(e.detail().find("length cap"), std::string::npos);
  }
  // Lenient mode drops the line, stays synchronized and keeps parsing.
  const auto lenient = parse_flow_spec_lenient(text);
  ASSERT_EQ(lenient.errors.size(), 1u);
  EXPECT_EQ(lenient.errors[0].line, 2u);
  EXPECT_EQ(lenient.spec.catalog.size(), 2u);
}

TEST(ParserCapsTest, MessageCountCapReportedOnce) {
  // 65536 messages are accepted; the 65537th (and beyond) trips the cap
  // with exactly one diagnostic instead of 10k repeats.
  std::string text;
  text.reserve(70u << 20 >> 5);
  for (std::size_t i = 0; i < 65536 + 10; ++i)
    text += "message m" + std::to_string(i) + " 1 A -> B\n";
  EXPECT_THROW(parse_flow_spec(text), ParseError);
  const auto lenient = parse_flow_spec_lenient(text);
  ASSERT_EQ(lenient.errors.size(), 1u);
  EXPECT_NE(lenient.errors[0].text.find("message count"), std::string::npos);
  EXPECT_EQ(lenient.spec.catalog.size(), 65536u);
}

TEST(ParserCapsTest, FortyThousandMessagesParseWithinASecond) {
  // The catalog finds names through an index, so a parse is linear in
  // its messages and transitions rather than quadratic.
  constexpr std::size_t kMessages = 40000;
  std::string text;
  for (std::size_t i = 0; i < kMessages; ++i)
    text += "message m" + std::to_string(i) + " 1 A -> B\n";
  text += "flow f {\n  state a initial\n  state b stop\n";
  for (std::size_t i = 0; i < kMessages; i += 1000)
    text += "  a -> b on m" + std::to_string(i) + "\n";
  text += "}\n";
  const auto start = std::chrono::steady_clock::now();
  const ParsedSpec spec = parse_flow_spec(text);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(spec.catalog.size(), kMessages);
  EXPECT_EQ(spec.catalog.require("m39999"), kMessages - 1);
  EXPECT_LT(elapsed, std::chrono::seconds(1));
}

TEST(ParserCapsTest, FlowCountCapConsumesExcessBodies) {
  // 4096 flows parse; flow 4097 is reported once and its body swallowed so
  // the parser stays synchronized for what follows.
  std::string text = "message m 1 A -> B\n";
  for (std::size_t i = 0; i < 4096 + 2; ++i) {
    text += "flow f" + std::to_string(i) +
            " {\n  state a initial\n  state b stop\n  a -> b on m\n}\n";
  }
  text += "message tail 1 A -> B\n";
  EXPECT_THROW(parse_flow_spec(text), ParseError);
  const auto lenient = parse_flow_spec_lenient(text);
  ASSERT_EQ(lenient.errors.size(), 1u);
  EXPECT_NE(lenient.errors[0].text.find("flow count"), std::string::npos);
  EXPECT_EQ(lenient.spec.flows.size(), 4096u);
  EXPECT_TRUE(lenient.spec.catalog.find("tail").has_value());
}

TEST(ParserCapsTest, CancelledTokenAbortsParseWithTypedError) {
  // The poll granule is a few thousand lines, so a large input with a
  // pre-cancelled token must unwind with CancelledError, not finish.
  std::string text;
  for (std::size_t i = 0; i < 20000; ++i)
    text += "message m" + std::to_string(i) + " 1 A -> B\n";
  const util::CancelToken token = util::CancelToken::make();
  token.cancel();
  try {
    parse_flow_spec(text, "", &token);
    FAIL() << "expected CancelledError";
  } catch (const util::CancelledError& e) {
    EXPECT_EQ(e.stage(), "flow.parse");
  }
  // An inert (default) token changes nothing.
  EXPECT_NO_THROW(parse_flow_spec(text, "", nullptr));
}

}  // namespace
}  // namespace tracesel::flow
