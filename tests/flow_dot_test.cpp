#include "flow/dot.hpp"

#include <gtest/gtest.h>

#include "testutil.hpp"

namespace tracesel::flow {
namespace {

using test::CoherenceFixture;

class DotTest : public ::testing::Test {
 protected:
  CoherenceFixture fx_;
};

TEST_F(DotTest, FlowDotHasAllStatesAndEdges) {
  const std::string dot = to_dot(fx_.flow_, fx_.catalog);
  EXPECT_NE(dot.find("digraph \"CacheCoherence\""), std::string::npos);
  for (const char* state : {"\"n\"", "\"w\"", "\"c\"", "\"d\""})
    EXPECT_NE(dot.find(state), std::string::npos) << state;
  for (const char* msg : {"\"ReqE\"", "\"GntE\"", "\"Ack\""})
    EXPECT_NE(dot.find(msg), std::string::npos) << msg;
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '\n'),
            2 + 4 + 3 + 1 + 1);  // header(2) + states + edges + braces
}

TEST_F(DotTest, MarksSpecialStates) {
  const std::string dot = to_dot(fx_.flow_, fx_.catalog);
  EXPECT_NE(dot.find("doublecircle"), std::string::npos);  // stop state
  EXPECT_NE(dot.find("fillcolor=lightgray"), std::string::npos);  // atomic
  EXPECT_NE(dot.find("penwidth=2"), std::string::npos);  // initial
}

TEST_F(DotTest, InterleavingDotLabelsIndexedMessages) {
  // Render the product — the paper's Fig. 2 picture.
  const auto u = fx_.two_instance_interleaving();
  const std::string dot = to_dot(u, fx_.catalog);
  EXPECT_NE(dot.find("digraph interleaving"), std::string::npos);
  EXPECT_NE(dot.find("1:ReqE"), std::string::npos);
  EXPECT_NE(dot.find("2:GntE"), std::string::npos);
  // 15 nodes + 18 edges.
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '\n'), 2 + 15 + 18 + 1 + 1);
}

TEST_F(DotTest, EscapesQuotesInNames) {
  MessageCatalog cat;
  const MessageId m = cat.add("weird\"msg", 1, "A", "B");
  FlowBuilder fb("f");
  fb.state("s", FlowBuilder::kInitial)
      .state("t", FlowBuilder::kStop)
      .transition("s", m, "t");
  const Flow f = fb.build(cat);
  const std::string dot = to_dot(f, cat);
  EXPECT_NE(dot.find("weird\\\"msg"), std::string::npos);
}

}  // namespace
}  // namespace tracesel::flow
