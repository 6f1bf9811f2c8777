#include "flow/message.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace tracesel::flow {
namespace {

TEST(MessageCatalog, AddAssignsDenseIds) {
  MessageCatalog c;
  EXPECT_EQ(c.add("a", 1, "X", "Y"), 0u);
  EXPECT_EQ(c.add("b", 2, "X", "Y"), 1u);
  EXPECT_EQ(c.add("c", 3, "X", "Y"), 2u);
  EXPECT_EQ(c.size(), 3u);
}

TEST(MessageCatalog, GetReturnsStoredMessage) {
  MessageCatalog c;
  const MessageId id = c.add("piowcrd", 4, "SIU", "NCU");
  const Message& m = c.get(id);
  EXPECT_EQ(m.name, "piowcrd");
  EXPECT_EQ(m.width, 4u);
  EXPECT_EQ(m.source_ip, "SIU");
  EXPECT_EQ(m.dest_ip, "NCU");
}

TEST(MessageCatalog, FindByName) {
  MessageCatalog c;
  c.add("a", 1, "X", "Y");
  const MessageId b = c.add("b", 2, "X", "Y");
  EXPECT_EQ(c.find("b"), std::optional<MessageId>(b));
  EXPECT_FALSE(c.find("nope").has_value());
}

TEST(MessageCatalog, RequireThrowsOnUnknownName) {
  MessageCatalog c;
  c.add("a", 1, "X", "Y");
  EXPECT_EQ(c.require("a"), 0u);
  EXPECT_THROW(c.require("missing"), std::out_of_range);
}

TEST(MessageCatalog, RejectsDuplicateName) {
  MessageCatalog c;
  c.add("a", 1, "X", "Y");
  EXPECT_THROW(c.add("a", 2, "X", "Y"), std::invalid_argument);
}

TEST(MessageCatalog, ErrorTextsNameTheMessageAndLeaveTheCatalogAlone) {
  MessageCatalog c;
  c.add("a", 1, "X", "Y");
  const auto text_of = [](const auto& call) {
    try {
      call();
    } catch (const std::exception& e) {
      return std::string(e.what());
    }
    return std::string("no throw");
  };
  EXPECT_EQ(text_of([&] { c.add("a", 2, "X", "Y"); }),
            "MessageCatalog: duplicate message 'a'");
  EXPECT_EQ(text_of([&] { c.add("", 2, "X", "Y"); }),
            "MessageCatalog: empty message name");
  EXPECT_EQ(text_of([&] { c.require("missing"); }),
            "MessageCatalog: unknown message 'missing'");
  EXPECT_EQ(c.size(), 1u);
  EXPECT_EQ(c.find("a"), std::optional<MessageId>(0));
  EXPECT_EQ(c.get(0).width, 1u);
}

TEST(MessageCatalog, CopiesAndMovesKeepTheirNameIndex) {
  std::optional<MessageCatalog> original(std::in_place);
  original->add("alpha", 1, "X", "Y");
  original->add("beta", 2, "X", "Y");
  MessageCatalog copy = *original;
  MessageCatalog moved = std::move(*original);
  original.reset();
  for (const MessageCatalog* c : {&copy, &moved}) {
    EXPECT_EQ(c->find("alpha"), std::optional<MessageId>(0));
    EXPECT_EQ(c->find("beta"), std::optional<MessageId>(1));
    EXPECT_FALSE(c->find("gamma").has_value());
  }
  EXPECT_EQ(copy.add("gamma", 3, "X", "Y"), 2u);
  EXPECT_FALSE(moved.find("gamma").has_value());
  EXPECT_THROW(moved.add("beta", 3, "X", "Y"), std::invalid_argument);
}

TEST(MessageCatalog, RejectsZeroWidth) {
  MessageCatalog c;
  EXPECT_THROW(c.add("z", 0, "X", "Y"), std::invalid_argument);
}

TEST(MessageCatalog, RejectsEmptyName) {
  MessageCatalog c;
  EXPECT_THROW(c.add("", 1, "X", "Y"), std::invalid_argument);
}

TEST(MessageCatalog, GetThrowsOnBadId) {
  MessageCatalog c;
  EXPECT_THROW(c.get(0), std::out_of_range);
}

TEST(MessageCatalog, SubgroupMustBeNarrowerThanParent) {
  MessageCatalog c;
  Message wide{"dmusiidata", 20, "DMU", "SIU",
               {Subgroup{"cputhreadid", 6}}};
  EXPECT_NO_THROW(c.add(wide));

  Message bad{"other", 8, "A", "B", {Subgroup{"full", 8}}};
  EXPECT_THROW(c.add(bad), std::invalid_argument);

  Message zero{"other2", 8, "A", "B", {Subgroup{"zero", 0}}};
  EXPECT_THROW(c.add(zero), std::invalid_argument);

  Message unnamed{"other3", 8, "A", "B", {Subgroup{"", 2}}};
  EXPECT_THROW(c.add(unnamed), std::invalid_argument);
}

TEST(MessageCatalog, TotalWidthSumsMembers) {
  MessageCatalog c;
  const MessageId a = c.add("a", 3, "X", "Y");
  const MessageId b = c.add("b", 5, "X", "Y");
  const MessageId d = c.add("d", 20, "X", "Y");
  EXPECT_EQ(c.total_width({a, b}), 8u);
  EXPECT_EQ(c.total_width({a, b, d}), 28u);
  EXPECT_EQ(c.total_width({}), 0u);
}

TEST(MessageCatalog, IterationVisitsAllMessagesInOrder) {
  MessageCatalog c;
  c.add("a", 1, "X", "Y");
  c.add("b", 2, "X", "Y");
  std::vector<std::string> names;
  for (const Message& m : c) names.push_back(m.name);
  EXPECT_EQ(names, (std::vector<std::string>{"a", "b"}));
}

}  // namespace
}  // namespace tracesel::flow
