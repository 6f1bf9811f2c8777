#pragma once
// Messages and the message catalog.
//
// A message m = <C, w> (paper Sec. 2, "Conventions"): C is the content and
// w = width(m) the number of bits needed to trace it. Messages travel between
// a source IP and a destination IP; that pairing drives the "legal IP pair"
// debugging metric of Sec. 5.6.
//
// Wide messages can declare *subgroups* — named sub-fields that can be traced
// on their own (e.g. in OpenSPARC T2, cputhreadid[6] is a subgroup of
// dmusiidata[20]). Step 3 of the selection method packs subgroups into
// leftover trace-buffer width (Sec. 3.3).

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "flow/types.hpp"

namespace tracesel::flow {

/// A packable sub-field of a wider message.
struct Subgroup {
  std::string name;
  std::uint32_t width = 0;
};

/// An application-level message exchanged between two IPs.
struct Message {
  std::string name;
  std::uint32_t width = 0;  ///< bit-width w of the message content
  std::string source_ip;
  std::string dest_ip;
  std::vector<Subgroup> subgroups;
  /// Beats of a multi-cycle message. Footnote 2 of the paper: for
  /// multi-cycle messages, the number of bits traceable in a single cycle
  /// counts as the message bit width; trace_width() applies that rule.
  std::uint32_t beats = 1;

  /// Buffer bits this message consumes per cycle: ceil(width / beats).
  std::uint32_t trace_width() const {
    return beats <= 1 ? width : (width + beats - 1) / beats;
  }
};

/// Registry of all messages known to a design/testbed. Ids are dense and
/// stable, which lets selection code use bitsets and vectors keyed by id.
class MessageCatalog {
 public:
  /// Registers a message; names must be unique and width nonzero.
  /// Subgroup widths must be strictly smaller than the message width.
  MessageId add(Message message);

  /// Convenience registration without subgroups.
  MessageId add(std::string name, std::uint32_t width, std::string source_ip,
                std::string dest_ip);

  const Message& get(MessageId id) const;
  std::optional<MessageId> find(std::string_view name) const;

  /// Like find(), but throws std::out_of_range with the name in the text.
  MessageId require(std::string_view name) const;

  std::size_t size() const { return messages_.size(); }
  bool empty() const { return messages_.empty(); }

  /// Total bit-width of a set of message ids (Def. 6 of the paper).
  std::uint32_t total_width(const std::vector<MessageId>& ids) const;

  auto begin() const { return messages_.begin(); }
  auto end() const { return messages_.end(); }

 private:
  std::vector<Message> messages_;
  /// name -> id; the keys own their strings, so copies and moves of the
  /// catalog keep a valid index.
  std::map<std::string, MessageId, std::less<>> ids_;
};

}  // namespace tracesel::flow
