#include "flow/message.hpp"

#include <stdexcept>

namespace tracesel::flow {

MessageId MessageCatalog::add(Message message) {
  if (message.name.empty())
    throw std::invalid_argument("MessageCatalog: empty message name");
  if (message.width == 0)
    throw std::invalid_argument("MessageCatalog: zero-width message '" +
                                message.name + "'");
  if (message.beats == 0)
    throw std::invalid_argument("MessageCatalog: zero-beat message '" +
                                message.name + "'");
  if (find(message.name))
    throw std::invalid_argument("MessageCatalog: duplicate message '" +
                                message.name + "'");
  for (const Subgroup& sg : message.subgroups) {
    if (sg.name.empty())
      throw std::invalid_argument("MessageCatalog: unnamed subgroup of '" +
                                  message.name + "'");
    if (sg.width == 0 || sg.width >= message.width)
      throw std::invalid_argument(
          "MessageCatalog: subgroup '" + sg.name + "' of '" + message.name +
          "' must be narrower than its parent and nonzero");
  }
  const auto id = static_cast<MessageId>(messages_.size());
  ids_.emplace(message.name, id);
  messages_.push_back(std::move(message));
  return id;
}

MessageId MessageCatalog::add(std::string name, std::uint32_t width,
                              std::string source_ip, std::string dest_ip) {
  return add(Message{std::move(name), width, std::move(source_ip),
                     std::move(dest_ip), {}});
}

const Message& MessageCatalog::get(MessageId id) const {
  if (id >= messages_.size())
    throw std::out_of_range("MessageCatalog: bad message id");
  return messages_[id];
}

std::optional<MessageId> MessageCatalog::find(std::string_view name) const {
  const auto it = ids_.find(name);
  if (it == ids_.end()) return std::nullopt;
  return it->second;
}

MessageId MessageCatalog::require(std::string_view name) const {
  if (auto id = find(name)) return *id;
  throw std::out_of_range("MessageCatalog: unknown message '" +
                          std::string(name) + "'");
}

std::uint32_t MessageCatalog::total_width(
    const std::vector<MessageId>& ids) const {
  std::uint32_t total = 0;
  for (MessageId id : ids) total += get(id).trace_width();
  return total;
}

}  // namespace tracesel::flow
