#include "epicast/net/message.hpp"

namespace epicast {

const char* to_string(MessageClass c) {
  switch (c) {
    case MessageClass::Event: return "event";
    case MessageClass::Control: return "control";
    case MessageClass::GossipDigest: return "gossip-digest";
    case MessageClass::GossipRequest: return "gossip-request";
    case MessageClass::GossipReply: return "gossip-reply";
  }
  return "?";
}

const char* to_string(SizingMode m) {
  switch (m) {
    case SizingMode::Nominal: return "nominal";
    case SizingMode::Wire: return "wire";
  }
  return "?";
}

}  // namespace epicast
