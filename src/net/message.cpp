#include "epicast/net/message.hpp"

#include <cstdio>
#include <cstdlib>
#include <string_view>

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

SizingMode sizing_mode_from_env(const char* value) {
  const std::string_view v = value != nullptr ? value : "";
  if (v.empty()) return SizingMode::Nominal;
  if (v == "wire") return SizingMode::Wire;
  std::fprintf(stderr,
               "EPICAST_SIZING: unknown value '%s' (expected wire, or unset "
               "for nominal)\n",
               value);
  std::abort();
}

SizingMode default_sizing_mode() {
  static const SizingMode mode =
      sizing_mode_from_env(std::getenv("EPICAST_SIZING"));
  return mode;
}

}  // namespace epicast
