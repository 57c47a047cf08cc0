// Wire codec property tests: every message kind survives a
// decode(encode(m)) round trip with its semantic fields intact, the
// arithmetic size calculation is pinned to the serializer, and malformed
// frames — truncations, corrupt headers, overlong varints, hostile counts,
// arbitrary byte mutations — are rejected with a typed error, never a crash
// (the suite runs under ASan/UBSan in CI). Also pins the EPICAST_SIZING
// spellings that select the sizing mode.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "epicast/common/rng.hpp"
#include "epicast/gossip/messages.hpp"
#include "epicast/pubsub/messages.hpp"
#include "epicast/wire/codec.hpp"

namespace epicast {
namespace {

using wire::Codec;
using wire::Decoded;
using wire::DecodeError;
using wire::FrameKind;
using wire::WireBuffer;

EventPtr make_event(std::uint32_t source, std::uint64_t seq,
                    std::vector<PatternSeq> patterns,
                    std::size_t payload_bytes = 200,
                    double published_s = 1.25) {
  return std::make_shared<EventData>(EventId{NodeId{source}, seq},
                                     std::move(patterns), payload_bytes,
                                     SimTime::seconds(published_s));
}

std::vector<std::uint8_t> encode_one(const Message& msg) {
  WireBuffer buf;
  Codec::encode(msg, buf);
  return {buf.bytes().begin(), buf.bytes().end()};
}

/// Encodes, decodes, and hands back the decoded message after checking the
/// frame-level invariants every kind shares.
MessagePtr round_trip(const Message& msg) {
  const std::vector<std::uint8_t> frame = encode_one(msg);
  EXPECT_EQ(frame.size(), Codec::encoded_size(msg))
      << "encoded_size must be pinned to encode()";
  EXPECT_EQ(frame.size(), msg.wire_size_bytes());
  const Decoded d = Codec::decode(frame);
  EXPECT_TRUE(d.ok()) << "decode failed: " << to_string(d.error());
  if (!d.ok()) return nullptr;
  EXPECT_EQ(Codec::kind_of(*d.message()), Codec::kind_of(msg));
  EXPECT_EQ(d.message()->message_class(), msg.message_class());
  return d.message();
}

std::vector<LostEntryInfo> some_losses() {
  return {{NodeId{3}, Pattern{7}, SeqNo{41}},
          {NodeId{3}, Pattern{7}, SeqNo{99}},
          {NodeId{250}, Pattern{69}, SeqNo{0}},
          {NodeId{1u << 20}, Pattern{0}, SeqNo{1u << 30}}};
}

// -- round trips, one per frame kind ------------------------------------------

TEST(WireRoundTrip, EventMessage) {
  const EventPtr ev = make_event(
      9, 1234567,
      {{Pattern{2}, SeqNo{10}}, {Pattern{5}, SeqNo{77}}, {Pattern{64}, SeqNo{3}}});
  const EventMessage msg(ev, {NodeId{9}, NodeId{4}, NodeId{17}});
  const MessagePtr out = round_trip(msg);
  ASSERT_NE(out, nullptr);
  const auto& m = static_cast<const EventMessage&>(*out);
  EXPECT_EQ(m.event()->id(), ev->id());
  EXPECT_EQ(m.event()->patterns(), ev->patterns());
  EXPECT_EQ(m.event()->payload_bytes(), ev->payload_bytes());
  EXPECT_EQ(m.event()->published_at(), ev->published_at());
  EXPECT_EQ(m.route(), msg.route());
}

TEST(WireRoundTrip, EventMessageEmptyRoute) {
  const EventMessage msg(make_event(0, 0, {{Pattern{0}, SeqNo{0}}}, 0, 0.0),
                         {});
  const MessagePtr out = round_trip(msg);
  ASSERT_NE(out, nullptr);
  EXPECT_TRUE(static_cast<const EventMessage&>(*out).route().empty());
}

TEST(WireRoundTrip, SubscribeMessage) {
  for (const bool subscribe : {true, false}) {
    const SubscribeMessage msg(Pattern{68}, subscribe);
    const MessagePtr out = round_trip(msg);
    ASSERT_NE(out, nullptr);
    const auto& m = static_cast<const SubscribeMessage&>(*out);
    EXPECT_EQ(m.pattern(), msg.pattern());
    EXPECT_EQ(m.is_subscribe(), subscribe);
  }
}

// Satellite pin: the exact bytes of a SubscribeMessage frame. The live
// subscribe path (a restarted daemon re-announcing its subscriptions over
// the wire) depends on this framing staying stable across versions.
TEST(WireRoundTrip, SubscribeMessageFramingIsPinned) {
  const SubscribeMessage sub(Pattern{5}, /*subscribe=*/true);
  const std::vector<std::uint8_t> expected = {
      0x04, 0x00, 0x00, 0x00,  // len = 4 (ver + kind + pattern + flag)
      0x01,                    // version
      0x01,                    // kind = Subscribe
      0x05,                    // pattern 5 (varint)
      0x01,                    // subscribe flag
  };
  EXPECT_EQ(encode_one(sub), expected);

  const SubscribeMessage unsub(Pattern{5}, /*subscribe=*/false);
  std::vector<std::uint8_t> expected_unsub = expected;
  expected_unsub.back() = 0x00;
  EXPECT_EQ(encode_one(unsub), expected_unsub);
}

TEST(WireRoundTrip, Heartbeat) {
  for (const std::uint64_t incarnation : {std::uint64_t{1}, std::uint64_t{7},
                                          std::uint64_t{1} << 40}) {
    const HeartbeatMessage msg(incarnation);
    const MessagePtr out = round_trip(msg);
    ASSERT_NE(out, nullptr);
    const auto& m = static_cast<const HeartbeatMessage&>(*out);
    EXPECT_EQ(m.incarnation(), incarnation);
    EXPECT_TRUE(m.marks().empty());
    EXPECT_EQ(m.message_class(), MessageClass::Control);
  }
}

TEST(WireRoundTrip, HeartbeatCarriesStreamMarks) {
  const std::vector<StreamMark> marks = {
      {NodeId{3}, Pattern{0}, SeqNo{42}},
      {NodeId{200}, Pattern{15}, SeqNo{std::uint64_t{1} << 33}},
  };
  const HeartbeatMessage msg(/*incarnation=*/2, marks);
  const MessagePtr out = round_trip(msg);
  ASSERT_NE(out, nullptr);
  const auto& m = static_cast<const HeartbeatMessage&>(*out);
  EXPECT_EQ(m.incarnation(), 2u);
  EXPECT_EQ(m.marks(), marks);
}

TEST(WireRoundTrip, PushDigest) {
  const PushDigestMessage msg(
      NodeId{12}, /*nominal_bytes=*/100, Pattern{33},
      {{NodeId{1}, 5}, {NodeId{1}, 6}, {NodeId{200}, 1u << 24}}, /*hops=*/2);
  const MessagePtr out = round_trip(msg);
  ASSERT_NE(out, nullptr);
  const auto& m = static_cast<const PushDigestMessage&>(*out);
  EXPECT_EQ(m.gossiper(), msg.gossiper());
  EXPECT_EQ(m.pattern(), msg.pattern());
  EXPECT_EQ(m.ids(), msg.ids());
  EXPECT_EQ(m.hops(), msg.hops());
}

TEST(WireRoundTrip, SubscriberPullDigest) {
  const SubscriberPullDigestMessage msg(NodeId{4}, 100, Pattern{7},
                                        some_losses(), /*hops=*/5);
  const MessagePtr out = round_trip(msg);
  ASSERT_NE(out, nullptr);
  const auto& m = static_cast<const SubscriberPullDigestMessage&>(*out);
  EXPECT_EQ(m.gossiper(), msg.gossiper());
  EXPECT_EQ(m.pattern(), msg.pattern());
  EXPECT_EQ(m.wanted(), msg.wanted());
  EXPECT_EQ(m.hops(), msg.hops());
}

TEST(WireRoundTrip, PublisherPullDigest) {
  const PublisherPullDigestMessage msg(NodeId{4}, 100, NodeId{77},
                                       some_losses(),
                                       {NodeId{5}, NodeId{6}, NodeId{77}});
  const MessagePtr out = round_trip(msg);
  ASSERT_NE(out, nullptr);
  const auto& m = static_cast<const PublisherPullDigestMessage&>(*out);
  EXPECT_EQ(m.gossiper(), msg.gossiper());
  EXPECT_EQ(m.source(), msg.source());
  EXPECT_EQ(m.wanted(), msg.wanted());
  EXPECT_EQ(m.route(), msg.route());
}

TEST(WireRoundTrip, RandomPullDigest) {
  const RandomPullDigestMessage msg(NodeId{4}, 100, some_losses(), /*hops=*/1);
  const MessagePtr out = round_trip(msg);
  ASSERT_NE(out, nullptr);
  const auto& m = static_cast<const RandomPullDigestMessage&>(*out);
  EXPECT_EQ(m.gossiper(), msg.gossiper());
  EXPECT_EQ(m.wanted(), msg.wanted());
  EXPECT_EQ(m.hops(), msg.hops());
}

TEST(WireRoundTrip, RecoveryRequest) {
  const RecoveryRequestMessage msg(NodeId{19}, 100,
                                   {{NodeId{2}, 9}, {NodeId{3}, 0}});
  const MessagePtr out = round_trip(msg);
  ASSERT_NE(out, nullptr);
  const auto& m = static_cast<const RecoveryRequestMessage&>(*out);
  EXPECT_EQ(m.gossiper(), msg.gossiper());
  EXPECT_EQ(m.ids(), msg.ids());
}

TEST(WireRoundTrip, RecoveryReply) {
  const RecoveryReplyMessage msg(
      NodeId{19}, 100,
      {make_event(2, 9, {{Pattern{1}, SeqNo{4}}}),
       make_event(3, 0, {{Pattern{0}, SeqNo{1}}, {Pattern{68}, SeqNo{2}}}, 64)});
  const MessagePtr out = round_trip(msg);
  ASSERT_NE(out, nullptr);
  const auto& m = static_cast<const RecoveryReplyMessage&>(*out);
  EXPECT_EQ(m.gossiper(), msg.gossiper());
  ASSERT_EQ(m.events().size(), msg.events().size());
  for (std::size_t i = 0; i < m.events().size(); ++i) {
    EXPECT_EQ(m.events()[i]->id(), msg.events()[i]->id());
    EXPECT_EQ(m.events()[i]->patterns(), msg.events()[i]->patterns());
    EXPECT_EQ(m.events()[i]->payload_bytes(), msg.events()[i]->payload_bytes());
  }
}

// -- frame- and buffer-level properties ---------------------------------------

TEST(WireCodec, EncodeIsDeterministicAndBufferAppends) {
  const RecoveryRequestMessage msg(NodeId{1}, 100, {{NodeId{2}, 9}});
  const std::vector<std::uint8_t> once = encode_one(msg);

  // Re-encoding into a cleared buffer reproduces the bytes; encoding twice
  // without clearing concatenates two identical frames (batching contract).
  WireBuffer buf;
  Codec::encode(msg, buf);
  buf.clear();
  Codec::encode(msg, buf);
  Codec::encode(msg, buf);
  ASSERT_EQ(buf.size(), 2 * once.size());
  const auto bytes = buf.bytes();
  for (std::size_t i = 0; i < once.size(); ++i) {
    EXPECT_EQ(bytes[i], once[i]);
    EXPECT_EQ(bytes[once.size() + i], once[i]);
  }
}

TEST(WireCodec, EventFrameChargesPayloadBytes) {
  // The paper's event size is dominated by payload; the wire frame must
  // carry it, not just the header fields (DESIGN.md "Wire format"). 300 vs
  // 500 keeps the payload-size varint at two bytes in both frames.
  const EventMessage small(make_event(1, 1, {{Pattern{1}, SeqNo{1}}}, 300), {});
  const EventMessage large(make_event(1, 1, {{Pattern{1}, SeqNo{1}}}, 500), {});
  EXPECT_EQ(Codec::encoded_size(large), Codec::encoded_size(small) + 200);
}

TEST(WireCodec, DecodedGossipMessageReportsFrameSizeAsNominal) {
  const PushDigestMessage msg(NodeId{12}, /*nominal_bytes=*/100, Pattern{3},
                              {{NodeId{1}, 5}}, 0);
  const std::vector<std::uint8_t> frame = encode_one(msg);
  const Decoded d = Codec::decode(frame);
  ASSERT_TRUE(d.ok());
  // The configured nominal size (100) is not carried on the wire; a decoded
  // message's size is its true frame size in both sizing modes.
  EXPECT_EQ(d.message()->size_bytes(), frame.size());
  EXPECT_EQ(d.message()->wire_size_bytes(), frame.size());
}

TEST(WireCodec, ForeignMessageSubclassFallsBackToNominalSize) {
  // Message types the codec has no frame for (the pure-gossip comparator,
  // test doubles) must keep working under SizingMode::Wire: their wire size
  // is their nominal size, and try_kind_of reports them as non-encodable.
  class Foreign final : public Message {
   public:
    MessageClass message_class() const override { return MessageClass::Event; }
    std::size_t size_bytes() const override { return 123; }
  };
  const Foreign msg;
  EXPECT_EQ(Codec::try_kind_of(msg), std::nullopt);
  EXPECT_EQ(Codec::encoded_size(msg), 123u);
  EXPECT_EQ(msg.wire_size_bytes(), 123u);
  EXPECT_EQ(sized_bytes(msg, SizingMode::Wire), 123u);
  EXPECT_EQ(sized_bytes(msg, SizingMode::Nominal), 123u);
}

TEST(WireCodec, WireSizeIsCachedPerMessage) {
  const SubscribeMessage msg(Pattern{5}, true);
  const std::size_t first = msg.wire_size_bytes();
  EXPECT_EQ(first, msg.wire_size_bytes());
  EXPECT_EQ(first, Codec::encoded_size(msg));
}

// -- malformed frames ---------------------------------------------------------

std::vector<std::uint8_t> valid_reply_frame() {
  const RecoveryReplyMessage msg(
      NodeId{19}, 100,
      {make_event(2, 9, {{Pattern{1}, SeqNo{4}}}, 32),
       make_event(3, 1, {{Pattern{2}, SeqNo{1}}, {Pattern{68}, SeqNo{2}}}, 48)});
  return encode_one(msg);
}

TEST(WireMalformed, EveryTruncationOfAValidFrameIsRejected) {
  const std::vector<std::uint8_t> frame = valid_reply_frame();
  ASSERT_GE(frame.size(), 64u) << "need 64+ prefixes for coverage";
  for (std::size_t n = 0; n < frame.size(); ++n) {
    const Decoded d =
        Codec::decode(std::span<const std::uint8_t>(frame.data(), n));
    EXPECT_FALSE(d.ok()) << "prefix of " << n << " bytes decoded";
    if (n < Codec::kHeaderBytes) {
      EXPECT_EQ(d.error(), DecodeError::TruncatedHeader) << "prefix " << n;
    } else {
      EXPECT_EQ(d.error(), DecodeError::TruncatedPayload) << "prefix " << n;
    }
  }
}

TEST(WireMalformed, LengthPrefixMismatchesAreTyped) {
  std::vector<std::uint8_t> frame = valid_reply_frame();

  auto patch_len = [&](std::uint32_t len) {
    std::vector<std::uint8_t> f = frame;
    f[0] = static_cast<std::uint8_t>(len);
    f[1] = static_cast<std::uint8_t>(len >> 8);
    f[2] = static_cast<std::uint8_t>(len >> 16);
    f[3] = static_cast<std::uint8_t>(len >> 24);
    return f;
  };
  const auto true_len = static_cast<std::uint32_t>(frame.size() - 4);

  EXPECT_EQ(Codec::decode(patch_len(0)).error(), DecodeError::BadLength);
  EXPECT_EQ(Codec::decode(patch_len(1)).error(), DecodeError::BadLength);
  EXPECT_EQ(Codec::decode(patch_len(Codec::kMaxFrameLen + 1)).error(),
            DecodeError::BadLength);
  EXPECT_EQ(Codec::decode(patch_len(0xFFFFFFFFu)).error(),
            DecodeError::BadLength);
  // Length claims more than the buffer holds / less than it holds.
  EXPECT_EQ(Codec::decode(patch_len(true_len + 1)).error(),
            DecodeError::TruncatedPayload);
  EXPECT_EQ(Codec::decode(patch_len(true_len - 1)).error(),
            DecodeError::TrailingBytes);

  std::vector<std::uint8_t> extra = frame;
  extra.push_back(0);
  EXPECT_EQ(Codec::decode(extra).error(), DecodeError::TrailingBytes);
}

TEST(WireMalformed, UnknownVersionAndKindAreTyped) {
  std::vector<std::uint8_t> frame = valid_reply_frame();
  for (const std::uint8_t v : {std::uint8_t{0}, std::uint8_t{2},
                               std::uint8_t{255}}) {
    std::vector<std::uint8_t> f = frame;
    f[4] = v;
    EXPECT_EQ(Codec::decode(f).error(), DecodeError::UnknownVersion);
  }
  for (const std::uint8_t k : {std::uint8_t{9}, std::uint8_t{42},
                               std::uint8_t{200}, std::uint8_t{255}}) {
    std::vector<std::uint8_t> f = frame;
    f[5] = k;
    EXPECT_EQ(Codec::decode(f).error(), DecodeError::UnknownKind);
  }
}

/// Hand-builds a frame around a raw payload (bypassing the encoder) so the
/// payload can be deliberately malformed.
std::vector<std::uint8_t> raw_frame(FrameKind kind,
                                    const std::vector<std::uint8_t>& payload) {
  const auto len = static_cast<std::uint32_t>(2 + payload.size());
  std::vector<std::uint8_t> f;
  f.reserve(Codec::kHeaderBytes + payload.size());
  f.push_back(static_cast<std::uint8_t>(len));
  f.push_back(static_cast<std::uint8_t>(len >> 8));
  f.push_back(static_cast<std::uint8_t>(len >> 16));
  f.push_back(static_cast<std::uint8_t>(len >> 24));
  f.push_back(Codec::kVersion);
  f.push_back(static_cast<std::uint8_t>(kind));
  for (const std::uint8_t b : payload) f.push_back(b);
  return f;
}

TEST(WireMalformed, OverlongVarintsAreRejected) {
  // pattern = 0 encoded non-canonically as 0x80 0x00 (plus a flags byte so
  // only the varint is at fault).
  EXPECT_EQ(Codec::decode(raw_frame(FrameKind::Subscribe, {0x80, 0x00, 0x01}))
                .error(),
            DecodeError::OverlongVarint);
  // Ten continuation bytes: a varint longer than any encodable u64.
  EXPECT_EQ(
      Codec::decode(raw_frame(FrameKind::Subscribe,
                              {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
                               0x80, 0x80, 0x01}))
          .error(),
      DecodeError::OverlongVarint);
  // 10-byte varint whose final byte sets bits beyond 2^64.
  EXPECT_EQ(
      Codec::decode(raw_frame(FrameKind::Subscribe,
                              {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                               0xFF, 0x7F, 0x01}))
          .error(),
      DecodeError::OverlongVarint);
}

TEST(WireMalformed, HostileFieldValuesAreRejected) {
  // NodeId is 32-bit on the wire model; a 2^35 gossiper must not wrap.
  EXPECT_EQ(Codec::decode(raw_frame(FrameKind::RecoveryRequest,
                                    {0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 0x00}))
                .error(),
            DecodeError::ValueOutOfRange);
  // Subscribe flags byte must be 0/1.
  EXPECT_EQ(Codec::decode(raw_frame(FrameKind::Subscribe, {0x05, 0x02}))
                .error(),
            DecodeError::ValueOutOfRange);
  // A count claiming ~2^28 lost entries in a 3-byte payload: rejected before
  // any allocation happens (gossiper=1, count=0x80..0x01).
  EXPECT_EQ(Codec::decode(raw_frame(FrameKind::RandomPullDigest,
                                    {0x01, 0x00, 0x80, 0x80, 0x80, 0x80, 0x01}))
                .error(),
            DecodeError::BadCount);
  // An event with zero patterns (EventData's invariant is ≥ 1).
  EXPECT_EQ(Codec::decode(raw_frame(FrameKind::Event,
                                    {/*source*/ 0x01, /*seq*/ 0x01,
                                     /*published_at*/ 0x00, /*payload*/ 0x00,
                                     /*n_patterns*/ 0x00, /*route n*/ 0x00}))
                .error(),
            DecodeError::ValueOutOfRange);
  // An event with non-increasing patterns (duplicate pattern 1).
  EXPECT_EQ(Codec::decode(raw_frame(FrameKind::Event,
                                    {0x01, 0x01, 0x00, 0x00, /*n*/ 0x02,
                                     /*p=1*/ 0x01, /*seq*/ 0x01,
                                     /*p=1*/ 0x01, /*seq*/ 0x02, 0x00}))
                .error(),
            DecodeError::ValueOutOfRange);
}

TEST(WireMalformed, ByteMutationFuzzNeverCrashes) {
  // Deterministic single-byte corruption sweep over valid frames of every
  // kind: each decode must either succeed or return a typed error; memory
  // safety is checked by the sanitizer jobs.
  std::vector<std::vector<std::uint8_t>> frames;
  frames.push_back(valid_reply_frame());
  frames.push_back(encode_one(EventMessage(
      make_event(9, 123, {{Pattern{2}, SeqNo{10}}, {Pattern{5}, SeqNo{7}}}, 16),
      {NodeId{9}, NodeId{4}})));
  frames.push_back(encode_one(SubscribeMessage(Pattern{68}, true)));
  frames.push_back(encode_one(PushDigestMessage(
      NodeId{12}, 100, Pattern{33}, {{NodeId{1}, 5}, {NodeId{200}, 6}}, 2)));
  frames.push_back(encode_one(SubscriberPullDigestMessage(
      NodeId{4}, 100, Pattern{7}, some_losses(), 5)));
  frames.push_back(encode_one(PublisherPullDigestMessage(
      NodeId{4}, 100, NodeId{77}, some_losses(), {NodeId{5}, NodeId{77}})));
  frames.push_back(encode_one(
      RandomPullDigestMessage(NodeId{4}, 100, some_losses(), 1)));
  frames.push_back(encode_one(
      RecoveryRequestMessage(NodeId{19}, 100, {{NodeId{2}, 9}})));

  Rng rng(2024);
  std::uint64_t rejected = 0, accepted = 0;
  for (const std::vector<std::uint8_t>& frame : frames) {
    for (std::size_t pos = 0; pos < frame.size(); ++pos) {
      for (int variant = 0; variant < 4; ++variant) {
        std::vector<std::uint8_t> f = frame;
        f[pos] ^= static_cast<std::uint8_t>(
            1u << rng.next_below(8));  // flip one random bit
        const Decoded d = Codec::decode(f);
        if (d.ok()) {
          ++accepted;  // some flips land in don't-care bits (payload zeros)
        } else {
          ++rejected;
          EXPECT_NE(to_string(d.error()), std::string("?"));
        }
      }
    }
  }
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace epicast
