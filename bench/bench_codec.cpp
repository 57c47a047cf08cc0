// Wire-codec microbenchmark: encode / size / decode throughput per frame
// kind, on messages with paper-typical contents (Fig. 2 defaults: ~200 B
// event payloads, digests carrying a few dozen ids). Emits a JSON report
// (default BENCH_codec.json, override with EPICAST_BENCH_JSON / --json=PATH)
// so CI can archive the codec's perf trajectory alongside BENCH_sweep.json.
#include <chrono>
#include <cinttypes>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace epicast;
using wire::Codec;
using wire::WireBuffer;

EventPtr make_event(std::uint32_t source, std::uint64_t seq) {
  // Paper-typical event: 3 matched patterns, 200 B payload.
  return std::make_shared<EventData>(
      EventId{NodeId{source}, seq},
      std::vector<PatternSeq>{{Pattern{4}, SeqNo{seq}},
                              {Pattern{17}, SeqNo{seq + 3}},
                              {Pattern{42}, SeqNo{seq + 7}}},
      /*payload_bytes=*/200, SimTime::seconds(1.5));
}

std::vector<EventId> some_ids(std::size_t n) {
  std::vector<EventId> ids;
  ids.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ids.push_back(EventId{NodeId{static_cast<std::uint32_t>(i % 100)},
                          1000 + i});
  }
  return ids;
}

std::vector<LostEntryInfo> some_losses(std::size_t n) {
  std::vector<LostEntryInfo> wanted;
  wanted.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    wanted.push_back(LostEntryInfo{NodeId{static_cast<std::uint32_t>(i % 100)},
                                   Pattern{static_cast<std::uint32_t>(i % 70)},
                                   SeqNo{500 + i}});
  }
  return wanted;
}

struct KindResult {
  const char* name;
  std::size_t frame_bytes;
  double encode_ns, size_ns, decode_ns;
};

struct Timer {
  std::chrono::steady_clock::time_point t0 = std::chrono::steady_clock::now();
  double elapsed_ns() const {
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now() - t0)
        .count();
  }
};

KindResult measure(const char* name, const Message& msg, std::uint64_t iters) {
  WireBuffer buf;
  Codec::encode(msg, buf);
  const std::size_t frame_bytes = buf.size();
  const std::vector<std::uint8_t> frame(buf.bytes().begin(),
                                        buf.bytes().end());
  {
    // Sanity: the benchmark only counts working codecs.
    const wire::Decoded d = Codec::decode(frame);
    if (!d.ok()) {
      std::fprintf(stderr, "%s: decode failed: %s\n", name,
                   to_string(d.error()));
      std::exit(1);
    }
  }

  Timer te;
  for (std::uint64_t i = 0; i < iters; ++i) {
    buf.clear();
    Codec::encode(msg, buf);
  }
  const double encode_ns = te.elapsed_ns() / static_cast<double>(iters);

  Timer ts;
  std::size_t checksum = 0;
  for (std::uint64_t i = 0; i < iters; ++i) {
    checksum += Codec::encoded_size(msg);
  }
  const double size_ns = ts.elapsed_ns() / static_cast<double>(iters);
  if (checksum != iters * frame_bytes) {
    std::fprintf(stderr, "%s: encoded_size drifted from encode()\n", name);
    std::exit(1);
  }

  Timer td;
  for (std::uint64_t i = 0; i < iters; ++i) {
    const wire::Decoded d = Codec::decode(frame);
    if (!d.ok()) std::exit(1);
  }
  const double decode_ns = td.elapsed_ns() / static_cast<double>(iters);

  return KindResult{name, frame_bytes, encode_ns, size_ns, decode_ns};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace epicast::bench;
  epicast::bench::init(argc, argv);
  print_header("codec", "wire encode/size/decode throughput per frame kind");

  const std::uint64_t iters = fast_mode() ? 20'000 : 200'000;

  const EventMessage event_msg(
      make_event(7, 12345),
      {NodeId{7}, NodeId{3}, NodeId{11}, NodeId{20}, NodeId{41}});
  const SubscribeMessage subscribe_msg(Pattern{68}, true);
  const PushDigestMessage push_msg(NodeId{12}, 100, Pattern{33}, some_ids(40),
                                   1);
  const SubscriberPullDigestMessage sub_pull_msg(NodeId{4}, 100, Pattern{7},
                                                 some_losses(20), 2);
  const PublisherPullDigestMessage pub_pull_msg(
      NodeId{4}, 100, NodeId{77}, some_losses(20),
      {NodeId{5}, NodeId{6}, NodeId{9}, NodeId{77}});
  const RandomPullDigestMessage rand_pull_msg(NodeId{4}, 100, some_losses(20),
                                              1);
  const RecoveryRequestMessage request_msg(NodeId{19}, 100, some_ids(10));
  const RecoveryReplyMessage reply_msg(
      NodeId{19}, 100,
      {make_event(2, 9), make_event(3, 77), make_event(5, 123)});

  const std::vector<KindResult> results = {
      measure("event", event_msg, iters),
      measure("subscribe", subscribe_msg, iters),
      measure("push-digest", push_msg, iters),
      measure("subscriber-pull-digest", sub_pull_msg, iters),
      measure("publisher-pull-digest", pub_pull_msg, iters),
      measure("random-pull-digest", rand_pull_msg, iters),
      measure("recovery-request", request_msg, iters),
      measure("recovery-reply", reply_msg, iters),
  };

  // enc/size is this run's encode time over its encoded_size time: both
  // run the same payload encoder, one into a buffer and one against a
  // byte counter, so how much cheaper sizing is depends on the host.
  std::printf("\n%-24s %8s %12s %12s %12s %10s %9s\n", "kind", "bytes",
              "encode ns", "size ns", "decode ns", "enc MB/s", "enc/size");
  for (const KindResult& r : results) {
    const double mbps = r.encode_ns > 0.0
                            ? static_cast<double>(r.frame_bytes) * 1e3 /
                                  r.encode_ns
                            : 0.0;
    const double enc_per_size =
        r.size_ns > 0.0 ? r.encode_ns / r.size_ns : 0.0;
    std::printf("%-24s %8zu %12.1f %12.1f %12.1f %10.1f %9.2f\n", r.name,
                r.frame_bytes, r.encode_ns, r.size_ns, r.decode_ns, mbps,
                enc_per_size);
  }

  const std::string json_path = BenchEnv::get().json_path.empty()
                                    ? std::string("BENCH_codec.json")
                                    : BenchEnv::get().json_path;
  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f, "{\n  \"iters\": %" PRIu64 ",\n  \"kinds\": [\n", iters);
    for (std::size_t i = 0; i < results.size(); ++i) {
      const KindResult& r = results[i];
      std::fprintf(f,
                   "    {\"kind\": \"%s\", \"frame_bytes\": %zu, "
                   "\"encode_ns\": %.2f, \"size_ns\": %.2f, "
                   "\"decode_ns\": %.2f}%s\n",
                   r.name, r.frame_bytes, r.encode_ns, r.size_ns, r.decode_ns,
                   i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"fast_mode\": %s\n}\n",
                 fast_mode() ? "true" : "false");
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}
