#include "epicast/runtime/async_runtime.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <stdexcept>
#include <string>
#include <utility>

#include "epicast/common/assert.hpp"
#include "epicast/wire/codec.hpp"

namespace epicast::runtime {
namespace {

// Datagram header in front of every codec frame: identifies the sender (UDP
// source ports say nothing about NodeIds) and the logical channel.
//   ┌──────┬──────┬─────────┬────────────┬──────────────┐
//   │ 'E'  │ 'C'  │ ver: u8 │ channel:u8 │ from: u32 LE │
//   └──────┴──────┴─────────┴────────────┴──────────────┘
constexpr std::size_t kDgramHeaderBytes = 8;
constexpr std::uint8_t kDgramVersion = 1;
constexpr std::uint8_t kChannelOverlay = 0;
constexpr std::uint8_t kChannelDirect = 1;

// epoll user-data tag for the timerfd (NodeIds are dense and far smaller).
constexpr std::uint32_t kTimerTag = 0xffffffffu;

constexpr std::size_t kMaxDatagram = 65536;
/// SO_RCVBUF requested for every node socket.
constexpr int kSocketRcvbufBytes = 1 << 20;
/// Synthetic link bandwidth backing `slow` fault windows (10 Mbit/s, the
/// simulated links' rate).
constexpr double kSlowBandwidthBytesPerS = 1.25e6;

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

struct AsyncRuntime::LocalNode {
  NodeId id;
  int fd = -1;
  TransportReceiver* receiver = nullptr;

  ~LocalNode() {
    if (fd >= 0) ::close(fd);
  }
};

AsyncRuntime::AsyncRuntime(AsyncRuntimeConfig config)
    : config_(config),
      root_rng_(config.seed),
      drop_rng_(root_rng_.fork()) {
  if (config_.inbound_queue_capacity == 0) {
    throw std::invalid_argument("inbound_queue_capacity must be > 0");
  }
  if (!config_.faults.churns.empty()) {
    // Churn means process death. In daemon mode processes really die: the
    // cluster harness --chaos schedule SIGKILLs and relaunches epicastd.
    // Emulating churn inside a live runtime would be a lie twice over.
    throw std::invalid_argument(
        "AsyncRuntime fault plans cannot contain churn(...): daemon-mode "
        "process death is real — use the cluster harness --chaos schedule "
        "(SIGKILL + relaunch) instead of a synthetic churn process");
  }
  config_.faults.validate();
  {
    // One fork per fault process, in plan order, off the *cluster-wide*
    // seed: every daemon derives the same blackhole victim stream, while
    // burst channels (whose losses are local anyway) stay deterministic
    // per process.
    Rng fault_rng(config_.fault_seed);
    wire_bursts_.reserve(config_.faults.bursts.size());
    for (const fault::BurstSpec& b : config_.faults.bursts) {
      wire_bursts_.push_back(WireBurst{b, fault_rng.fork(), {}});
    }
    wire_blackholes_.reserve(config_.faults.partitions.size());
    for (const fault::PartitionSpec& p : config_.faults.partitions) {
      wire_blackholes_.push_back(WireBlackhole{p, fault_rng.fork(), {}, false});
    }
  }

  start_ns_ = config_.clock_epoch_ns >= 0 ? config_.clock_epoch_ns : mono_ns();
  recv_buf_.resize(kMaxDatagram);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw_errno("epoll_create1");
  timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  if (timer_fd_ < 0) throw_errno("timerfd_create");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u32 = kTimerTag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, timer_fd_, &ev) < 0) {
    throw_errno("epoll_ctl(timerfd)");
  }
}

AsyncRuntime::~AsyncRuntime() {
  local_.clear();  // closes node sockets
  if (timer_fd_ >= 0) ::close(timer_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

// -- cluster wiring ----------------------------------------------------------

void AsyncRuntime::set_peer(NodeId id, const PeerEndpoint& ep) {
  EPICAST_ASSERT(id.valid());
  const std::size_t need = id.value() + 1;
  if (peers_.size() < need) {
    peers_.resize(need);
    addr4_.resize(need);
    links_.resize(need);
    local_.resize(need);
  }
  in_addr addr{};
  if (::inet_pton(AF_INET, ep.host.c_str(), &addr) != 1) {
    throw std::invalid_argument("peer host is not an IPv4 address: " +
                                ep.host);
  }
  peers_[id.value()] = ep;
  addr4_[id.value()] = {addr.s_addr, ep.port};
}

void AsyncRuntime::add_link(NodeId a, NodeId b) {
  EPICAST_ASSERT(a.value() < links_.size() && b.value() < links_.size());
  EPICAST_ASSERT(a != b);
  auto insert = [this](NodeId x, NodeId y) {
    auto& adj = links_[x.value()];
    auto it = std::lower_bound(adj.begin(), adj.end(), y);
    if (it == adj.end() || *it != y) adj.insert(it, y);
  };
  insert(a, b);
  insert(b, a);
}

void AsyncRuntime::remove_link(NodeId a, NodeId b) {
  auto erase = [this](NodeId x, NodeId y) {
    auto& adj = links_[x.value()];
    auto it = std::lower_bound(adj.begin(), adj.end(), y);
    if (it != adj.end() && *it == y) adj.erase(it);
  };
  erase(a, b);
  erase(b, a);
}

const PeerEndpoint& AsyncRuntime::peer(NodeId id) const {
  EPICAST_ASSERT(id.value() < peers_.size());
  return peers_[id.value()];
}

// -- Clock -------------------------------------------------------------------

std::int64_t AsyncRuntime::mono_ns() const {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

SimTime AsyncRuntime::now() const {
  return SimTime::zero() + Duration::nanos(mono_ns() - start_ns_);
}

// -- TimerService ------------------------------------------------------------

TimerHandle AsyncRuntime::after(Duration delay, Callback cb) {
  const std::int64_t deadline =
      mono_ns() + std::max<std::int64_t>(0, delay.count_nanos());
  TimerHandle handle = timers_.schedule_at(
      SimTime::zero() + Duration::nanos(deadline), std::move(cb));
  if (armed_deadline_ns_ < 0 || deadline < armed_deadline_ns_) {
    rearm_timerfd();
  }
  return handle;
}

void AsyncRuntime::rearm_timerfd() {
  itimerspec spec{};  // zeroed = disarm
  std::int64_t deadline = -1;
  SimTime at;
  std::uint64_t seq = 0;
  if (timers_.peek(at, seq)) {
    deadline = (at - SimTime::zero()).count_nanos();
    spec.it_value.tv_sec = deadline / 1'000'000'000;
    spec.it_value.tv_nsec = deadline % 1'000'000'000;
    if (spec.it_value.tv_sec == 0 && spec.it_value.tv_nsec == 0) {
      spec.it_value.tv_nsec = 1;  // 0/0 would disarm; fire "immediately"
    }
  }
  if (deadline == armed_deadline_ns_) return;
  if (::timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &spec, nullptr) < 0) {
    throw_errno("timerfd_settime");
  }
  armed_deadline_ns_ = deadline;
}

void AsyncRuntime::fire_due_timers() {
  // Callbacks may schedule new timers; those due by now fire in this pass.
  timers_.run_until(SimTime::zero() + Duration::nanos(mono_ns()));
  stats_.timers_fired = timers_.executed();
}

// -- Transport ---------------------------------------------------------------

void AsyncRuntime::attach(NodeId node, TransportReceiver& receiver) {
  EPICAST_ASSERT_MSG(node.value() < peers_.size(),
                     "attach() before set_peer() for this node");
  EPICAST_ASSERT_MSG(local_[node.value()] == nullptr, "node already attached");

  auto ln = std::make_unique<LocalNode>();
  ln->id = node;
  ln->receiver = &receiver;
  ln->fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (ln->fd < 0) throw_errno("socket");

  const int one = 1;
  ::setsockopt(ln->fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  ::setsockopt(ln->fd, SOL_SOCKET, SO_RCVBUF, &kSocketRcvbufBytes,
               sizeof(kSocketRcvbufBytes));

  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = addr4_[node.value()].first;
  sa.sin_port = htons(peers_[node.value()].port);
  if (::bind(ln->fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) < 0) {
    throw_errno("bind " + peers_[node.value()].host + ":" +
                std::to_string(peers_[node.value()].port));
  }
  if (peers_[node.value()].port == 0) {
    // Ephemeral bind (in-process clusters): publish the kernel-chosen port
    // so peers sharing this runtime instance can address us.
    socklen_t len = sizeof(sa);
    if (::getsockname(ln->fd, reinterpret_cast<sockaddr*>(&sa), &len) < 0) {
      throw_errno("getsockname");
    }
    peers_[node.value()].port = ntohs(sa.sin_port);
    addr4_[node.value()].second = peers_[node.value()].port;
  }

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u32 = node.value();
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, ln->fd, &ev) < 0) {
    throw_errno("epoll_ctl(node socket)");
  }
  local_[node.value()] = std::move(ln);

  if (static_links_.empty()) {
    // Snapshot the configured topology before anything dynamic (route
    // repair) mutates it: blackhole victim choice must agree across
    // processes, and repair timing never will.
    for (std::uint32_t a = 0; a < links_.size(); ++a) {
      for (NodeId b : links_[a]) {
        if (b.value() > a) static_links_.emplace_back(NodeId{a}, b);
      }
    }
  }
}

void AsyncRuntime::send_overlay(NodeId from, NodeId to, MessagePtr msg) {
  send(from, to, std::move(msg), /*overlay=*/true);
}

void AsyncRuntime::send_direct(NodeId from, NodeId to, MessagePtr msg) {
  send(from, to, std::move(msg), /*overlay=*/false);
}

void AsyncRuntime::send(NodeId from, NodeId to, MessagePtr msg, bool overlay) {
  EPICAST_ASSERT(msg != nullptr);
  EPICAST_ASSERT(to.value() < peers_.size());
  LocalNode* self =
      from.value() < local_.size() ? local_[from.value()].get() : nullptr;
  EPICAST_ASSERT_MSG(self != nullptr, "send from a non-attached node");

  if (overlay && !has_link(from, to)) {
    // Same stale-route semantics as the simulated transport: the message
    // evaporates and the observers hear about it.
    ++stats_.drops_no_link;
    for (TransportObserver* o : observers_) o->on_drop_no_link(from, to, *msg);
    return;
  }

  for (TransportObserver* o : observers_) o->on_send(from, to, *msg, overlay);

  encode_buf_.clear();
  encode_buf_.put_u8('E');
  encode_buf_.put_u8('C');
  encode_buf_.put_u8(kDgramVersion);
  encode_buf_.put_u8(overlay ? kChannelOverlay : kChannelDirect);
  encode_buf_.put_u32le(from.value());
  wire::Codec::encode(*msg, encode_buf_);

  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = addr4_[to.value()].first;
  sa.sin_port = htons(addr4_[to.value()].second);
  const ssize_t n =
      ::sendto(self->fd, encode_buf_.data(), encode_buf_.size(), 0,
               reinterpret_cast<const sockaddr*>(&sa), sizeof(sa));
  if (n < 0) {
    // EAGAIN (full send buffer) and friends are just loss — UDP semantics.
    ++stats_.send_failures;
    for (TransportObserver* o : observers_) o->on_loss(from, to, *msg, overlay);
    return;
  }
  ++stats_.datagrams_sent;
  stats_.bytes_sent += static_cast<std::uint64_t>(n);
}

std::span<const NodeId> AsyncRuntime::neighbors(NodeId node) const {
  EPICAST_ASSERT(node.value() < links_.size());
  return links_[node.value()];
}

bool AsyncRuntime::has_link(NodeId a, NodeId b) const {
  if (a.value() >= links_.size()) return false;
  const auto& adj = links_[a.value()];
  return std::binary_search(adj.begin(), adj.end(), b);
}

std::uint32_t AsyncRuntime::node_count() const {
  return static_cast<std::uint32_t>(peers_.size());
}

// -- event loop --------------------------------------------------------------

void AsyncRuntime::drain_socket(LocalNode& node) {
  for (;;) {
    sockaddr_in sa{};
    socklen_t sa_len = sizeof(sa);
    const ssize_t n =
        ::recvfrom(node.fd, recv_buf_.data(), recv_buf_.size(), 0,
                   reinterpret_cast<sockaddr*>(&sa), &sa_len);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      // Transient socket errors (e.g. ICMP unreachable surfacing) — count
      // and keep the loop alive rather than killing the node.
      ++stats_.decode_errors;
      return;
    }
    ++stats_.datagrams_received;
    stats_.bytes_received += static_cast<std::uint64_t>(n);

    if (static_cast<std::size_t>(n) < kDgramHeaderBytes ||
        recv_buf_[0] != 'E' || recv_buf_[1] != 'C' ||
        recv_buf_[2] != kDgramVersion ||
        (recv_buf_[3] != kChannelOverlay && recv_buf_[3] != kChannelDirect)) {
      ++stats_.decode_errors;
      continue;
    }
    const std::uint32_t from_raw =
        static_cast<std::uint32_t>(recv_buf_[4]) |
        (static_cast<std::uint32_t>(recv_buf_[5]) << 8) |
        (static_cast<std::uint32_t>(recv_buf_[6]) << 16) |
        (static_cast<std::uint32_t>(recv_buf_[7]) << 24);
    if (from_raw >= peers_.size()) {
      ++stats_.decode_errors;
      continue;
    }

    if (inbound_.size() >= config_.inbound_queue_capacity) {
      // Drop-newest: the frames already queued are older and thus closer to
      // their retransmission deadlines; the arriving one is the cheapest to
      // re-request. Gossip recovery repairs the hole either way.
      ++stats_.queue_overflows;
      continue;
    }
    InboundFrame f;
    f.to = node.id;
    f.from = NodeId{from_raw};
    f.overlay = recv_buf_[3] == kChannelOverlay;
    f.frame.assign(recv_buf_.begin() + kDgramHeaderBytes,
                   recv_buf_.begin() + n);
    inbound_.push_back(std::move(f));
  }
}

bool AsyncRuntime::window_active(Duration start,
                                 const std::optional<Duration>& stop) const {
  const Duration origin = Duration::seconds(config_.fault_origin_s);
  const SimTime t = now();
  if (t < SimTime::zero() + origin + start) return false;
  if (stop && t >= SimTime::zero() + origin + *stop) return false;
  return true;
}

void AsyncRuntime::choose_blackhole_victims(WireBlackhole& bh) {
  bh.chosen = true;
  if (static_links_.empty()) {
    // No attach happened (or links came late): fall back to the live table.
    for (std::uint32_t a = 0; a < links_.size(); ++a) {
      for (NodeId b : links_[a]) {
        if (b.value() > a) static_links_.emplace_back(NodeId{a}, b);
      }
    }
  }
  // Partial Fisher–Yates over a copy: k distinct links, draw order fixed,
  // so every process picks the same victims from the same seed.
  std::vector<std::pair<NodeId, NodeId>> pool = static_links_;
  const std::size_t want =
      std::min<std::size_t>(bh.spec.links, pool.size());
  for (std::size_t i = 0; i < want; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(bh.rng.next_below(pool.size() - i));
    std::swap(pool[i], pool[j]);
    bh.victims.push_back(pool[i]);
  }
}

bool AsyncRuntime::fault_drops_frame(const InboundFrame& f,
                                     const Message& msg) {
  const bool control = msg.message_class() == MessageClass::Control;

  // Scheduled blackholes first: a dead link carries *nothing*, control
  // included — this is what starves the failure detector and exercises the
  // suspect machinery end to end.
  for (WireBlackhole& bh : wire_blackholes_) {
    if (!window_active(bh.spec.at, bh.spec.heal)) continue;
    if (!bh.chosen) choose_blackhole_victims(bh);
    const std::pair<NodeId, NodeId> key =
        f.from.value() < f.to.value() ? std::make_pair(f.from, f.to)
                                      : std::make_pair(f.to, f.from);
    for (const auto& victim : bh.victims) {
      if (victim == key) {
        ++stats_.blackhole_drops;
        for (TransportObserver* o : observers_) {
          o->on_loss(f.from, f.to, msg, f.overlay);
        }
        return true;
      }
    }
  }

  // Gilbert–Elliott windows: the chain advances for every frame on the
  // directed link (the burst weather doesn't care what's in the packets)
  // but only non-control frames are actually lost, as control traffic is
  // lossless in the simulated transport.
  for (WireBurst& wb : wire_bursts_) {
    if (!window_active(wb.spec.start, wb.spec.stop)) continue;
    const std::uint64_t key =
        (static_cast<std::uint64_t>(f.from.value()) << 32) | f.to.value();
    auto it = wb.channels.find(key);
    if (it == wb.channels.end()) {
      it = wb.channels
               .emplace(key, fault::GilbertElliottChannel(wb.spec.channel,
                                                          wb.rng.fork()))
               .first;
    }
    if (it->second.transmit_lost() && !control) {
      ++stats_.burst_drops;
      for (TransportObserver* o : observers_) {
        o->on_loss(f.from, f.to, msg, f.overlay);
      }
      return true;
    }
  }

  if (config_.inbound_drop_rate > 0.0 && !control &&
      drop_rng_.chance(config_.inbound_drop_rate)) {
    // Synthetic ε: localhost UDP is effectively lossless, so the paper's
    // link error rate is re-introduced receive-side. Control traffic is
    // exempt, as in the simulated transport.
    ++stats_.drops_injected;
    for (TransportObserver* o : observers_) {
      o->on_loss(f.from, f.to, msg, f.overlay);
    }
    return true;
  }
  return false;
}

Duration AsyncRuntime::slow_delay(std::size_t frame_bytes) const {
  double factor = 1.0;
  for (const fault::SlowSpec& s : config_.faults.slows) {
    if (window_active(s.start, s.stop)) factor = std::min(factor, s.factor);
  }
  if (factor >= 1.0) return Duration::zero();
  // Inside a slow window the frame takes bytes/(bandwidth·factor) instead
  // of effectively zero on loopback; charge the whole serialization time.
  const double bw = kSlowBandwidthBytesPerS * std::max(factor, 1e-6);
  return Duration::seconds(static_cast<double>(frame_bytes) / bw);
}

void AsyncRuntime::deliver_frame(const InboundFrame& f, const MessagePtr& msg) {
  if (frame_obs_) frame_obs_(f.from, f.to, f.overlay, f.frame, msg);

  LocalNode* dest = local_[f.to.value()].get();
  if (dest == nullptr || dest->receiver == nullptr) return;
  if (f.overlay) {
    dest->receiver->on_overlay_message(f.from, msg);
  } else {
    dest->receiver->on_direct_message(f.from, msg);
  }
}

void AsyncRuntime::process_inbound() {
  while (!inbound_.empty()) {
    InboundFrame f = std::move(inbound_.front());
    inbound_.pop_front();

    wire::Decoded decoded = wire::Codec::decode(f.frame);
    if (!decoded.ok()) {
      ++stats_.decode_errors;
      continue;
    }
    const MessagePtr& msg = decoded.message();

    if (fault_drops_frame(f, *msg)) continue;

    if (msg->message_class() != MessageClass::Control) {
      const Duration delay = slow_delay(f.frame.size() + kDgramHeaderBytes);
      if (delay > Duration::zero()) {
        // Re-dispatch through the timer wheel; control frames stay prompt
        // so a slow window degrades throughput without faking peer death.
        ++stats_.slowdown_delays;
        auto held = std::make_shared<InboundFrame>(std::move(f));
        MessagePtr held_msg = msg;
        after(delay, [this, held, held_msg] { deliver_frame(*held, held_msg); });
        continue;
      }
    }

    deliver_frame(f, msg);
  }
}

void AsyncRuntime::poll(Duration max_wait) {
  fire_due_timers();
  rearm_timerfd();

  const std::int64_t wait_ns =
      std::max<std::int64_t>(0, max_wait.count_nanos());
  const int timeout_ms = static_cast<int>(
      std::min<std::int64_t>((wait_ns + 999'999) / 1'000'000, 60'000));

  epoll_event events[64];
  const int n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
  if (n < 0) {
    if (errno == EINTR) return;  // signal (e.g. SIGTERM) — let the loop turn
    throw_errno("epoll_wait");
  }
  for (int i = 0; i < n; ++i) {
    const std::uint32_t tag = events[i].data.u32;
    if (tag == kTimerTag) {
      std::uint64_t expirations = 0;
      while (::read(timer_fd_, &expirations, sizeof(expirations)) > 0) {
      }
      // The armed deadline has been consumed; force a real re-arm next time.
      armed_deadline_ns_ = -1;
      continue;  // timers fire below, off the scheduler
    }
    if (tag < local_.size() && local_[tag] != nullptr) {
      drain_socket(*local_[tag]);
    }
  }
  process_inbound();
  fire_due_timers();
  rearm_timerfd();
}

void AsyncRuntime::run_until(SimTime deadline) {
  stop_ = false;
  while (!stop_ && !(stop_flag_ != nullptr && *stop_flag_ != 0)) {
    const SimTime t = now();
    if (t >= deadline) return;
    Duration wait = deadline - t;
    // Cap the wait so an external stop flag is noticed promptly even on an
    // otherwise idle node (timer wakeups come via timerfd regardless).
    if (wait > Duration::millis(50)) wait = Duration::millis(50);
    poll(wait);
  }
}

}  // namespace epicast::runtime
