// Repo benchmark workload binary: runs one workload and prints its raw
// measurements as one JSON object on the last line of stdout.
// perfbench/run.py builds this binary, turns the raw numbers into the
// benchmark's metrics, checks the outputs and prints the result; see
// perfbench/README.md.
//
//   perfbench_workload --workload paper-tree|scale-ba|live-lossy
//                      --seed N --seconds S --trace 0|1
//
// Every layer is driven from outside through public API only: run_scenario
// and ScenarioResult for the simulator, NodeDaemon / AsyncRuntime for the
// live path, wire::Codec for the codec loops. With --trace 1 it also
// records spans around each of those calls.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "epicast/daemon/node.hpp"
#include "epicast/epicast.hpp"
#include "epicast/runtime/cluster.hpp"
#include "scenario_builders.hpp"

namespace {

using namespace epicast;

// -- workload constants -------------------------------------------------------

// Sim measurement windows. Everything else is as the figure builders set
// it, except scale-ba's warmup and recovery horizon: the windows shrink so
// one repetition of a workload takes seconds and a run can repeat it on
// several seeds. paper-tree keeps its 3 s horizon, which a shorter one would
// clip the recovery latencies against. On scale-ba multipath delivers
// almost everything by forwarding within milliseconds and gossip recovers
// almost nothing, so quarter-second warmup and horizon count what the
// figure's longer ones do; the simulated time saved goes to the measure
// window, because 200 events/s publish only ~200 events in it, and how
// many subscribers those few happen to match is what moves the
// delivered-pair count most.
constexpr double kPaperTreeMeasureS = 0.5;
constexpr std::uint32_t kScaleNodes = 3000;  // > kDenseSourceLimit (2048)
constexpr double kScaleWarmupS = 0.25;
constexpr double kScaleMeasureS = 1.0;
constexpr double kScaleHorizonS = 0.25;
// Measured repetitions, each on its own seed derived from --seed. A
// workload's work varies from one seed to the next (scale-ba's by a fifth),
// and a run that covers several seeds reports figures that move less with
// the seed. scale-ba's repetitions are cheaper, so it runs more of them.
constexpr int kPaperTreeReps = 3;
constexpr int kScaleReps = 5;
// Repetition seeds of one --seed are seed * kSeedStride + k: disjoint from
// those of any other --seed.
constexpr std::uint64_t kSeedStride = 16;
// Set-up is timed on the first repetition seeds, at least this many
// samples and for at least this long, so a cheap set-up gets more samples
// behind its median.
constexpr int kSimSetupMinSamples = 3;
constexpr double kSimSetupSeconds = 2.0;

// live-lossy: four daemons on a line, everyone publishes and subscribes to
// half of a 16-pattern universe. The daemon's generator schedules each
// publish a random gap after the previous one fired, so each timer
// wake-up's lateness adds to the gap: at 1000/s that cost 15-25% of the
// offered rate, by how loaded the host was, and every throughput figure
// moved with it. At 250/s it costs a few percent.
constexpr std::uint32_t kLiveNodes = 4;
constexpr std::uint32_t kLiveUniverse = 16;
constexpr double kLiveRateHz = 250.0;
constexpr double kLiveDropRate = 0.05;
constexpr double kLiveSettleS = 0.3;
constexpr double kLiveDrainS = 1.5;
constexpr int kLiveSetupReps = 25;
// Loopback probe: a burst of this many round trips (about a millisecond)
// every 100 ms of the run.
constexpr int kLoopbackTrips = 32;
constexpr std::chrono::milliseconds kLoopbackEvery{100};

// Codec loops.
constexpr std::size_t kFramesPerClass = 64;
constexpr std::uint64_t kCodecOpsPerRep = 40000;
constexpr int kCodecReps = 5;

// -- clocks -------------------------------------------------------------------

double clock_s(clockid_t id) {
  timespec ts{};
  ::clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}
double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }
double wall_s() { return clock_s(CLOCK_MONOTONIC); }

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// -- host-speed probe ---------------------------------------------------------

/// CPU seconds of a fixed kernel that uses no epicast code: random updates
/// over a 4 MiB table, integer hashing, and hash-map churn. On a shared
/// host the speed of a core swings by up to 2.5x within minutes and by a
/// third within seconds, and CPU time swings with it. Every timed segment
/// of a workload is bracketed by two probes, and benchmath.py scales the
/// segment's CPU time by how slow the probes ran. The table is allocated
/// once, so it adds a constant 4 MiB to the peak RSS.
double probe_cpu_s() {
  static std::vector<std::uint64_t> table(std::size_t{1} << 19);
  const double c0 = process_cpu_s();
  std::uint64_t x = 88172645463325252ULL;
  std::uint64_t acc = 0;
  for (int i = 0; i < 3'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::uint64_t& slot = table[x & (table.size() - 1)];
    slot += x;
    acc += slot;
  }
  for (int i = 0; i < 60'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += (x * 0x9E3779B97F4A7C15ULL) >> (x & 31);
  }
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  for (int i = 0; i < 4'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    map[x & 0x3FFF] += acc;
    const auto it = map.find((x >> 20) & 0x3FFF);
    if (it != map.end()) acc += it->second;
  }
  // Keeps the compiler from dropping the loops.
  static volatile std::uint64_t sink;
  sink = acc;
  return process_cpu_s() - c0;
}

/// CPU seconds of a chain of dependent loads through a 128 MiB table, timed
/// in a forked child so the table never counts in this process's peak RSS.
/// The simulator's large workloads live in the last-level cache when the
/// host is quiet and spill to memory when neighbours crowd it, which slows
/// them by up to half; the table is of their size, so the chain slows with
/// them. The CPU probe above hardly moves then.
double memory_probe_s() {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("memory probe: pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("memory probe: fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    std::vector<std::uint32_t> table(std::size_t{1} << 25);
    std::uint64_t x = 88172645463325252ULL;
    for (std::uint32_t& slot : table) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      slot = static_cast<std::uint32_t>(x);
    }
    const double c0 = process_cpu_s();
    const std::uint32_t mask = static_cast<std::uint32_t>(table.size() - 1);
    std::uint32_t i = 0;
    // The step count joins the index so the chain never settles in a cycle
    // short enough to stay cached.
    for (std::uint32_t step = 0; step < 500'000; ++step) {
      i = (table[i] + step) & mask;
    }
    const double took = process_cpu_s() - c0;
    const double out[2] = {took, static_cast<double>(i)};
    (void)!::write(fds[1], out, sizeof(out));
    ::_exit(0);
  }
  ::close(fds[1]);
  double in[2] = {-1.0, 0.0};
  const bool got = ::read(fds[0], in, sizeof(in)) == sizeof(in);
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!got || in[0] <= 0.0) throw std::runtime_error("memory probe failed");
  return in[0];
}

/// CPU-probe and (when asked for) memory-probe seconds on either side of a
/// timed segment.
struct Bracket {
  double cpu_before = 0.0;
  double cpu_after = 0.0;
  double memory_before = 0.0;
  double memory_after = 0.0;
};

/// Probes between consecutive timed segments: P S P S P. A segment's
/// bracket is the probe before it and the probe after it.
class ProbeChain {
 public:
  explicit ProbeChain(bool memory)
      : memory_(memory),
        cpu_(probe_cpu_s()),
        mem_(memory ? memory_probe_s() : 0.0) {}
  Bracket bracket() {
    Bracket b{cpu_, probe_cpu_s(), mem_, memory_ ? memory_probe_s() : 0.0};
    cpu_ = b.cpu_after;
    mem_ = b.memory_after;
    return b;
  }

 private:
  bool memory_;
  double cpu_;
  double mem_;
};

// -- JSON output --------------------------------------------------------------

class Json {
 public:
  Json& f(const std::string& k, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return raw(k, buf);
  }
  Json& u(const std::string& k, std::uint64_t v) {
    return raw(k, std::to_string(v));
  }
  Json& b(const std::string& k, bool v) { return raw(k, v ? "true" : "false"); }
  Json& s(const std::string& k, const std::string& v) {
    return raw(k, "\"" + v + "\"");
  }
  Json& probes(const Bracket& b) {
    f("probe_before_s", b.cpu_before).f("probe_after_s", b.cpu_after);
    if (b.memory_before > 0.0) {
      f("memory_before_s", b.memory_before).f("memory_after_s", b.memory_after);
    }
    return *this;
  }
  Json& raw(const std::string& k, const std::string& json) {
    if (!body_.empty()) body_ += ',';
    body_ += "\"" + k + "\":" + json;
    return *this;
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ',';
    out += items[i];
  }
  return out + "]";
}

std::string json_numbers(const std::vector<double>& xs) {
  std::vector<std::string> items;
  items.reserve(xs.size());
  char buf[40];
  for (double x : xs) {
    std::snprintf(buf, sizeof(buf), "%.9g", x);
    items.emplace_back(buf);
  }
  return json_array(items);
}

// -- spans (traced pass only) -------------------------------------------------

/// Spans recorded around this program's calls into each layer, kept in
/// memory and emitted with the result. `parent` indexes the same list.
class Spans {
 public:
  explicit Spans(bool on) : on_(on) {}

  int open(const std::string& name, int parent = -1) {
    if (!on_) return -1;
    spans_.push_back(Span{name, wall_s(), 0.0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end = wall_s();
  }

  [[nodiscard]] std::string json() const {
    std::vector<std::string> items;
    for (const Span& s : spans_) {
      items.push_back(Json()
                          .s("name", s.name)
                          .f("start_s", s.start)
                          .f("end_s", s.end)
                          .raw("parent", std::to_string(s.parent))
                          .str());
    }
    return json_array(items);
  }

 private:
  struct Span {
    std::string name;
    double start;
    double end;
    int parent;
  };
  bool on_;
  std::vector<Span> spans_;
};

// -- simulator workloads ------------------------------------------------------

/// Pins every field that an environment variable could otherwise default,
/// so the benchmark measures one configuration whatever the caller's env.
void pin_executor(ScenarioConfig& cfg) {
  cfg.shards = 1;
  cfg.threads = 1;
  cfg.sizing_mode = SizingMode::Nominal;
  cfg.faults = fault::FaultPlan{};
  cfg.oracles = true;
  cfg.profile_hotpath = false;
}

std::vector<ScenarioConfig> sim_configs(const std::string& workload,
                                        std::uint64_t seed) {
  std::vector<ScenarioConfig> out;
  if (workload == "paper-tree") {
    // The bench_hotpath set: one scenario per protocol family.
    for (Algorithm a :
         {Algorithm::Push, Algorithm::CombinedPull, Algorithm::RandomPull}) {
      out.push_back(figures::base(a, kPaperTreeMeasureS, seed));
    }
  } else {
    out.push_back(figures::scale(Algorithm::CombinedPull,
                                 OverlayKind::BarabasiAlbert, kScaleNodes,
                                 kScaleMeasureS, seed));
    out.back().warmup = Duration::seconds(kScaleWarmupS);
    out.back().recovery_horizon = Duration::seconds(kScaleHorizonS);
  }
  for (ScenarioConfig& cfg : out) pin_executor(cfg);
  return out;
}

int sim_reps(const std::string& workload) {
  return workload == "paper-tree" ? kPaperTreeReps : kScaleReps;
}

std::uint64_t rep_seed(std::uint64_t seed, int rep) {
  return seed * kSeedStride + static_cast<std::uint64_t>(rep);
}

/// The same scenario with every window cut to the minimum validate()
/// accepts: what remains is construction, overlay generation, route
/// bootstrap and the subscription phase.
ScenarioConfig setup_only(ScenarioConfig cfg) {
  cfg.warmup = Duration::zero();
  cfg.measure = Duration::nanos(1);
  cfg.recovery_horizon = Duration::nanos(1);
  return cfg;
}

std::string phases_json(const HotpathProfiler::Snapshot& snap) {
  Json j;
  for (std::size_t i = 0; i < kHotPhaseCount; ++i) {
    const auto p = static_cast<HotPhase>(i);
    j.raw(to_string(p), Json().u("ops", snap[p].ops).u("ns", snap[p].ns).str());
  }
  return j.str();
}

std::string gossip_json(const GossipStats& g) {
  return Json()
      .u("rounds", g.rounds)
      .u("digests_originated", g.digests_originated)
      .u("digests_forwarded", g.digests_forwarded)
      .u("requests_sent", g.requests_sent)
      .u("replies_sent", g.replies_sent)
      .u("events_served", g.events_served)
      .u("events_recovered", g.events_recovered)
      .u("request_timeouts", g.request_timeouts)
      .u("request_retries", g.request_retries)
      .u("requests_abandoned", g.requests_abandoned)
      .str();
}

std::string pool_json(const MessagePool::Stats& p) {
  return Json()
      .u("allocations", p.allocations)
      .u("reuses", p.reuses)
      .u("slab_bytes", p.slab_bytes)
      .str();
}

std::string scenario_json(const ScenarioConfig& cfg, const ScenarioResult& r,
                          double cpu_s, const Bracket& probes) {
  return Json()
      .s("algorithm", to_string(cfg.algorithm))
      .f("cpu_s", cpu_s)
      .probes(probes)
      .f("delivery_rate", r.delivery_rate)
      .u("expected_pairs", r.expected_pairs)
      .u("delivered_pairs", r.delivered_pairs)
      .u("recovered_pairs", r.recovered_pairs)
      .f("recovery_latency_p50_s", r.recovery_latency_p50_s)
      .f("recovery_latency_p99_s", r.recovery_latency_p99_s)
      .u("events_published", r.events_published)
      .u("sim_events", r.sim_events_executed)
      .u("oracle_checks", r.oracle_checks)
      .f("wall_s", r.wall_seconds)
      .f("gossip_msgs_per_dispatcher", r.gossip_msgs_per_dispatcher)
      .u("drops_no_link", r.drops_no_link)
      .raw("gossip", gossip_json(r.gossip_totals))
      .raw("memory", Json()
                         .u("topology", r.memory.topology_bytes)
                         .u("routing", r.memory.routing_bytes)
                         .u("seen", r.memory.seen_bytes)
                         .u("cache", r.memory.cache_bytes)
                         .u("tracker", r.memory.tracker_bytes)
                         .str())
      .raw("pool", pool_json(r.pool))
      .raw("phases", phases_json(r.hotpath))
      .str();
}

/// One repetition: every scenario of the workload, serially, each bracketed
/// by host-speed probes, with wall time taken around the whole set.
std::string run_sim_rep(std::vector<ScenarioConfig> cfgs, bool oracles,
                        bool profile, ProbeChain& probe, Spans& spans,
                        const std::string& label) {
  const int rep_span = spans.open(label);
  std::vector<std::string> scenarios;
  const double w0 = wall_s();
  for (ScenarioConfig& cfg : cfgs) {
    cfg.oracles = oracles;
    cfg.profile_hotpath = profile;
    const int s = spans.open(std::string("run_scenario:") +
                                 to_string(cfg.algorithm),
                             rep_span);
    const double sc0 = process_cpu_s();
    const ScenarioResult r = run_scenario(cfg);
    const double scenario_cpu = process_cpu_s() - sc0;
    spans.close(s);
    scenarios.push_back(scenario_json(cfg, r, scenario_cpu, probe.bracket()));
  }
  const double wall = wall_s() - w0;
  spans.close(rep_span);
  return Json()
      .f("wall_s", wall)
      .b("oracles", oracles)
      .b("profiled", profile)
      .raw("scenarios", json_array(scenarios))
      .str();
}

Json run_sim(const std::string& workload, std::uint64_t seed, bool trace,
             Spans& spans) {
  const std::vector<ScenarioConfig> cfgs =
      sim_configs(workload, rep_seed(seed, 0));

  // Set-up cycles through the first repetition seeds: on scale-ba the
  // set-up cost depends on the overlay the seed draws. It is timed in CPU
  // seconds, as the repetitions are: wall time on a shared host also
  // carries steal.
  ProbeChain probe(true);
  std::vector<std::string> setup_cpu;
  const double setup_t0 = wall_s();
  while (static_cast<int>(setup_cpu.size()) < kSimSetupMinSamples ||
         wall_s() - setup_t0 < kSimSetupSeconds) {
    const int k = static_cast<int>(setup_cpu.size()) % kSimSetupMinSamples;
    std::vector<ScenarioConfig> setup;
    for (const ScenarioConfig& c : sim_configs(workload, rep_seed(seed, k))) {
      setup.push_back(setup_only(c));
    }
    const double c0 = process_cpu_s();
    const int s = spans.open("setup");
    for (const ScenarioConfig& c : setup) (void)run_scenario(c);
    spans.close(s);
    const double took = process_cpu_s() - c0;
    setup_cpu.push_back(Json().f("cpu_s", took).probes(probe.bracket()).str());
  }

  std::vector<std::string> reps;
  std::vector<std::string> traced;
  std::vector<std::string> oracles_off;
  if (!trace) {
    for (int k = 0; k < sim_reps(workload); ++k) {
      reps.push_back(run_sim_rep(sim_configs(workload, rep_seed(seed, k)),
                                 true, false, probe, spans, "rep"));
    }
  } else {
    // Traced pass, all on the first seed: the untraced and traced
    // repetitions differ only in the profiler, so their CPU difference is
    // its overhead; a third repetition without oracles gives the oracles'
    // share of CPU.
    reps.push_back(run_sim_rep(cfgs, true, false, probe, spans, "rep"));
    traced.push_back(
        run_sim_rep(cfgs, true, true, probe, spans, "rep_traced"));
    oracles_off.push_back(
        run_sim_rep(cfgs, false, false, probe, spans, "rep_oracles_off"));
  }

  Json out;
  out.raw("setup", json_array(setup_cpu))
      .raw("reps", json_array(reps))
      .raw("traced_reps", json_array(traced))
      .raw("oracles_off_reps", json_array(oracles_off));
  return out;
}

// -- live-lossy ---------------------------------------------------------------

/// Reserves `n` distinct free loopback UDP ports by binding them all before
/// releasing any.
std::vector<std::uint16_t> free_udp_ports(std::size_t n) {
  std::vector<int> fds;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < n; ++i) {
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (fd < 0) throw std::runtime_error("socket() failed");
    fds.push_back(fd);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    socklen_t len = sizeof(addr);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      for (int f : fds) ::close(f);
      throw std::runtime_error("cannot reserve a loopback UDP port");
    }
    ports.push_back(ntohs(addr.sin_port));
  }
  for (int fd : fds) ::close(fd);
  return ports;
}

std::int64_t monotonic_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Loopback UDP ping-pong between two threads of this process, which share
/// the daemons' core: each way is a sendto, a wake-up, a context switch and
/// a recv, the kernel path a one-hop delivery takes, with no epicast code.
/// On a shared host that path slows by up to 2x over tens of seconds while
/// the CPU probe moves by a fifth, so the live run samples it throughout
/// and benchmath.py scales the one-hop latency by it.
class LoopbackProbe {
 public:
  LoopbackProbe() {
    const std::vector<std::uint16_t> ports = free_udp_ports(2);
    ping_ = connected_socket(ports[0], ports[1]);
    echo_ = connected_socket(ports[1], ports[0]);
    echo_thread_ = std::thread([this]() {
      char buf[8];
      while (::recv(echo_, buf, sizeof(buf), 0) == sizeof(buf) && buf[0] != 0) {
        (void)::send(echo_, buf, sizeof(buf), 0);
      }
      echo_cpu_s_ = thread_cpu_s();
    });
  }
  ~LoopbackProbe() {
    stop();
    ::close(ping_);
    ::close(echo_);
  }
  LoopbackProbe(const LoopbackProbe&) = delete;
  LoopbackProbe& operator=(const LoopbackProbe&) = delete;

  /// Ends the echo thread and waits for it.
  void stop() {
    if (!echo_thread_.joinable()) return;
    const char stop[8] = {0};
    (void)::send(ping_, stop, sizeof(stop), 0);
    echo_thread_.join();
  }

  /// Mean wall microseconds of one round trip over `trips` of them.
  double round_trip_us(int trips) {
    char buf[8] = {1};
    const double t0 = wall_s();
    for (int i = 0; i < trips; ++i) {
      if (::send(ping_, buf, sizeof(buf), 0) != sizeof(buf) ||
          ::recv(ping_, buf, sizeof(buf), 0) != sizeof(buf)) {
        throw std::runtime_error("loopback probe lost a datagram");
      }
    }
    return (wall_s() - t0) * 1e6 / trips;
  }
  /// CPU seconds the echo thread used; valid after stop().
  [[nodiscard]] double echo_cpu_s() const { return echo_cpu_s_; }

 private:
  static int connected_socket(std::uint16_t self, std::uint16_t peer) {
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(self);
    if (fd < 0 ||
        ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      throw std::runtime_error("loopback probe: cannot bind");
    }
    addr.sin_port = htons(peer);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      throw std::runtime_error("loopback probe: cannot connect");
    }
    return fd;
  }

  int ping_ = -1;
  int echo_ = -1;
  double echo_cpu_s_ = 0.0;
  std::thread echo_thread_;
};

runtime::ClusterConfig live_cluster(std::uint64_t seed, double run_s) {
  runtime::ClusterConfig cfg;
  const std::vector<std::uint16_t> ports = free_udp_ports(kLiveNodes);
  for (std::uint32_t i = 0; i < kLiveNodes; ++i) {
    cfg.endpoints.push_back({"127.0.0.1", ports[i]});
  }
  for (std::uint32_t i = 0; i + 1 < kLiveNodes; ++i) {
    cfg.links.emplace_back(NodeId{i}, NodeId{i + 1});
  }
  // Every node subscribes to half the universe and every pattern has
  // exactly two subscribers, so each event has 1.5 expected receivers on
  // average whatever the seed: the seed moves who subscribes to what, not
  // how much work a run does.
  Rng rng(seed);
  std::vector<std::uint32_t> slots;
  for (std::uint32_t i = 0; i < kLiveNodes; ++i) {
    slots.insert(slots.end(), kLiveUniverse / 2, i);
  }
  bool distinct_pairs = false;
  while (!distinct_pairs) {
    for (std::size_t i = slots.size() - 1; i > 0; --i) {
      std::swap(slots[i], slots[rng.next_below(i + 1)]);
    }
    distinct_pairs = true;
    for (std::size_t i = 0; i < slots.size(); i += 2) {
      distinct_pairs = distinct_pairs && slots[i] != slots[i + 1];
    }
  }
  for (std::uint32_t p = 0; p < kLiveUniverse; ++p) {
    cfg.subscriptions.emplace_back(NodeId{slots[2 * p]}, Pattern{p});
    cfg.subscriptions.emplace_back(NodeId{slots[2 * p + 1]}, Pattern{p});
  }
  cfg.algorithm = Algorithm::CombinedPull;
  cfg.pattern_universe = kLiveUniverse;
  cfg.patterns_per_event = 1;
  cfg.event_payload_bytes = 200;
  cfg.publish_rate_hz = kLiveRateHz;
  cfg.settle_seconds = kLiveSettleS;
  cfg.run_seconds = run_s;
  cfg.drain_seconds = kLiveDrainS;
  cfg.drop_rate = kLiveDropRate;
  cfg.seed = seed;
  cfg.sizing = SizingMode::Wire;
  cfg.oracles = true;
  cfg.clock_epoch_ns = monotonic_ns();
  return cfg;
}

using Daemons = std::vector<std::unique_ptr<daemon::NodeDaemon>>;

/// Constructs the whole cluster; returns the wall seconds it took.
double construct(const runtime::ClusterConfig& cfg, Daemons& daemons,
                 Spans& spans) {
  const int s = spans.open("NodeDaemon construction");
  const double w0 = wall_s();
  for (std::uint32_t i = 0; i < cfg.node_count(); ++i) {
    daemons.push_back(std::make_unique<daemon::NodeDaemon>(cfg, NodeId{i}));
  }
  const double took = wall_s() - w0;
  spans.close(s);
  return took;
}

/// Keeps up to kFramesPerClass encoded frames per frame class a daemon
/// sends, for the codec loops. One sampler per daemon, so each is only
/// ever touched by its daemon's thread.
class FrameSampler final : public TransportObserver {
 public:
  static const char* frame_class(wire::FrameKind k) {
    switch (k) {
      case wire::FrameKind::Event: return "event";
      case wire::FrameKind::PushDigest:
      case wire::FrameKind::SubscriberPullDigest:
      case wire::FrameKind::PublisherPullDigest:
      case wire::FrameKind::RandomPullDigest: return "digest";
      case wire::FrameKind::RecoveryRequest: return "request";
      case wire::FrameKind::RecoveryReply: return "reply";
      case wire::FrameKind::Heartbeat: return "heartbeat";
      case wire::FrameKind::Subscribe: return nullptr;
    }
    return nullptr;
  }

  void on_send(NodeId, NodeId, const Message& msg, bool) override {
    const auto kind = wire::Codec::try_kind_of(msg);
    if (!kind) return;
    const char* cls = frame_class(*kind);
    if (cls == nullptr) return;
    // Every 8th frame of a class, so the sample spans more than the
    // first moments of the run.
    if (seen_[cls]++ % 8 != 0) return;
    std::vector<std::vector<std::uint8_t>>& kept = frames_[cls];
    if (kept.size() >= kFramesPerClass) return;
    wire::WireBuffer buf;
    wire::Codec::encode(msg, buf);
    kept.emplace_back(buf.bytes().begin(), buf.bytes().end());
  }
  void on_loss(NodeId, NodeId, const Message&, bool) override {}
  void on_drop_no_link(NodeId, NodeId, const Message&) override {}

  [[nodiscard]] const std::map<std::string,
                               std::vector<std::vector<std::uint8_t>>>&
  frames() const {
    return frames_;
  }

 private:
  std::map<std::string, std::uint64_t> seen_;
  std::map<std::string, std::vector<std::vector<std::uint8_t>>> frames_;
};

/// Tight encode and decode loops over one frame class, timed per
/// repetition. Also checks that every frame decodes and re-encodes to the
/// same bytes.
std::string codec_loops(const std::string& cls,
                        const std::vector<std::vector<std::uint8_t>>& frames,
                        Spans& spans) {
  const int span = spans.open("codec:" + cls);
  std::vector<MessagePtr> msgs;
  bool roundtrip_ok = true;
  wire::WireBuffer buf;
  for (const auto& f : frames) {
    const wire::Decoded d = wire::Codec::decode(f);
    if (!d.ok()) {
      roundtrip_ok = false;
      continue;
    }
    buf.clear();
    wire::Codec::encode(*d.message(), buf);
    roundtrip_ok = roundtrip_ok &&
                   std::equal(f.begin(), f.end(), buf.bytes().begin(),
                              buf.bytes().end());
    msgs.push_back(d.message());
  }
  std::vector<double> enc_ns;
  std::vector<double> dec_ns;
  std::size_t sink = 0;
  if (!msgs.empty()) {
    for (int rep = 0; rep < kCodecReps; ++rep) {
      double t0 = wall_s();
      for (std::uint64_t i = 0; i < kCodecOpsPerRep; ++i) {
        buf.clear();
        wire::Codec::encode(*msgs[i % msgs.size()], buf);
        sink += buf.size();
      }
      enc_ns.push_back((wall_s() - t0) * 1e9 /
                       static_cast<double>(kCodecOpsPerRep));
      t0 = wall_s();
      for (std::uint64_t i = 0; i < kCodecOpsPerRep; ++i) {
        const wire::Decoded d = wire::Codec::decode(frames[i % frames.size()]);
        sink += d.ok() ? 1 : 0;
      }
      dec_ns.push_back((wall_s() - t0) * 1e9 /
                       static_cast<double>(kCodecOpsPerRep));
    }
  }
  spans.close(span);
  std::size_t bytes = 0;
  for (const auto& f : frames) bytes += f.size();
  return Json()
      .u("frames", frames.size())
      .f("mean_frame_bytes",
         frames.empty() ? 0.0
                        : static_cast<double>(bytes) /
                              static_cast<double>(frames.size()))
      .raw("encode_ns", json_numbers(enc_ns))
      .raw("decode_ns", json_numbers(dec_ns))
      .b("roundtrip_ok", roundtrip_ok)
      .u("sink", sink)
      .str();
}

struct LiveRun {
  Json json;
  std::string cpu;  // {"cpu_s", "probe_before_s", "probe_after_s"}
};

LiveRun run_live(std::uint64_t seed, double seconds, bool trace,
                 Spans& spans) {
  // Set-up: construct and tear down the cluster several times; the median
  // is the reported set-up time.
  std::vector<double> construct_s;
  for (int i = 0; i < kLiveSetupReps; ++i) {
    Daemons scratch;
    construct_s.push_back(
        construct(live_cluster(seed, seconds), scratch, spans));
  }

  // Probed before the config is made: its clock epoch starts the settle
  // period.
  ProbeChain probe(false);
  const runtime::ClusterConfig cfg = live_cluster(seed, seconds);
  // Declared before the daemons, whose runtimes point at them, so they
  // outlive those runtimes.
  std::vector<std::unique_ptr<FrameSampler>> samplers;
  const double c0 = process_cpu_s();
  Daemons daemons;
  construct_s.push_back(construct(cfg, daemons, spans));

  if (trace) {
    for (auto& d : daemons) {
      samplers.push_back(std::make_unique<FrameSampler>());
      d->runtime().add_observer(*samplers.back());
      d->runtime().profiler().enable_timing(true);
    }
  }

  std::vector<double> busy(daemons.size(), 0.0);
  std::vector<double> run_wall(daemons.size(), 0.0);
  // The loopback probe runs beside the daemons for the whole run, a short
  // burst of round trips every kLoopbackEvery. Its threads' CPU is taken
  // out of the run's.
  LoopbackProbe loopback;
  std::vector<double> loopback_rtt_us;
  std::atomic<bool> running{true};
  double sampler_cpu = 0.0;
  std::thread sampler([&]() {
    while (running.load()) {
      loopback_rtt_us.push_back(loopback.round_trip_us(kLoopbackTrips));
      std::this_thread::sleep_for(kLoopbackEvery);
    }
    sampler_cpu = thread_cpu_s();
  });
  const int run_span = spans.open("NodeDaemon::run x4");
  {
    std::vector<std::thread> threads;
    threads.reserve(daemons.size());
    for (std::size_t i = 0; i < daemons.size(); ++i) {
      threads.emplace_back([&, i]() {
        const double tc = thread_cpu_s();
        const double tw = wall_s();
        daemons[i]->run();
        run_wall[i] = wall_s() - tw;
        busy[i] = thread_cpu_s() - tc;
      });
    }
    for (std::thread& t : threads) t.join();
  }
  spans.close(run_span);
  running.store(false);
  sampler.join();
  loopback.stop();
  const double cpu =
      process_cpu_s() - c0 - sampler_cpu - loopback.echo_cpu_s();
  const Bracket bracket = probe.bracket();

  // Cluster-wide delivery accounting, mirroring the cluster harness:
  // expected receivers of (source, seq) are the other nodes subscribed to
  // one of its patterns; a source's local delivery is not counted.
  std::vector<std::set<std::uint32_t>> subs(kLiveNodes);
  for (const auto& [node, p] : cfg.subscriptions) {
    subs[node.value()].insert(p.value());
  }
  std::map<std::pair<std::uint32_t, std::uint64_t>, double> publish_t;
  for (std::uint32_t src = 0; src < kLiveNodes; ++src) {
    for (const auto& rec : daemons[src]->published()) {
      publish_t[{src, rec.seq}] = rec.t_s;
    }
  }
  std::uint64_t expected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t recovered = 0;
  std::vector<double> latency_ms;
  std::vector<double> latency_hops;  // overlay hops source -> receiver
  std::vector<double> recovered_latency_ms;
  std::vector<std::string> nodes;
  for (std::uint32_t n = 0; n < kLiveNodes; ++n) {
    std::set<std::pair<std::uint32_t, std::uint64_t>> got;
    std::uint64_t duplicates = 0;
    for (const auto& d : daemons[n]->delivered()) {
      if (!got.insert({d.source, d.seq}).second) {
        ++duplicates;
        continue;
      }
      if (d.source == n) continue;
      const auto it = publish_t.find({d.source, d.seq});
      if (it != publish_t.end()) {
        latency_ms.push_back((d.t_s - it->second) * 1e3);
        // Node i sits at position i of the line.
        latency_hops.push_back(d.source > n ? d.source - n : n - d.source);
        if (d.recovered) recovered_latency_ms.push_back(latency_ms.back());
      }
      if (d.recovered) ++recovered;
    }
    for (std::uint32_t src = 0; src < kLiveNodes; ++src) {
      if (src == n) continue;
      for (const auto& rec : daemons[src]->published()) {
        const bool match = std::any_of(
            rec.patterns.begin(), rec.patterns.end(),
            [&](std::uint32_t p) { return subs[n].count(p) > 0; });
        if (!match) continue;
        ++expected;
        if (got.count({src, rec.seq}) > 0) ++delivered;
      }
    }

    daemon::NodeDaemon& d = *daemons[n];
    const auto& ts = d.runtime().stats();
    GossipStats gs;
    std::size_t cache_bytes = 0;
    if (const GossipStats* g = d.dispatcher().recovery()->gossip_stats()) {
      gs = *g;
    }
    if (const EventCache* c = d.dispatcher().recovery()->event_cache()) {
      cache_bytes = c->memory_bytes();
    }
    nodes.push_back(
        Json()
            .u("node", n)
            .u("published", d.published().size())
            .u("duplicates", duplicates)
            .u("oracle_checks",
               d.oracles() != nullptr ? d.oracles()->checks() : 0)
            .u("datagrams_sent", ts.datagrams_sent)
            .u("bytes_sent", ts.bytes_sent)
            .u("send_failures", ts.send_failures)
            .u("decode_errors", ts.decode_errors)
            .u("queue_overflows", ts.queue_overflows)
            .u("drops_injected", ts.drops_injected)
            .u("drops_no_link", ts.drops_no_link)
            .u("timers_fired", ts.timers_fired)
            .u("heartbeats_sent", ts.heartbeats_sent)
            .f("loop_cpu_s", busy[n])
            .f("run_wall_s", run_wall[n])
            .raw("gossip", gossip_json(gs))
            .raw("pool", pool_json(d.runtime().pool().stats()))
            .raw("phases", phases_json(d.runtime().profiler().snapshot()))
            .raw("memory",
                 Json()
                     .u("routing", d.dispatcher().routing_memory_bytes())
                     .u("seen", d.dispatcher().seen_memory_bytes())
                     .u("cache", cache_bytes)
                     .str())
            .str());
  }

  Json codec;
  if (trace) {
    std::map<std::string, std::vector<std::vector<std::uint8_t>>> frames;
    for (const auto& s : samplers) {
      for (const auto& [cls, fs] : s->frames()) {
        auto& all = frames[cls];
        all.insert(all.end(), fs.begin(), fs.end());
      }
    }
    // Combined pull never sends a recovery request (the digest carries the
    // losses and the reply comes straight back), so request frames are
    // built from the captured replies: the request that names exactly the
    // events a reply carried.
    if (frames["request"].empty()) {
      for (const auto& reply : frames["reply"]) {
        const wire::Decoded d = wire::Codec::decode(reply);
        const auto* msg =
            d.ok()
                ? dynamic_cast<const RecoveryReplyMessage*>(d.message().get())
                : nullptr;
        if (msg == nullptr) continue;
        std::vector<EventId> ids;
        for (const EventPtr& e : msg->events()) ids.push_back(e->id());
        wire::WireBuffer buf;
        wire::Codec::encode(
            RecoveryRequestMessage(msg->gossiper(), msg->size_bytes(), ids),
            buf);
        frames["request"].emplace_back(buf.bytes().begin(), buf.bytes().end());
      }
    }
    for (const auto& [cls, fs] : frames) {
      codec.raw(cls, codec_loops(cls, fs, spans));
    }
  }

  LiveRun run;
  run.cpu = Json().f("cpu_s", cpu).probes(bracket).str();
  run.json.raw("construct_s", json_numbers(construct_s))
      .raw("cpu", run.cpu)
      .f("run_s", seconds)
      .f("rate_hz", kLiveRateHz)
      .u("publishers", kLiveNodes)
      .u("expected_pairs", expected)
      .u("delivered_pairs", delivered)
      .u("recovered_pairs", recovered)
      .raw("latency_ms", json_numbers(latency_ms))
      .raw("latency_hops", json_numbers(latency_hops))
      .raw("loopback_rtt_us", json_numbers(loopback_rtt_us))
      .raw("recovered_latency_ms", json_numbers(recovered_latency_ms))
      .raw("nodes", json_array(nodes))
      .raw("codec", codec.str());
  return run;
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench_workload --workload "
               "paper-tree|scale-ba|live-lossy --seed N --seconds S "
               "--trace 0|1\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = value == "1" ? 1 : value == "0" ? 0 : -1;
    } else {
      usage();
    }
  }
  if (argc % 2 == 0 || seconds <= 0.0 || trace < 0 ||
      (workload != "paper-tree" && workload != "scale-ba" &&
       workload != "live-lossy")) {
    usage();
  }

  // The whole process, daemon threads included, runs on one core. Left to
  // the scheduler, where the daemon threads land decides whether a hop
  // wakes a thread on its own core or on another, and that alone moves the
  // loopback p50 by a quarter from run to run; the four daemon loops
  // together keep one core about a fifth busy. The simulator is
  // single-threaded and loses nothing.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    // The last allowed core: the first is where interrupts usually land.
    int core = CPU_SETSIZE - 1;
    while (core > 0 && !CPU_ISSET(core, &allowed)) --core;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(core, &one);
    ::sched_setaffinity(0, sizeof(one), &one);
  }

  Spans spans(trace == 1);
  const double w0 = wall_s();
  Json out;
  if (workload == "live-lossy") {
    // The traced pass runs the cluster once untraced first, so it can
    // report its own overhead as the difference in CPU seconds.
    std::string untraced_cpu = "null";
    if (trace == 1) {
      Spans off(false);
      untraced_cpu = run_live(seed, seconds, false, off).cpu;
    }
    out = run_live(seed, seconds, trace == 1, spans).json;
    out.raw("untraced_cpu", untraced_cpu);
  } else {
    out = run_sim(workload, seed, trace == 1, spans);
  }
#ifdef __OPTIMIZE__
  constexpr bool optimized = true;
#else
  constexpr bool optimized = false;
#endif
  out.s("workload", workload)
      .u("seed", seed)
      .f("wall_s", wall_s() - w0)
      .f("peak_rss_mb", peak_rss_mb())
      .raw("build", Json()
                        .s("type", PERFBENCH_BUILD_TYPE)
                        .b("optimized", optimized)
                        .b("oracles_compiled", PERFBENCH_ORACLES_COMPILED != 0)
                        .str())
      .raw("spans", spans.json());
  std::printf("%s\n", out.str().c_str());
  return 0;
}
