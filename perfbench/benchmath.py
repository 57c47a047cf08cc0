"""The benchmark's own arithmetic: percentiles, ratios, medians and the
mapping from the workload binary's raw output to the metrics
BENCHMARK.json declares.

Kept free of I/O so perfbench/tests/test_benchmath.py can check it without
a build.
"""

import math
import statistics

# HotpathProfiler phase, as the workload binary prints it -> per-layer
# metric prefix.
PHASE_LAYERS = {
    "dispatch": "pubsub.dispatch",
    "forward": "pubsub.forward",
    "control": "pubsub.control",
    "gossip_round": "gossip.round",
    "gossip_handle": "gossip.handle",
    "cache_op": "gossip.cache",
    "transport_overlay": "net.overlay_send",
    "transport_direct": "net.direct_send",
}
# Phases reported with ns/op as well as ops. The others are only counted:
# control traffic is a handful of floods and direct sends are timed inside
# the gossip phases that issue them.
TIMED_PHASES = ("dispatch", "forward", "gossip_round", "gossip_handle",
                "cache_op", "transport_overlay")

# GossipStats counters that each count one gossip message sent.
GOSSIP_SENDS = ("digests_originated", "digests_forwarded", "requests_sent",
                "replies_sent")

CODEC_CLASSES = ("event", "digest", "request", "reply", "heartbeat")

# At least this many samples must lie beyond a reported percentile.
MIN_TAIL_SAMPLES = 10

# CPU seconds the workload binary's host-speed probe typically takes on the
# 4-vCPU Xeon VM the bounds were set on. CPU times are reported scaled to
# that speed; see host_scaled().
PROBE_NOMINAL_S = 0.25
# Reference time of the memory probe, which the simulator workloads add.
# Its slowdown against this counts equally with the CPU probe's, so the
# value sets the two probes' weights; it was the probe's time when they
# were chosen (later runs on the same VM read ~0.09 s).
MEMORY_PROBE_NOMINAL_S = 0.115

# Median loopback round trip, in microseconds, of the workload binary's
# loopback probe on that VM. The one-hop latency is reported scaled to it;
# see one_hop_p50_ms().
LOOPBACK_NOMINAL_US = 11.0


def median(values):
    return statistics.median(values)


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least a share
    q of all samples at or below it (0 < q <= 1)."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"percentile rank {q} outside (0, 1]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def tail_samples(n, q):
    """Samples strictly beyond the nearest-rank q-th percentile of n."""
    return n - max(1, math.ceil(q * n))


def reportable(n, q):
    """True when the q-th percentile of n samples has enough tail."""
    return tail_samples(n, q) >= MIN_TAIL_SAMPLES


def ratio(numerator, denominator):
    """numerator / denominator, 0 for an empty base."""
    return numerator / denominator if denominator else 0.0


def publish_lag(achieved, offered):
    """How far the open-loop generator fell behind: 1 - achieved/offered."""
    return 1.0 - ratio(achieved, offered)


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first, second, better):
    """How much worse the median of `second` is than that of `first`, as a
    share of the first median; negative when it is better. `better` is
    "lower" or "higher", as BENCHMARK.json declares it."""
    a, b = statistics.median(first), statistics.median(second)
    change = (b - a) / a
    return change if better == "lower" else -change


def host_scaled(segment):
    """CPU seconds of a timed segment at the probes' nominal host speed.

    The workload binary brackets every timed segment between two runs of a
    fixed probe kernel that uses no epicast code. On a shared host a core's
    speed swings by up to 2.5x within minutes, and the segment's CPU time
    with it; dividing by the probes' mean and multiplying by their nominal
    time removes most of that swing. Simulator segments also carry the
    memory probe, whose chain slows when neighbours crowd the last-level
    cache; the segment is then divided by the mean of the two probes'
    slowdowns. A change to epicast moves the segment and not the probes."""
    slowdown = ((segment["probe_before_s"] + segment["probe_after_s"]) / 2 /
                PROBE_NOMINAL_S)
    if "memory_before_s" in segment:
        memory = ((segment["memory_before_s"] + segment["memory_after_s"]) /
                  2 / MEMORY_PROBE_NOMINAL_S)
        slowdown = (slowdown + memory) / 2
    return segment["cpu_s"] / slowdown


def host_slowdown(segments, kind="probe"):
    """Median probe time over its nominal, for the CPU probe ("probe") or
    the memory probe ("memory"): 1 at the typical host speed."""
    nominal = PROBE_NOMINAL_S if kind == "probe" else MEMORY_PROBE_NOMINAL_S
    probes = [s[f"{kind}_{k}_s"] for s in segments for k in ("before", "after")]
    return median(probes) / nominal


def phase_metrics(phases):
    """Per-layer ops and ns/op from {phase: {"ops": n, "ns": t}}."""
    out = {}
    for phase, layer in PHASE_LAYERS.items():
        totals = phases.get(phase, {"ops": 0, "ns": 0})
        out[f"{layer}.ops"] = totals["ops"]
        if phase in TIMED_PHASES:
            out[f"{layer}.ns_per_op"] = ratio(totals["ns"], totals["ops"])
    return out


def sum_phases(phase_dicts):
    total = {}
    for phases in phase_dicts:
        for name, t in phases.items():
            acc = total.setdefault(name, {"ops": 0, "ns": 0})
            acc["ops"] += t["ops"]
            acc["ns"] += t["ns"]
    return total


def sum_field(items, *path):
    total = 0
    for item in items:
        value = item
        for key in path:
            value = value[key]
        total += value
    return total


# -- simulator workloads -------------------------------------------------------

def rep_cpu(rep):
    """Host-scaled CPU seconds of one repetition: its scenarios' sum."""
    return sum(host_scaled(s) for s in rep["scenarios"])


def sim_speeds(reps):
    """Each algorithm's median host-scaled CPU seconds per simulated event
    over the repetitions.

    A neighbour on a shared host slows a memory-bound scenario by up to half
    for seconds at a time, and the probes catch only part of it. Per event,
    the repetitions' seeds cost nearly the same, so the median over them
    drops a slowed repetition where a sum of CPU times would keep it."""
    per_event = {}
    for rep in reps:
        for s in rep["scenarios"]:
            per_event.setdefault(s["algorithm"], []).append(
                host_scaled(s) / s["sim_events"])
    return {a: median(v) for a, v in per_event.items()}


def typical_cpu(scenario, speeds):
    """Host-scaled CPU seconds of a scenario at its algorithm's median speed
    in the run: the scenario's own work times that speed."""
    return speeds[scenario["algorithm"]] * scenario["sim_events"]


def sim_delivery(reps):
    """(expected, delivered) pairs summed over the repetitions' scenarios."""
    scenarios = [s for r in reps for s in r["scenarios"]]
    return (sum_field(scenarios, "expected_pairs"),
            sum_field(scenarios, "delivered_pairs"))


def sim_recovery_scenario(rep):
    """The scenario whose simulated recovery latencies are reported:
    combined pull, the paper's best variant and scale-ba's only one."""
    for s in rep["scenarios"]:
        if s["algorithm"] == "combined-pull":
            return s
    raise ValueError("no combined-pull scenario in the repetition")


def scenario_latencies_ms(reps):
    """Time to the result of one combined-pull run_scenario call, in CPU ms
    at the run's median speed, over the untraced repetitions. One algorithm
    only: the three of paper-tree differ in cost, and a statistic over their
    mixture jumps between them. The simulator is single-threaded, so CPU
    time is its run time without host steal."""
    speeds = sim_speeds(reps)
    return [typical_cpu(sim_recovery_scenario(r), speeds) * 1e3 for r in reps]


def sim_end_to_end(raw):
    """Each untraced repetition runs the workload on its own seed, so the
    run's figures pool them: CPU per repetition is the mean, delivery and
    throughput are over all pairs of all repetitions. Every scenario's CPU
    is its work at its algorithm's median speed in the run (sim_speeds)."""
    reps = raw["reps"]
    speeds = sim_speeds(reps)
    cpu = sum(typical_cpu(s, speeds) for r in reps for s in r["scenarios"])
    expected, delivered = sim_delivery(reps)
    # One latency sample per repetition supports no tail percentile, so
    # both latency metrics carry the median on the sim workloads.
    lat = median(scenario_latencies_ms(reps))
    return {
        "cpu_s": cpu / len(reps),
        "setup_s": median([host_scaled(s) for s in raw["setup"]]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "delivery_rate": ratio(delivered, expected),
        "deliveries_per_s": ratio(delivered, cpu),
        "latency_p50_ms": lat,
        "latency_p99_ms": lat,
        "cpu_us_per_delivery": ratio(cpu * 1e6, delivered),
    }


def sim_operations(raw):
    """(attempted, failed) scenario runs. A failing run aborts the
    workload binary, so a run that reports has failed none."""
    setup = len(raw["setup"]) * len(raw["reps"][0]["scenarios"])
    reps = raw["reps"] + raw["traced_reps"] + raw["oracles_off_reps"]
    return setup + sum(len(r["scenarios"]) for r in reps), 0


def sim_checks(raw, pinned_rate=None):
    """Output checks of a sim run; returns a list of failure messages."""
    failures = []
    all_reps = raw["reps"] + raw["traced_reps"]
    for rep in all_reps:
        for s in rep["scenarios"]:
            if s["oracle_checks"] <= 0:
                failures.append(f"{s['algorithm']}: oracles made no checks")
    # The simulator is deterministic: the traced and oracles-off repetitions
    # run the first repetition's seed and must reproduce its outcome.
    reference = [(s["delivery_rate"], s["sim_events"])
                 for s in raw["reps"][0]["scenarios"]]
    for rep in raw["traced_reps"] + raw["oracles_off_reps"]:
        got = [(s["delivery_rate"], s["sim_events"]) for s in rep["scenarios"]]
        if got != reference:
            failures.append("repetitions of one seed disagree")
            break
    expected, delivered = sim_delivery(raw["reps"][:1])
    rate = ratio(delivered, expected)
    if not 0.0 < rate <= 1.0:
        failures.append(f"delivery rate {rate} outside (0, 1]")
    if pinned_rate is not None and rate != pinned_rate:
        failures.append(f"delivery rate {rate!r} != pinned {pinned_rate!r}")
    return failures


def sim_per_layer(raw):
    untraced = median([rep_cpu(r) for r in raw["reps"]])
    traced = median([rep_cpu(r) for r in raw["traced_reps"]])
    no_oracles = median([rep_cpu(r) for r in raw["oracles_off_reps"]])
    segments = raw["setup"] + [
        s for r in raw["reps"] + raw["traced_reps"] + raw["oracles_off_reps"]
        for s in r["scenarios"]]
    scenarios = raw["traced_reps"][0]["scenarios"]
    recovery = sim_recovery_scenario(raw["reps"][0])

    # Scenarios of a repetition run one after another, so the footprint a
    # repetition needs is that of its largest scenario.
    def max_mem(key):
        return max(s["memory"][key] for s in scenarios)

    events = sum_field(scenarios, "sim_events")
    expected, delivered = sim_delivery(raw["traced_reps"])
    state_bytes = sum(max_mem(k) for k in
                      ("topology", "routing", "seen", "cache", "tracker"))
    out = {
        "sim.events": events,
        "sim.ns_per_event": ratio(untraced * 1e9, events),
        "pubsub.routing_bytes": max_mem("routing"),
        "pubsub.seen_bytes": max_mem("seen"),
        "gossip.cache_bytes": max_mem("cache"),
        "gossip.msgs_per_dispatcher":
            sum_field(scenarios, "gossip_msgs_per_dispatcher") /
            len(scenarios),
        "gossip.recovered_per_served": ratio(
            sum_field(scenarios, "gossip", "events_recovered"),
            sum_field(scenarios, "gossip", "events_served")),
        "gossip.request_timeouts":
            sum_field(scenarios, "gossip", "request_timeouts"),
        "gossip.request_retries":
            sum_field(scenarios, "gossip", "request_retries"),
        "gossip.requests_abandoned":
            sum_field(scenarios, "gossip", "requests_abandoned"),
        "net.topology_bytes": max_mem("topology"),
        "net.drops_no_link": sum_field(scenarios, "drops_no_link"),
        "common.pool_allocations": sum_field(scenarios, "pool", "allocations"),
        "common.pool_reuse_share": ratio(
            sum_field(scenarios, "pool", "reuses"),
            sum_field(scenarios, "pool", "allocations")),
        "common.pool_slab_bytes": max(s["pool"]["slab_bytes"]
                                      for s in scenarios),
        "metrics.tracker_bytes": max_mem("tracker"),
        "metrics.state_share_of_rss": ratio(
            state_bytes, raw["peak_rss_mb"] * 1024 * 1024),
        "oracle.checks": sum_field(scenarios, "oracle_checks"),
        "oracle.cpu_share": 1.0 - ratio(no_oracles, untraced),
        "delivery.pairs_expected": expected,
        "delivery.pairs_undelivered": expected - delivered,
        "latency.samples": len(scenario_latencies_ms(raw["reps"])),
        "gossip.recovery_p50_ms": recovery["recovery_latency_p50_s"] * 1e3,
        "gossip.recovery_p99_ms": recovery["recovery_latency_p99_s"] * 1e3,
        "gossip.recovery_samples": recovery["recovered_pairs"],
        "trace.overhead_cpu_s": traced - untraced,
        "trace.overhead_share": ratio(traced - untraced, untraced),
        "diag.wall_s": median([r["wall_s"] for r in raw["reps"]]),
        "diag.cpu_s_unscaled":
            sum_field(raw["reps"][0]["scenarios"], "cpu_s"),
        "host.slowdown": host_slowdown(segments),
        "host.memory_slowdown": host_slowdown(segments, "memory"),
    }
    out.update(phase_metrics(sum_phases(s["phases"] for s in scenarios)))
    return out


# -- live-lossy ----------------------------------------------------------------

def one_hop_latencies_ms(raw):
    """Publish->deliver latencies of the pairs one overlay hop apart."""
    return [lat for lat, hops in zip(raw["latency_ms"], raw["latency_hops"])
            if hops == 1]


def one_hop_p50_ms(raw):
    """Median one-hop latency at the loopback probe's nominal speed.

    Why one hop: on the 0-1-2-3 line every ordered pair of daemons gets the
    same share of deliveries, and exactly half of the pairs are neighbours,
    so the median over all pairs sits on the edge between the one-hop and
    the two-hop latency and jumps between them from run to run. Why scaled:
    on a shared host the kernel path of a hop (sendto, wake-up, context
    switch, recv) slows by up to 2x over tens of seconds, and the loopback
    probe, which takes that path with no epicast code, slows with it. A
    change to epicast moves the latency and not the probe."""
    return (percentile(one_hop_latencies_ms(raw), 0.50) *
            LOOPBACK_NOMINAL_US / median(raw["loopback_rtt_us"]))


def live_cpu(raw):
    """Process CPU seconds of the live run at nominal host speed. Most of it
    is the kernel path of datagrams and wake-ups, so the run is divided by
    the mean of the CPU probe's and the loopback probe's slowdowns; over ten
    runs this cut the spread to 0.06, against 0.15 for the CPU probe alone."""
    cpu = raw["cpu"]
    slowdown = ((cpu["probe_before_s"] + cpu["probe_after_s"]) / 2 /
                PROBE_NOMINAL_S +
                median(raw["loopback_rtt_us"]) / LOOPBACK_NOMINAL_US) / 2
    return cpu["cpu_s"] / slowdown


def live_end_to_end(raw):
    delivered = raw["delivered_pairs"]
    lat = raw["latency_ms"]
    cpu = live_cpu(raw)
    return {
        "cpu_s": cpu,
        "setup_s": median(raw["construct_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "delivery_rate": ratio(delivered, raw["expected_pairs"]),
        "deliveries_per_s": ratio(delivered, raw["run_s"]),
        "latency_p50_ms": one_hop_p50_ms(raw),
        "latency_p99_ms": percentile(lat, 0.99),
        "cpu_us_per_delivery": ratio(cpu * 1e6, delivered),
    }


def live_checks(raw, traced):
    failures = []
    for node in raw["nodes"]:
        n = node["node"]
        if node["duplicates"] != 0:
            failures.append(
                f"node {n}: {node['duplicates']} duplicate deliveries")
        if node["decode_errors"] != 0:
            failures.append(f"node {n}: {node['decode_errors']} decode errors")
        if node["oracle_checks"] <= 0:
            failures.append(f"node {n}: oracles made no checks")
    if raw["expected_pairs"] <= 0 or raw["delivered_pairs"] <= 0:
        failures.append("no deliveries")
    if not reportable(len(raw["latency_ms"]), 0.99):
        failures.append(
            f"only {len(raw['latency_ms'])} latency samples: too few for p99")
    if not reportable(len(one_hop_latencies_ms(raw)), 0.50):
        failures.append("too few one-hop latency samples for a p50")
    if not raw["loopback_rtt_us"]:
        failures.append("the loopback probe took no samples")
    if traced:
        for cls in CODEC_CLASSES:
            c = raw["codec"].get(cls)
            if c is None or c["frames"] == 0:
                failures.append(f"no {cls} frames captured for the codec loops")
            elif not c["roundtrip_ok"]:
                failures.append(f"{cls} frames do not round-trip")
    return failures


def live_operations(raw):
    """(attempted, failed) datagram sends: a send fails when sendto errors
    or the receiver's inbound queue overflows."""
    attempted = sum_field(raw["nodes"], "datagrams_sent")
    failed = (sum_field(raw["nodes"], "send_failures") +
              sum_field(raw["nodes"], "queue_overflows"))
    return attempted, failed


def live_per_layer(raw):
    nodes = raw["nodes"]
    delivered = raw["delivered_pairs"]
    wall = max(n["run_wall_s"] for n in nodes)
    busy = [ratio(n["loop_cpu_s"], n["run_wall_s"]) for n in nodes]
    offered = raw["rate_hz"] * raw["run_s"] * raw["publishers"]
    attempted, _ = live_operations(raw)
    traced = host_scaled(raw["cpu"])
    untraced = host_scaled(raw["untraced_cpu"])
    out = {
        "pubsub.routing_bytes": sum_field(nodes, "memory", "routing"),
        "pubsub.seen_bytes": sum_field(nodes, "memory", "seen"),
        "gossip.cache_bytes": sum_field(nodes, "memory", "cache"),
        "gossip.msgs_per_dispatcher": ratio(
            sum(sum_field(nodes, "gossip", k) for k in GOSSIP_SENDS),
            len(nodes)),
        "gossip.recovered_per_served": ratio(
            sum_field(nodes, "gossip", "events_recovered"),
            sum_field(nodes, "gossip", "events_served")),
        "gossip.request_timeouts":
            sum_field(nodes, "gossip", "request_timeouts"),
        "gossip.request_retries": sum_field(nodes, "gossip", "request_retries"),
        "gossip.requests_abandoned":
            sum_field(nodes, "gossip", "requests_abandoned"),
        "net.drops_no_link": sum_field(nodes, "drops_no_link"),
        "common.pool_allocations": sum_field(nodes, "pool", "allocations"),
        "common.pool_reuse_share": ratio(
            sum_field(nodes, "pool", "reuses"),
            sum_field(nodes, "pool", "allocations")),
        "common.pool_slab_bytes": sum_field(nodes, "pool", "slab_bytes"),
        "oracle.checks": sum_field(nodes, "oracle_checks"),
        "wire.bytes_per_delivery": ratio(sum_field(nodes, "bytes_sent"),
                                         delivered),
        "runtime.datagrams_per_delivery": ratio(attempted, delivered),
        "runtime.loop_busy_share.mean": sum(busy) / len(busy),
        "runtime.loop_busy_share.max": max(busy),
        "runtime.timers_per_s": ratio(sum_field(nodes, "timers_fired"), wall),
        "runtime.publish_lag": publish_lag(sum_field(nodes, "published"),
                                           offered),
        "runtime.datagrams_sent": attempted,
        "runtime.queue_overflows": sum_field(nodes, "queue_overflows"),
        "runtime.send_failures": sum_field(nodes, "send_failures"),
        "runtime.decode_errors": sum_field(nodes, "decode_errors"),
        "daemon.construct_s": median(raw["construct_s"]),
        "daemon.recovered_share": ratio(raw["recovered_pairs"], delivered),
        "daemon.heartbeats_per_s": ratio(
            sum_field(nodes, "heartbeats_sent"), wall),
        "delivery.pairs_expected": raw["expected_pairs"],
        "delivery.pairs_undelivered": raw["expected_pairs"] - delivered,
        "latency.samples": len(raw["latency_ms"]),
        "latency.one_hop_p50_unscaled_ms":
            percentile(one_hop_latencies_ms(raw), 0.50),
        "host.loopback_rtt_us": median(raw["loopback_rtt_us"]),
        "gossip.recovery_p50_ms": percentile(raw["recovered_latency_ms"], 0.50),
        "gossip.recovery_p99_ms": percentile(raw["recovered_latency_ms"], 0.99),
        "gossip.recovery_samples": len(raw["recovered_latency_ms"]),
        "trace.overhead_cpu_s": traced - untraced,
        "trace.overhead_share": ratio(traced - untraced, untraced),
        "diag.wall_s": raw["wall_s"],
        "diag.cpu_s_unscaled": raw["cpu"]["cpu_s"],
        "host.slowdown": host_slowdown([raw["cpu"], raw["untraced_cpu"]]),
    }
    for cls in CODEC_CLASSES:
        c = raw["codec"][cls]
        # Median over the timed repetitions of the codec loops.
        out[f"wire.encode_ns.{cls}"] = median(c["encode_ns"])
        out[f"wire.decode_ns.{cls}"] = median(c["decode_ns"])
    out.update(phase_metrics(sum_phases(n["phases"] for n in nodes)))
    return out
