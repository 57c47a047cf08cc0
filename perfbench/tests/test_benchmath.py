"""Tests of the benchmark's own arithmetic (perfbench/benchmath.py).

    python3 -m unittest discover -s perfbench/tests

They need no build: the workload binary's raw output is replaced by small
synthetic documents of the same shape.
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
sys.path.insert(0, PERFBENCH)

import benchmath as bm  # noqa: E402

PHASES = ("dispatch", "forward", "control", "gossip_round", "gossip_handle",
          "cache_op", "transport_overlay", "transport_direct")


def phases(ops=10, ns=1000):
    return {p: {"ops": ops, "ns": ns} for p in PHASES}


def gossip(**kw):
    g = {k: 0 for k in ("rounds", "digests_originated", "digests_forwarded",
                        "requests_sent", "replies_sent", "events_served",
                        "events_recovered", "request_timeouts",
                        "request_retries", "requests_abandoned")}
    g.update(kw)
    return g


NOMINAL = bm.PROBE_NOMINAL_S


def timed(cpu_s, slowdown=1.0):
    """A timed segment whose CPU probes ran `slowdown` times their nominal."""
    return {"cpu_s": cpu_s, "probe_before_s": NOMINAL * slowdown,
            "probe_after_s": NOMINAL * slowdown}


def sim_timed(cpu_s, slowdown=1.0):
    """A simulator segment: both probes ran `slowdown` times nominal."""
    seg = timed(cpu_s, slowdown)
    seg["memory_before_s"] = seg["memory_after_s"] = (
        bm.MEMORY_PROBE_NOMINAL_S * slowdown)
    return seg


def scenario(algorithm, cpu_s=1.0, expected=1000, delivered=900,
             rate=0.9, events=5000, checks=7):
    return {
        "algorithm": algorithm, **sim_timed(cpu_s), "delivery_rate": rate,
        "expected_pairs": expected, "delivered_pairs": delivered,
        "recovered_pairs": 50, "recovery_latency_p50_s": 0.5,
        "recovery_latency_p99_s": 1.5, "events_published": 100,
        "sim_events": events, "oracle_checks": checks, "wall_s": cpu_s,
        "gossip_msgs_per_dispatcher": 4.0, "drops_no_link": 0,
        "gossip": gossip(events_served=40, events_recovered=30),
        "memory": {"topology": 1, "routing": 2, "seen": 3, "cache": 4,
                   "tracker": 5},
        "pool": {"allocations": 100, "reuses": 90, "slab_bytes": 65536},
        "phases": phases(),
    }


def sim_rep(cpu_s=3.0, **kw):
    """Three scenarios whose CPU seconds add up to cpu_s."""
    scenarios = [scenario("push", cpu_s=cpu_s / 3, **kw),
                 scenario("combined-pull", cpu_s=cpu_s / 2, **kw),
                 scenario("random-pull", cpu_s=cpu_s / 6, **kw)]
    return {"wall_s": cpu_s * 1.1, "scenarios": scenarios}


def sim_raw():
    return {
        "setup": [sim_timed(0.3), sim_timed(0.1), sim_timed(0.2)],
        "reps": [sim_rep(3.0), sim_rep(5.0)],
        "traced_reps": [sim_rep(4.4)],
        "oracles_off_reps": [sim_rep(2.0)],
        "peak_rss_mb": 100.0,
        "spans": [],
    }


def live_node(n, **kw):
    node = {
        "node": n, "published": 800, "duplicates": 0, "oracle_checks": 5,
        "datagrams_sent": 1000, "bytes_sent": 200000, "send_failures": 0,
        "decode_errors": 0, "queue_overflows": 0, "drops_injected": 3,
        "drops_no_link": 0, "timers_fired": 500, "heartbeats_sent": 40,
        "loop_cpu_s": 0.5, "run_wall_s": 10.0,
        "gossip": gossip(digests_originated=10, digests_forwarded=5,
                         replies_sent=5, events_served=8,
                         events_recovered=6),
        "pool": {"allocations": 100, "reuses": 50, "slab_bytes": 4096},
        "phases": phases(),
        "memory": {"routing": 10, "seen": 20, "cache": 30},
    }
    node.update(kw)
    return node


def codec():
    return {c: {"frames": 4, "mean_frame_bytes": 20.0,
                "encode_ns": [100.0, 900.0, 90.0],
                "decode_ns": [150.0, 140.0, 160.0, 5000.0],
                "roundtrip_ok": True, "sink": 1}
            for c in bm.CODEC_CLASSES}


def live_raw(samples=2000):
    return {
        "construct_s": [3e-4, 1e-4, 2e-4],
        "cpu": timed(2.0), "untraced_cpu": timed(1.5), "run_s": 10.0,
        "rate_hz": 100.0, "publishers": 4,
        "expected_pairs": 5000, "delivered_pairs": 4000,
        "recovered_pairs": 400,
        "latency_ms": [float(i) for i in range(1, samples + 1)],
        # Odd latencies are one hop, even ones two.
        "latency_hops": [1 if i % 2 else 2 for i in range(1, samples + 1)],
        "loopback_rtt_us": [bm.LOOPBACK_NOMINAL_US, 2 * bm.LOOPBACK_NOMINAL_US,
                            2 * bm.LOOPBACK_NOMINAL_US],
        "recovered_latency_ms": [float(i) for i in range(1, 101)],
        "nodes": [live_node(n) for n in range(4)],
        "codec": codec(), "peak_rss_mb": 20.0, "wall_s": 12.0, "spans": [],
    }


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(100, 0, -1))  # unsorted on purpose
        self.assertEqual(bm.percentile(values, 0.50), 50)
        self.assertEqual(bm.percentile(values, 0.99), 99)
        self.assertEqual(bm.percentile(values, 1.0), 100)
        self.assertEqual(bm.percentile([7.0], 0.99), 7.0)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            bm.percentile([], 0.5)
        with self.assertRaises(ValueError):
            bm.percentile([1, 2], 0.0)
        with self.assertRaises(ValueError):
            bm.percentile([1, 2], 1.5)

    def test_p99_needs_ten_samples_beyond_it(self):
        self.assertEqual(bm.tail_samples(1000, 0.99), 10)
        self.assertTrue(bm.reportable(1000, 0.99))
        self.assertFalse(bm.reportable(999, 0.99))
        self.assertTrue(bm.reportable(20, 0.50))
        self.assertFalse(bm.reportable(19, 0.50))
        # The p99 of 1000 samples leaves exactly ten above it.
        values = list(range(1, 1001))
        p99 = bm.percentile(values, 0.99)
        self.assertEqual(sum(1 for v in values if v > p99), 10)

    def test_live_run_with_too_few_samples_fails_its_check(self):
        failures = bm.live_checks(live_raw(samples=999), traced=False)
        self.assertTrue(any("too few for p99" in f for f in failures))
        self.assertEqual(bm.live_checks(live_raw(samples=1000), False), [])


class RatioTest(unittest.TestCase):
    def test_empty_base_is_zero(self):
        self.assertEqual(bm.ratio(5, 0), 0.0)
        self.assertEqual(bm.ratio(6, 3), 2.0)

    def test_publish_lag_is_one_minus_achieved_over_offered(self):
        self.assertAlmostEqual(bm.publish_lag(800, 1000), 0.2)
        self.assertEqual(bm.publish_lag(1000, 1000), 0.0)

    def test_live_end_to_end_bases(self):
        raw = live_raw()
        m = bm.live_end_to_end(raw)
        # The CPU probe ran at nominal and the loopback probe at twice it:
        # the run's 2 CPU seconds are divided by their mean slowdown, 1.5.
        self.assertAlmostEqual(m["cpu_s"], 2.0 / 1.5)
        # Per delivered (event, subscriber) pair, not per event published.
        self.assertAlmostEqual(m["cpu_us_per_delivery"], 2.0e6 / 1.5 / 4000)
        # Per second of the publish window, not of the whole run.
        self.assertAlmostEqual(m["deliveries_per_s"], 4000 / 10.0)
        self.assertAlmostEqual(m["delivery_rate"], 4000 / 5000)
        self.assertAlmostEqual(m["setup_s"], 2e-4)
        self.assertEqual(m["latency_p99_ms"], 1980.0)

    def test_live_p50_is_one_hop_at_nominal_loopback_speed(self):
        raw = live_raw()
        # The one-hop samples are 1, 3, ..., 1999: their nearest-rank median
        # is the 500th, 999. The probe's median round trip is twice its
        # nominal, so the reported latency is half of it.
        self.assertEqual(bm.percentile(bm.one_hop_latencies_ms(raw), 0.5),
                         999.0)
        m = bm.live_end_to_end(raw)
        self.assertAlmostEqual(m["latency_p50_ms"], 999.0 / 2)
        pl = bm.live_per_layer(raw)
        self.assertEqual(pl["latency.one_hop_p50_unscaled_ms"], 999.0)
        self.assertEqual(pl["host.loopback_rtt_us"], 2 * bm.LOOPBACK_NOMINAL_US)

    def test_live_run_needs_one_hop_and_loopback_samples(self):
        raw = live_raw()
        raw["latency_hops"] = [2] * len(raw["latency_ms"])
        raw["loopback_rtt_us"] = []
        failures = bm.live_checks(raw, traced=False)
        self.assertTrue(any("one-hop" in f for f in failures))
        self.assertTrue(any("loopback" in f for f in failures))

    def test_live_per_layer_bases(self):
        m = bm.live_per_layer(live_raw())
        # Useful outcomes per retransmission: recovered per served event.
        self.assertAlmostEqual(m["gossip.recovered_per_served"], 24 / 32)
        self.assertAlmostEqual(m["runtime.datagrams_per_delivery"], 4000 / 4000)
        self.assertAlmostEqual(m["wire.bytes_per_delivery"], 800000 / 4000)
        # Offered = rate x publish window x publishers.
        self.assertAlmostEqual(m["runtime.publish_lag"], 1 - 3200 / 4000)
        self.assertAlmostEqual(m["runtime.loop_busy_share.mean"], 0.05)
        self.assertAlmostEqual(m["daemon.recovered_share"], 400 / 4000)
        self.assertAlmostEqual(m["gossip.msgs_per_dispatcher"], 20.0)
        self.assertAlmostEqual(m["trace.overhead_cpu_s"], 0.5)
        self.assertAlmostEqual(m["trace.overhead_share"], 0.5 / 1.5)
        # Codec ns/op: the median of the timed repetitions, so one slow
        # repetition does not move it.
        self.assertEqual(m["wire.encode_ns.event"], 100.0)
        self.assertEqual(m["wire.decode_ns.reply"], 155.0)

    def test_sim_bases(self):
        raw = sim_raw()
        m = bm.sim_end_to_end(raw)
        self.assertEqual(m["cpu_s"], 4.0)  # mean of the untraced reps
        self.assertAlmostEqual(m["setup_s"], 0.2)
        self.assertAlmostEqual(m["delivery_rate"], 2700 / 3000)
        # Pooled over both repetitions: 5400 pairs in 8 CPU seconds.
        self.assertAlmostEqual(m["deliveries_per_s"], 5400 / 8.0)
        self.assertAlmostEqual(m["cpu_us_per_delivery"], 8.0e6 / 5400)
        # Scenario latency: the median combined-pull run_scenario call of
        # the untraced reps (1.5, 2.5 and 0.5 s). One sample per rep has
        # no tail, so the p99 carries the median too.
        raw["reps"].append(sim_rep(1.0))
        m = bm.sim_end_to_end(raw)
        self.assertAlmostEqual(m["latency_p50_ms"], 1500.0)
        self.assertAlmostEqual(m["latency_p99_ms"], 1500.0)
        raw["reps"].pop()
        pl = bm.sim_per_layer(raw)
        self.assertAlmostEqual(pl["oracle.cpu_share"], 1 - 2.0 / 4.0)
        self.assertAlmostEqual(pl["trace.overhead_cpu_s"], 0.4)
        self.assertAlmostEqual(pl["gossip.recovered_per_served"], 90 / 120)
        self.assertAlmostEqual(pl["common.pool_reuse_share"], 0.9)
        self.assertAlmostEqual(pl["sim.ns_per_event"], 4.0e9 / 15000)
        self.assertAlmostEqual(pl["metrics.state_share_of_rss"],
                               15 / (100 * 1024 * 1024))

    def test_sim_cpu_is_work_at_the_median_speed_per_event(self):
        # Three repetitions on seeds of different size: the second does
        # twice the first's work at the same speed, the third was slowed
        # to a third of that speed by the host.
        raw = sim_raw()
        raw["reps"] = [sim_rep(3.0, events=5000), sim_rep(6.0, events=10000),
                       sim_rep(9.0, events=5000)]
        speeds = bm.sim_speeds(raw["reps"])
        self.assertAlmostEqual(speeds["push"], 1.0 / 5000)
        self.assertAlmostEqual(speeds["combined-pull"], 1.5 / 5000)
        m = bm.sim_end_to_end(raw)
        # 3 + 6 + 3 s at the median speed, over three repetitions.
        self.assertAlmostEqual(m["cpu_s"], 4.0)
        self.assertAlmostEqual(m["deliveries_per_s"], 8100 / 12.0)
        # Combined pull at the median speed: 1.5, 3.0 and 1.5 s.
        self.assertAlmostEqual(m["latency_p50_ms"], 1500.0)

    def test_cpu_is_scaled_by_the_probes_around_it(self):
        # Probes that ran twice their nominal time halve the CPU seconds.
        self.assertAlmostEqual(bm.host_scaled(timed(3.0, slowdown=2.0)), 1.5)
        seg = timed(3.0)
        seg["probe_after_s"] = NOMINAL * 3  # the mean of the two counts
        self.assertAlmostEqual(bm.host_scaled(seg), 1.5)
        self.assertAlmostEqual(
            bm.host_slowdown([timed(1.0, 1.0), timed(1.0, 3.0),
                              timed(1.0, 2.0)]), 2.0)
        # With the memory probe, the mean of the two slowdowns counts: a
        # CPU probe at nominal and a memory probe at 3x nominal make 2x.
        seg = timed(3.0)
        mem = bm.MEMORY_PROBE_NOMINAL_S
        seg.update(memory_before_s=3 * mem, memory_after_s=3 * mem)
        self.assertAlmostEqual(bm.host_scaled(seg), 1.5)
        self.assertAlmostEqual(bm.host_slowdown([seg], "memory"), 3.0)
        raw = live_raw()
        raw["cpu"] = timed(4.0, slowdown=2.0)
        self.assertAlmostEqual(bm.live_end_to_end(raw)["cpu_s"], 2.0)
        self.assertAlmostEqual(bm.live_per_layer(raw)["diag.cpu_s_unscaled"],
                               4.0)
        raw = sim_raw()
        raw["setup"] = [sim_timed(0.4, 2.0), sim_timed(0.1),
                        sim_timed(0.6, 2.0)]
        self.assertAlmostEqual(bm.sim_end_to_end(raw)["setup_s"], 0.2)

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(bm.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]),
                               (8.25 - 2.75) / 5.5)

    def test_worse_by_follows_the_better_direction(self):
        # Second median 12 against a first of 10.
        self.assertAlmostEqual(bm.worse_by([9, 10, 11], [11, 12, 13],
                                           "lower"), 0.2)
        self.assertAlmostEqual(bm.worse_by([9, 10, 11], [11, 12, 13],
                                           "higher"), -0.2)
        self.assertAlmostEqual(bm.worse_by([10], [8], "higher"), 0.2)


class PhaseMappingTest(unittest.TestCase):
    def test_every_profiler_phase_has_a_layer(self):
        self.assertEqual(set(bm.PHASE_LAYERS), set(PHASES))
        self.assertTrue(set(bm.TIMED_PHASES) <= set(PHASES))

    def test_phase_metrics(self):
        m = bm.phase_metrics({"dispatch": {"ops": 4, "ns": 100},
                              "control": {"ops": 2, "ns": 50}})
        self.assertEqual(m["pubsub.dispatch.ops"], 4)
        self.assertEqual(m["pubsub.dispatch.ns_per_op"], 25.0)
        self.assertEqual(m["pubsub.control.ops"], 2)
        self.assertNotIn("pubsub.control.ns_per_op", m)
        # A phase the run never entered reads 0, not a division error.
        self.assertEqual(m["gossip.cache.ns_per_op"], 0.0)

    def test_sum_phases_adds_ops_and_ns(self):
        total = bm.sum_phases([phases(1, 10), phases(2, 30)])
        self.assertEqual(total["cache_op"], {"ops": 3, "ns": 40})

    def test_declared_metrics_match_what_the_workloads_produce(self):
        with open(os.path.join(os.path.dirname(PERFBENCH),
                               "BENCHMARK.json")) as f:
            spec = json.load(f)
        declared = {m["name"] for m in spec["per_layer"]}
        sim = set(bm.sim_per_layer(sim_raw())) | {"trace.spans"}
        live = set(bm.live_per_layer(live_raw())) | {"trace.spans"}
        self.assertEqual(sim - declared, set())
        self.assertEqual(live - declared, set())
        self.assertEqual(declared - sim - live, set())
        e2e = {m["name"] for m in spec["end_to_end"]}
        self.assertEqual(set(bm.sim_end_to_end(sim_raw())), e2e)
        self.assertEqual(set(bm.live_end_to_end(live_raw())), e2e)


class CheckTest(unittest.TestCase):
    def test_clean_runs_pass(self):
        self.assertEqual(bm.sim_checks(sim_raw()), [])
        self.assertEqual(bm.live_checks(live_raw(), traced=True), [])

    def test_sim_repetitions_must_agree(self):
        raw = sim_raw()
        raw["oracles_off_reps"] = [sim_rep(2.0, events=4999)]
        self.assertIn("repetitions of one seed disagree", bm.sim_checks(raw))

    def test_sim_repetitions_on_other_seeds_may_differ(self):
        raw = sim_raw()
        raw["reps"][1] = sim_rep(5.0, events=4000, rate=0.8)
        self.assertEqual(bm.sim_checks(raw, pinned_rate=0.9), [])

    def test_sim_pinned_delivery_rate(self):
        self.assertEqual(bm.sim_checks(sim_raw(), pinned_rate=0.9), [])
        self.assertEqual(len(bm.sim_checks(sim_raw(), pinned_rate=0.91)), 1)

    def test_sim_oracles_must_check(self):
        raw = sim_raw()
        raw["reps"][1]["scenarios"][0]["oracle_checks"] = 0
        self.assertTrue(any("oracles" in f for f in bm.sim_checks(raw)))

    def test_live_duplicates_and_decode_errors_fail(self):
        raw = live_raw()
        raw["nodes"][2]["duplicates"] = 1
        raw["nodes"][3]["decode_errors"] = 2
        raw["nodes"][0]["oracle_checks"] = 0
        self.assertEqual(len(bm.live_checks(raw, traced=False)), 3)

    def test_live_codec_frames_must_round_trip(self):
        raw = live_raw()
        raw["codec"]["reply"]["roundtrip_ok"] = False
        del raw["codec"]["heartbeat"]
        self.assertEqual(len(bm.live_checks(raw, traced=True)), 2)
        self.assertEqual(bm.live_checks(raw, traced=False), [])

    def test_sim_operations_count_scenario_runs(self):
        # 3 set-up repetitions and 4 measured ones, 3 scenarios each.
        self.assertEqual(bm.sim_operations(sim_raw()), (21, 0))

    def test_live_operations_count_failed_sends(self):
        raw = live_raw()
        raw["nodes"][1]["send_failures"] = 2
        raw["nodes"][2]["queue_overflows"] = 3
        self.assertEqual(bm.live_operations(raw), (4000, 5))


if __name__ == "__main__":
    unittest.main()
