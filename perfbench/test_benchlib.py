"""Tests of the benchmark's own logic; no build needed.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import copy
import json
import math
import os
import random
import statistics
import unittest

import benchlib

ROOT = os.path.dirname(benchlib.HERE)


def replica_op(seed=1, **over):
    op = {
        "kind": "replica", "seed": seed, "f": 0.18, "f_hat": 0.17, "d_s": 0.16,
        "d_valid": True, "d_hat_s": 0.14, "episodes": 30, "events": 250000,
        "cancelled": 50000, "scheduled": 300000, "arena_slots": 3400, "pool_slots": 290,
        "arrivals": 87000, "departures": 83000, "drops": 3990, "queued": 10,
        "max_delay_ms": 100.0, "tcp_segments": 78000, "tcp_retransmits": 2300,
        "tcp_timeouts": 40, "web_sessions": 0, "web_objects_started": 0,
        "web_objects_completed": 0, "departures_logged": 0, "probes_sent": 1800,
        "probes_designed": 1800, "packets_sent": 5400, "packets_lost": 150,
        "offered_load": 0.049,
    }
    op.update(over)
    return op


def job(config, inp, ops, **over):
    j = {"config": config, "input": inp, "seed": 100 + inp, "wall_s": 2.0,
         "setup_s": 0.02, "run_s": 1.9, "sim_s": 60.0, "ops": ops}
    j.update(over)
    return j


def tcp_report(trace=False):
    ops = [replica_op(seed=s) for s in (1, 2)]
    if not trace:
        jobs = [job("plain", k, copy.deepcopy(ops), wall_s=2.0 + 0.1 * k) for k in range(3)]
        return {"workload": "tcp_longlived", "min_jobs": 3, "obs_enabled": True,
                "peak_rss_kb": 20480, "jobs": jobs}
    spans = {"scenarios.spec_parse": 4e-5, "scenarios.build": 0.01, "sim.run": 1.8,
             "measure.truth": 1e-4, "core.analyze": 0.05, "core.aggregate": 0.003}
    jobs = []
    for k in range(2):
        jobs += [
            job("plain", k, copy.deepcopy(ops)),
            job("traced", k, copy.deepcopy(ops), wall_s=2.1, span_s=spans,
                slice_ms=[1.0, 2.0, 3.0, 4.0]),
            job("obs_off", k, copy.deepcopy(ops), wall_s=1.8),
            job("hashed", k, copy.deepcopy(ops), wall_s=2.2, digest="00aa", hash_records=9),
        ]
    return {"workload": "tcp_longlived", "min_jobs": 1, "obs_enabled": True,
            "peak_rss_kb": 20480, "jobs": jobs}


def sweep_job(config, cold_s=2.0, digest="d1"):
    cells = [{"config_hash": "c%d" % i, "cold_cached": False, "warm_cached": True,
              "cold_doc": "aa%d" % i, "warm_doc": "aa%d" % i, "digest": digest + str(i)}
             for i in range(2)]
    ops = [{"kind": "sweep_replica", "cell": c, "f": 0.007, "f_hat": 0.008, "d_s": 0.07,
            "d_valid": True, "d_hat_s": 0.09, "episodes": 12} for c in range(2)]
    extra = {"cells": cells, "probes_designed": 9000, "cold_s": cold_s, "warm_s": 0.002,
             "warm_cached": 2, "merged_digest": "m" + digest,
             "counters": {"probes_sent": 9000, "arrivals": 50, "departures": 45, "drops": 5}}
    return job(config, 0, ops, extra=extra)


class MetricNames(unittest.TestCase):
    def setUp(self):
        self.bench = benchlib.load_benchmark(ROOT)

    def test_names_and_units_follow_the_rule(self):
        names = []
        for kind in ("workloads", "end_to_end", "per_layer"):
            for m in self.bench[kind]:
                self.assertRegex(m["name"], benchlib.NAME_RE)
                names.append(m["name"])
                if kind != "workloads":
                    self.assertRegex(m["unit"], benchlib.UNIT_RE)
                    self.assertIn(m["better"], ("higher", "lower"))
        self.assertEqual(len(names), len(set(names)))
        for w in self.bench["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        for m in self.bench["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in self.bench["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in self.bench["end_to_end"]))

    def test_reductions_emit_exactly_the_benchmark_metrics(self):
        e2e = benchlib.end_to_end(tcp_report())
        line = benchlib.result_line(self.bench, True, 6, 0, e2e, "end_to_end")
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(line["metrics"]), {m["name"] for m in self.bench["end_to_end"]})
        layers = benchlib.per_layer(tcp_report(trace=True))
        line = benchlib.result_line(self.bench, True, 6, 0, layers, "per_layer")
        self.assertEqual(set(line["metrics"]), {m["name"] for m in self.bench["per_layer"]})
        for v in line["metrics"].values():
            self.assertTrue(math.isfinite(v["value"]))

    def test_result_line_rejects_a_missing_metric(self):
        e2e = benchlib.end_to_end(tcp_report())
        del e2e["wall_s"]
        with self.assertRaises(ValueError):
            benchlib.result_line(self.bench, True, 1, 0, e2e, "end_to_end")

    def test_layer_map_covers_every_per_layer_metric(self):
        layers = benchlib.load_json(os.path.join(benchlib.HERE, "layers.json"))
        self.assertEqual(set(layers["metrics"]), {m["name"] for m in self.bench["per_layer"]})
        e2e = {m["name"] for m in self.bench["end_to_end"]}
        workloads = {w["name"] for w in self.bench["workloads"]}
        for name, entry in layers["metrics"].items():
            self.assertTrue(set(entry["moves"]) <= e2e, name)
            self.assertTrue(set(entry["on"]) <= workloads, name)
            self.assertTrue(set(entry["measured_on"]) <= workloads, name)
            self.assertIn(name.split(".")[0], layers["layers"])

    def test_every_workload_has_a_spec(self):
        for w in self.bench["workloads"]:
            path = os.path.join(benchlib.HERE, "specs", w["name"] + ".json")
            self.assertTrue(os.path.isfile(path), path)
            benchlib.load_json(path)


class Percentile(unittest.TestCase):
    def test_hand_values(self):
        xs = [4.0, 1.0, 3.0, 2.0]
        self.assertEqual(benchlib.percentile(xs, 0), 1.0)
        self.assertEqual(benchlib.percentile(xs, 100), 4.0)
        self.assertAlmostEqual(benchlib.percentile(xs, 50), 2.5)
        self.assertAlmostEqual(benchlib.percentile(xs, 90), 3.7)
        self.assertEqual(benchlib.percentile([7.0], 90), 7.0)

    def test_matches_inclusive_quantiles(self):
        rng = random.Random(5)
        for n in (2, 3, 10, 101):
            xs = [rng.expovariate(1.0) for _ in range(n)]
            q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
            self.assertAlmostEqual(benchlib.percentile(xs, 25), q1)
            self.assertAlmostEqual(benchlib.percentile(xs, 50), q2)
            self.assertAlmostEqual(benchlib.percentile(xs, 75), q3)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            benchlib.percentile([], 50)
        with self.assertRaises(ValueError):
            benchlib.percentile([1.0], 101)

    def test_spread_is_iqr_over_median(self):
        xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        q1, q2, q3 = statistics.quantiles(xs, n=4)
        self.assertAlmostEqual(benchlib.spread(xs), (q3 - q1) / q2)


class Checks(unittest.TestCase):
    def assertClean(self, report):
        attempted, failed, failures = benchlib.check_report(report)
        self.assertEqual(failed, 0, failures)
        self.assertGreater(attempted, 0)

    def failed_of(self, report, earlier=None):
        return benchlib.check_report(report, earlier)[1]

    def test_clean_reports_pass(self):
        self.assertClean(tcp_report())
        self.assertClean(tcp_report(trace=True))
        self.assertClean({"workload": "cbr_sweep", "min_jobs": 1, "obs_enabled": True,
                          "peak_rss_kb": 1, "jobs": [sweep_job("plain")]})

    def test_queue_conservation_break_fails_one_operation(self):
        r = tcp_report()
        for j in r["jobs"]:
            j["ops"][1]["arrivals"] += 1
        self.assertEqual(self.failed_of(r), 3)

    def test_lost_probe_fails(self):
        r = tcp_report()
        # Job 0 is the reference for its input, so only the invariant fails.
        r["jobs"][0]["ops"][0]["probes_sent"] -= 1
        self.assertEqual(self.failed_of(r), 1)

    def test_non_finite_estimate_fails(self):
        r = tcp_report()
        r["jobs"][2]["ops"][0]["f_hat"] = float("nan")
        self.assertEqual(self.failed_of(r), 1)
        r["jobs"][1]["ops"][1]["d_hat_s"] = float("inf")
        self.assertEqual(self.failed_of(r), 2)
        r["jobs"][1]["ops"][1]["d_valid"] = False  # explicitly invalid: not checked
        self.assertEqual(self.failed_of(r), 1)

    def test_configuration_that_changes_outputs_fails_its_job(self):
        r = tcp_report(trace=True)
        traced = [j for j in r["jobs"] if j["config"] == "traced"][0]
        traced["ops"][0]["events"] += 1
        self.assertEqual(self.failed_of(r), len(traced["ops"]))

    def test_digest_mismatch_fails(self):
        r = tcp_report(trace=True)
        [j for j in r["jobs"] if j["config"] == "hashed"][1]["digest"] = "00ab"
        self.assertClean(r)  # different inputs may have different digests
        r2 = tcp_report(trace=True)
        r2["jobs"].append(job("hashed", 0, copy.deepcopy(r2["jobs"][0]["ops"]), digest="ffff"))
        self.assertEqual(self.failed_of(r2), 2)

    def test_sweep_cache_miss_and_changed_document_fail(self):
        for field, value in (("warm_cached", False), ("warm_doc", "bb0"), ("cold_cached", True)):
            j = sweep_job("plain")
            j["extra"]["cells"][0][field] = value
            r = {"workload": "cbr_sweep", "min_jobs": 1, "obs_enabled": True,
                 "peak_rss_kb": 1, "jobs": [j]}
            self.assertEqual(self.failed_of(r), 2, field)

    def test_sweep_probe_count_and_one_worker_digest(self):
        j = sweep_job("plain")
        j["extra"]["counters"]["probes_sent"] -= 3
        r = {"workload": "cbr_sweep", "min_jobs": 1, "obs_enabled": True,
             "peak_rss_kb": 1, "jobs": [j]}
        self.assertEqual(self.failed_of(r), 2)
        r = {"workload": "cbr_sweep", "min_jobs": 1, "obs_enabled": True, "peak_rss_kb": 1,
             "jobs": [sweep_job("plain"), sweep_job("one_worker", digest="d2")]}
        self.assertEqual(self.failed_of(r), 2)

    def test_stream_report_count_must_match(self):
        op = {"kind": "stream", "seed": 3, "slots": 1000, "f": 0.1, "f_hat": 0.1, "d_s": 0.1,
              "d_valid": True, "d_hat_s": 0.1, "episodes": 5, "reports": 300,
              "experiments_started": 301, "experiments_completed": 300,
              "experiments_pending": 1}
        r = {"workload": "stream_synth", "min_jobs": 1, "obs_enabled": True, "peak_rss_kb": 1,
             "jobs": [job("plain", 0, [op])]}
        self.assertClean(r)
        r["jobs"][0]["ops"][0]["reports"] = 299
        self.assertEqual(self.failed_of(r), 1)

    def test_earlier_run_of_the_seed_must_agree(self):
        r = tcp_report()
        fp = benchlib.fingerprint(r)
        self.assertEqual(self.failed_of(r, fp), 0)
        fp["input1"]["freq_abs_err"] *= 1.0000001
        attempted, failed, _ = benchlib.check_report(r, fp)
        self.assertEqual(failed, attempted)

    def test_fingerprints_merge_per_input(self):
        merged = benchlib.merge_fingerprints({"input0": {"a": 1}}, {"input0": {"b": 2},
                                                                    "input1": {"a": 3}})
        self.assertEqual(merged, {"input0": {"a": 1, "b": 2}, "input1": {"a": 3}})


class Reductions(unittest.TestCase):
    def test_accuracy_pools_the_first_min_jobs(self):
        r = tcp_report()
        r["jobs"][0]["ops"][0]["f_hat"] = 0.28  # |err| 0.1 on 1 of 6 ops
        e2e = benchlib.end_to_end(r)
        self.assertAlmostEqual(e2e["freq_abs_err"], (0.1 + 5 * 0.01) / 6)
        r["min_jobs"] = 1
        self.assertAlmostEqual(benchlib.end_to_end(r)["freq_abs_err"], (0.1 + 0.01) / 2)
        self.assertAlmostEqual(e2e["wall_s"], 2.1)
        self.assertAlmostEqual(e2e["peak_rss_mb"], 20.0)

    def test_invalid_durations_are_left_out(self):
        ops = [replica_op(), replica_op(d_valid=False, d_hat_s=0.0)]
        self.assertAlmostEqual(benchlib.dur_abs_err_s(ops), 0.02)

    def test_overheads_pair_jobs_of_one_round(self):
        m = benchlib.per_layer(tcp_report(trace=True))
        self.assertAlmostEqual(m["trace.overhead"], 2.1 / 2.0)
        self.assertAlmostEqual(m["obs.overhead"], 2.0 / 1.8)
        self.assertAlmostEqual(m["det.hash_overhead"], 1.1)
        self.assertAlmostEqual(m["sim.slice_ms.p50"], 2.5)
        self.assertAlmostEqual(m["sim.queue.drop_ratio"], 3990 / 87000)
        self.assertEqual(m["scenarios.sweep.cold_s"], 0.0)

    def test_sweep_ratios(self):
        jobs = [sweep_job("plain", cold_s=2.0), sweep_job("traced", cold_s=2.0),
                sweep_job("obs_off", cold_s=2.0), sweep_job("unhashed", cold_s=1.6),
                sweep_job("one_worker", cold_s=3.2),
                job("attribution", 0, [replica_op(), replica_op()],
                    span_s={"sim.run": 1.0, "core.analyze": 0.5}, hash_records=77)]
        r = {"workload": "cbr_sweep", "min_jobs": 1, "obs_enabled": True, "peak_rss_kb": 1,
             "jobs": jobs}
        m = benchlib.per_layer(r)
        self.assertAlmostEqual(m["scenarios.replica.parallel_eff"], 0.8)
        self.assertAlmostEqual(m["det.hash_overhead"], 1.25)
        self.assertEqual(m["det.records"], 77)
        self.assertEqual(m["scenarios.sweep.cache_hit_ratio"], 1.0)
        self.assertAlmostEqual(m["core.analyze_ns_per_probe"], 0.5e9 / 3600)

    def test_report_round_trips_through_json(self):
        r = tcp_report(trace=True)
        self.assertEqual(benchlib.per_layer(json.loads(json.dumps(r))), benchlib.per_layer(r))


if __name__ == "__main__":
    unittest.main()
