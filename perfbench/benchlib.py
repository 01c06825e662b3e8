"""Checks and metric reduction for the perfbench harness's JSON report.

The C++ harness (harness.cpp) only measures: it reports, per job, raw timings,
spans, and the deterministic facts of every operation (one replica or one
stream).  This module turns one report into the benchmark result:

* check_report() re-checks every operation and counts failures;
* end_to_end() and per_layer() reduce the jobs to the metrics named in
  BENCHMARK.json.

It has no side effects, so the tests in test_benchlib.py drive it with
hand-made reports.
"""

import json
import math
import os
import re
import statistics
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Deterministic fields that must agree between a sweep's cold pass and the
# traced attribution pass over the same replicas.
ACCURACY_FIELDS = ("f", "f_hat", "d_s", "d_valid", "d_hat_s")


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def load_benchmark(root):
    return load_json(os.path.join(root, "BENCHMARK.json"))


def percentile(values, q):
    """Linear-interpolation percentile (numpy's default), q in [0, 100]."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 <= q <= 100:
        raise ValueError("q must be in [0, 100]")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def spread(values):
    """Interquartile range as a share of the median, as the acceptance rule
    computes it with statistics.quantiles(values, n=4)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


# --- checks ------------------------------------------------------------------


def _finite(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def check_op(op):
    """Failures of one operation's own invariants, as a list of strings."""
    bad = []
    if not _finite(op.get("f_hat")) or not _finite(op.get("f")):
        bad.append("frequency estimate or truth not finite")
    if not isinstance(op.get("d_valid"), bool):
        bad.append("duration estimate carries no validity flag")
    elif op["d_valid"] and not _finite(op.get("d_hat_s")):
        bad.append("valid duration estimate not finite")
    kind = op.get("kind")
    if kind == "replica":
        if op["arrivals"] != op["departures"] + op["drops"] + op["queued"]:
            bad.append("queue conservation: arrivals %d != departures %d + drops %d + queued %d"
                       % (op["arrivals"], op["departures"], op["drops"], op["queued"]))
        if op["probes_sent"] != op["probes_designed"]:
            bad.append("probes sent %d != designed %d" % (op["probes_sent"], op["probes_designed"]))
    elif kind == "stream":
        if op["reports"] != op["experiments_completed"]:
            bad.append("reports %d != experiments completed %d"
                       % (op["reports"], op["experiments_completed"]))
        if op["experiments_started"] != op["experiments_completed"] + op["experiments_pending"]:
            bad.append("experiments started != completed + pending")
    elif kind != "sweep_replica":
        bad.append("unknown operation kind %r" % kind)
    return bad


def _sweep_failures(job, obs_enabled):
    extra = job.get("extra", {})
    bad = []
    for cell in extra.get("cells", []):
        if cell["cold_cached"]:
            bad.append("cell %s: cold pass hit a cache that should be empty" % cell["config_hash"])
        if not cell["warm_cached"]:
            bad.append("cell %s: warm pass missed the cache" % cell["config_hash"])
        if cell["cold_doc"] != cell["warm_doc"]:
            bad.append("cell %s: warm result document differs from the cold one"
                       % cell["config_hash"])
    counters = extra.get("counters")
    if counters is not None and obs_enabled and job["config"] != "obs_off":
        if counters["probes_sent"] != extra["probes_designed"]:
            bad.append("sweep sent %d probes, designed %d"
                       % (counters["probes_sent"], extra["probes_designed"]))
        if counters["arrivals"] != counters["departures"] + counters["drops"]:
            bad.append("sweep queue conservation: arrivals %d != departures %d + drops %d"
                       % (counters["arrivals"], counters["departures"], counters["drops"]))
    return bad


def _digest_of(job):
    extra = job.get("extra", {})
    return extra.get("merged_digest") or job.get("digest")


def check_report(report, earlier=None):
    """Check every operation of every job.

    Returns (attempted, failed, failures).  An operation fails when its own
    invariants break, when it differs from the same operation of the plain
    job on the same input (every configuration computes the same outputs),
    or when its job fails a job-level check (sweep cache, digests).
    `earlier` is the fingerprint of an earlier run of the same seed and code.
    """
    jobs = report["jobs"]
    plain = {}
    for j in jobs:
        if j["config"] == "plain":
            plain.setdefault(j["input"], j)
    if not plain:
        return 1, 1, ["no plain job in the report"]
    digests = {}
    failures = []
    attempted = 0
    failed = 0
    for idx, job in enumerate(jobs):
        ops = job["ops"]
        attempted += len(ops)
        job_bad = _sweep_failures(job, report.get("obs_enabled", True))
        ref = plain.get(job["input"])
        if ref is None:
            job_bad.append("no plain job for input %d" % job["input"])
        elif job["config"] == "attribution":
            strip = [{k: o[k] for k in ACCURACY_FIELDS} for o in ops]
            want = [{k: o[k] for k in ACCURACY_FIELDS} for o in ref["ops"]]
            if strip != want:
                job_bad.append("attribution pass estimates differ from the cold pass")
            cold_digests = [c["digest"] for c in ref["extra"]["cells"]]
            if job["extra"]["cell_digests"] != cold_digests:
                job_bad.append("attribution pass cell digests differ from the cold pass")
        elif ops != ref["ops"]:
            job_bad.append("operations differ from the plain job on input %d" % job["input"])
        digest = _digest_of(job)
        if digest and job["config"] != "attribution":
            want = digests.setdefault(job["input"], digest)
            if digest != want:
                job_bad.append("state digest %s != %s" % (digest, want))
        if job_bad:
            failed += len(ops)
            failures.extend("job %d (%s): %s" % (idx, job["config"], b) for b in job_bad)
            continue
        for i, op in enumerate(ops):
            bad = check_op(op)
            if bad:
                failed += 1
                failures.extend("job %d (%s) op %d: %s" % (idx, job["config"], i, b) for b in bad)
    if earlier is not None:
        fp = fingerprint(report)
        for key in sorted(set(fp) & set(earlier)):
            for field in sorted(set(fp[key]) & set(earlier[key])):
                if fp[key][field] != earlier[key][field]:
                    failures.append("%s %s: %r differs from an earlier run of this seed: %r"
                                    % (key, field, fp[key][field], earlier[key][field]))
                    failed = attempted
    return attempted, failed, failures


def merge_fingerprints(earlier, fp):
    merged = {k: dict(v) for k, v in (earlier or {}).items()}
    for key, fields in fp.items():
        merged.setdefault(key, {}).update(fields)
    return merged


def fingerprint(report):
    """Deterministic outputs, per input, that every run of one seed must
    reproduce: accuracy, event and probe counts, and the state digest."""
    fp = {}
    for j in report["jobs"]:
        key = "input%d" % j["input"]
        ops = j["ops"]
        if j["config"] == "plain" and key not in fp:
            fp[key] = {
                "ops": len(ops),
                "freq_abs_err": freq_abs_err(ops),
                "dur_abs_err_s": dur_abs_err_s(ops),
                "sim.events": sum(o.get("events", 0) for o in ops),
                "probes.probes_sent": sum(o.get("probes_sent", 0) for o in ops),
            }
    for j in report["jobs"]:
        key = "input%d" % j["input"]
        digest = _digest_of(j)
        if digest and j["config"] != "attribution" and key in fp:
            fp[key]["digest"] = digest
    return fp


# --- metrics -----------------------------------------------------------------


def freq_abs_err(ops):
    return sum(abs(o["f_hat"] - o["f"]) for o in ops) / len(ops)


def dur_abs_err_s(ops):
    errs = [abs(o["d_hat_s"] - o["d_s"]) for o in ops if o["d_valid"] and o["d_s"] > 0]
    return sum(errs) / len(errs) if errs else 0.0


def _jobs(report, config):
    return [j for j in report["jobs"] if j["config"] == config]


def accuracy_ops(report):
    """Operations of the first min_jobs plain jobs, which every run of a
    seed executes, so the accuracy metrics are a function of the seed."""
    plain = _jobs(report, "plain")[:max(1, report["min_jobs"])]
    return [o for j in plain for o in j["ops"]]


def end_to_end(report):
    plain = _jobs(report, "plain")
    ops = accuracy_ops(report)
    return {
        "wall_s": median([j["wall_s"] for j in plain]),
        "sim_s_per_wall_s": median([j["sim_s"] / j["run_s"] for j in plain]),
        "setup_s": median([j["setup_s"] for j in plain]),
        "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
        "freq_abs_err": freq_abs_err(ops),
        "dur_abs_err_s": dur_abs_err_s(ops),
    }


def _span(jobs, name):
    return median([j.get("span_s", {}).get(name, 0.0) for j in jobs]) if jobs else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def _paired(report, num_cfg, den_cfg, value):
    """Median over inputs of value(num job) / value(den job), pairing the
    jobs of one round (same input, run back to back) so that slow drift of
    the host's speed cancels out of the ratio."""
    by_input = {}
    for j in report["jobs"]:
        by_input.setdefault(j["input"], {}).setdefault(j["config"], j)
    ratios = [_ratio(value(r[num_cfg]), value(r[den_cfg]))
              for r in by_input.values() if num_cfg in r and den_cfg in r]
    return median(ratios) if ratios else 0.0


def per_layer(report):
    """Every per-layer metric; one a workload does not exercise reads 0."""
    wl = report["workload"]
    plain = _jobs(report, "plain")
    traced = _jobs(report, "traced")
    # cbr_sweep attributes sim/measure/core time on its direct replica pass;
    # the other workloads on their traced jobs.
    src = _jobs(report, "attribution") or traced
    ops = src[0]["ops"]
    ref_ops = plain[0]["ops"]
    total = lambda key, xs=ops: sum(o.get(key, 0) for o in xs)  # noqa: E731
    sweep_x = [j["extra"] for j in plain if "cold_s" in j.get("extra", {})]
    wall = lambda j: j["wall_s"]  # noqa: E731
    cold = lambda j: j["extra"]["cold_s"]  # noqa: E731

    m = {}
    m["scenarios.spec_parse_s"] = _span(traced, "scenarios.spec_parse")
    m["scenarios.build_s"] = _span(traced, "scenarios.build")
    m["scenarios.sweep.cold_s"] = median([x["cold_s"] for x in sweep_x]) if sweep_x else 0.0
    m["scenarios.sweep.warm_s"] = median([x["warm_s"] for x in sweep_x]) if sweep_x else 0.0
    m["scenarios.sweep.cache_hit_ratio"] = (
        _ratio(sweep_x[0]["warm_cached"], len(sweep_x[0]["cells"])) if sweep_x else 0.0)
    # 1-worker time / (2 x 2-worker time) on the same cold pass.
    m["scenarios.replica.parallel_eff"] = (
        _paired(report, "one_worker", "plain", cold) / 2 if sweep_x else 0.0)

    events = total("events")
    sim_run_s = _span(src, "sim.run")
    slices = [v for j in src for v in j.get("slice_ms", [])]
    m["sim.run_s"] = sim_run_s
    m["sim.events"] = events
    m["sim.events_per_sim_s"] = _ratio(events, src[0]["sim_s"]) if events else 0.0
    m["sim.ns_per_event"] = _ratio(sim_run_s * 1e9, events)
    m["sim.cancelled_ratio"] = _ratio(total("cancelled"), total("scheduled"))
    m["sim.arena_slots"] = max([o.get("arena_slots", 0) for o in ops])
    m["sim.packet_pool_slots"] = max([o.get("pool_slots", 0) for o in ops])
    m["sim.slice_ms.p50"] = percentile(slices, 50) if slices else 0.0
    m["sim.slice_ms.p90"] = percentile(slices, 90) if slices else 0.0
    m["sim.queue.arrivals"] = total("arrivals")
    m["sim.queue.drop_ratio"] = _ratio(total("drops"), total("arrivals"))
    m["sim.queue.max_delay_ms"] = max([o.get("max_delay_ms", 0.0) for o in ops])

    m["tcp.segments_sent"] = total("tcp_segments")
    m["tcp.retransmit_ratio"] = _ratio(total("tcp_retransmits"), total("tcp_segments"))
    m["tcp.timeouts"] = total("tcp_timeouts")
    m["traffic.web.sessions"] = total("web_sessions")
    m["traffic.web.objects_completed_ratio"] = _ratio(
        total("web_objects_completed"), total("web_objects_started"))

    m["measure.departures_logged"] = total("departures_logged")
    m["measure.truth_s"] = _span(src, "measure.truth")
    m["measure.episodes"] = total("episodes", ref_ops)

    probes = total("probes_sent")
    m["probes.probes_sent"] = probes
    m["probes.packet_loss_ratio"] = _ratio(total("packets_lost"), total("packets_sent"))
    m["probes.offered_load"] = _ratio(total("offered_load"), len(ops)) if probes else 0.0

    m["core.analyze_s"] = _span(src, "core.analyze")
    m["core.analyze_ns_per_probe"] = _ratio(m["core.analyze_s"] * 1e9, probes)
    m["core.aggregate_s"] = _span(src, "core.aggregate")
    m["core.est_invalid"] = sum(1 for o in ref_ops if not o["d_valid"])
    slots = total("slots", ref_ops)
    m["core.stream.ns_per_slot"] = _ratio(_span(traced, "core.stream") * 1e9, slots)
    m["core.synth.ns_per_slot"] = _ratio(_span(traced, "core.synth") * 1e9, slots)
    m["core.stream.reports"] = total("reports", ref_ops)

    if wl == "cbr_sweep":
        # The sweep hashes by default; compare its cold pass with an
        # unhashed one over the same cells.
        m["det.hash_overhead"] = _paired(report, "plain", "unhashed", cold)
        m["det.records"] = src[0].get("hash_records", 0)
    else:
        m["det.hash_overhead"] = _paired(report, "hashed", "plain", wall)
        m["det.records"] = _jobs(report, "hashed")[0].get("hash_records", 0)
    m["obs.overhead"] = _paired(report, "plain", "obs_off", wall)
    m["trace.overhead"] = _paired(report, "traced", "plain", wall)
    return m


def result_line(bench, correct, attempted, failed, values, kind):
    """The final stdout line: exactly correct/attempted/failed/metrics."""
    units = {m["name"]: m["unit"] for m in bench[kind]}
    if set(values) != set(units):
        raise ValueError("metric names %s do not match BENCHMARK.json %s"
                         % (sorted(values), sorted(units)))
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in sorted(values)},
    }
