"""Shared pieces of the benchmark: metric names, statistics, results."""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

clock = time.perf_counter

#: end-to-end metrics every workload reports with ``--trace 0``:
#: name -> (unit, better).  The workload-specific end-to-end metrics
#: (per-job host and simulated percentiles, goodput, staleness,
#: failed_frac) are printed in the report lines; README.md says why they
#: are not in this set.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "jobs_per_host_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

#: per-layer metrics every workload reports with ``--trace 1``; a layer
#: a workload does not touch reports 0.  name -> (unit, better)
PER_LAYER = {
    "cluster.events": ("count", "lower"),
    "cluster.events_per_access": ("ratio", "lower"),
    "cluster.events_per_access_smpe": ("ratio", "lower"),
    "cluster.events_per_access_partitioned": ("ratio", "lower"),
    "cluster.disk_busy_sim_s": ("s", "lower"),
    "cluster.disk_utilization": ("fraction", "higher"),
    "cluster.remote_fetches": ("count", "lower"),
    "cluster.sim_latency_ms_p50": ("ms", "lower"),
    "cluster.sim_latency_ms_p90": ("ms", "lower"),
    "cluster.self_host_ms": ("ms", "lower"),
    "engine.random_reads": ("count", "lower"),
    "engine.record_accesses": ("count", "lower"),
    "engine.rows_per_access": ("ratio", "higher"),
    "engine.batch_fill": ("fraction", "higher"),
    "engine.self_host_ms": ("ms", "lower"),
    "core.self_host_ms": ("ms", "lower"),
    "core.build_host_s": ("s", "lower"),
    "datagen.self_host_ms": ("ms", "lower"),
    "storage.self_host_ms": ("ms", "lower"),
    "storage.pool_hit_rate": ("fraction", "higher"),
    "storage.pool_evictions": ("count", "lower"),
    "service.result_cache_hit_rate": ("fraction", "higher"),
    "service.result_cache_invalidations": ("count", "lower"),
    "service.result_cache_stale_inserts": ("count", "lower"),
    "service.queue_wait_ms_p50": ("ms", "lower"),
    "service.queue_wait_ms_p90": ("ms", "lower"),
    "service.degraded": ("count", "lower"),
    "service.goodput_per_sim_s": ("1/s", "higher"),
    "service.self_host_ms": ("ms", "lower"),
    "ingest.batches_committed": ("count", "higher"),
    "ingest.delta_depth_max": ("count", "lower"),
    "ingest.delta_probes_per_query": ("ratio", "lower"),
    "ingest.compactions_minor": ("count", "lower"),
    "ingest.compactions_major": ("count", "lower"),
    "ingest.staleness_batches_mean": ("batches", "lower"),
    "ingest.self_host_ms": ("ms", "lower"),
    "plan.plan_calls": ("count", "lower"),
    "plan.memo_hit_rate": ("fraction", "higher"),
    "plan.scan_stage_builds": ("count", "lower"),
    "plan.self_host_ms": ("ms", "lower"),
    "perfbench.self_host_ms": ("ms", "lower"),
    "perfbench.trace_overhead_frac": ("fraction", "lower"),
}

#: layers whose self time the traced run reports
SELF_TIME_LAYERS = ("cluster", "engine", "core", "datagen", "storage",
                    "service", "ingest", "plan", "perfbench")


@dataclass
class Outcome:
    """What one workload run measured."""

    workload: str
    #: gated end-to-end metrics (``--trace 0``): name -> value
    end_to_end: dict[str, float] = field(default_factory=dict)
    #: the workload's full end-to-end report: name -> (value, unit)
    report: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: per-layer metrics (``--trace 1``): name -> value
    layers: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: names of failed answer checks (any entry fails the run)
    failures: list[str] = field(default_factory=list)
    #: digest of the generated inputs (same seed -> same digest)
    inputs_digest: str = ""
    #: traced-run extras written beside the spans
    trace_summary: dict[str, Any] = field(default_factory=dict)
    #: the traced run's span recorder (None untraced)
    tracer: Any = None

    def check(self, ok: bool, what: str) -> None:
        """Record one answer check; a failure counts as a failed op."""
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); 0.0 when empty.

    The benchmark keeps its own statistics so that its definitions
    cannot move with the program's."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(samples: list[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def total(times: list[list[float]]) -> float:
    """Sum of every sample of one of :func:`closed_loop`'s results."""
    return sum(sum(per_job) for per_job in times)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(value: Any) -> str:
    """Stable digest of JSON-able generated inputs."""
    blob = json.dumps(value, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


#: nominal time of one :func:`calibrate` loop: host times are scaled to
#: a host that runs the loop in exactly this long
CALIBRATION_S = 0.002


def calibrate() -> float:
    """Time one fixed pure-Python loop: the host's speed right now."""
    table: dict = {}
    start = clock()
    for i in range(15_000):
        key = i % 977
        table[key] = table.get(key, 0) + i
    return clock() - start


class HostMeter:
    """Host time of program work, scaled to a nominal host speed.

    On a shared VM the same work runs up to twice as slowly in some
    seconds as in others, because other tenants take the CPU.  Each
    measured span is therefore scaled by ``CALIBRATION_S`` over the mean
    time of a fixed calibration loop run just before and just after it,
    which cancels most of that drift: the spread of one pass of
    ``q5-fine-grained`` fell from 31% to 8% this way.  Raw times are
    kept beside the scaled ones."""

    def __init__(self) -> None:
        self._before = calibrate()
        self.raw: list[float] = []
        self.scaled: list[float] = []

    def add(self, elapsed: float) -> float:
        """Record ``elapsed`` raw host seconds that just ended; returns
        them scaled."""
        after = calibrate()
        scaled = elapsed * CALIBRATION_S / ((self._before + after) / 2)
        self._before = after
        self.raw.append(elapsed)
        self.scaled.append(scaled)
        return scaled


def timed_setups(count: int, build: Callable[[], Any]
                 ) -> tuple[Any, HostMeter]:
    """Run ``build`` ``count`` times, timing each; keep the last product.

    Earlier products are dropped before the next build so only one
    lake is resident at a time."""
    meter = HostMeter()
    product = None
    for __ in range(count):
        product = None
        gc.collect()  # free the previous lake before building the next
        start = clock()
        product = build()
        meter.add(clock() - start)
    return product, meter


def spindle_busy_seconds(cluster: Any) -> float:
    """Spindle-seconds of disk service across the cluster so far."""
    return sum(node.disk._spindles.busy_snapshot()
               for node in cluster.nodes)


def spindle_count(cluster: Any) -> int:
    return sum(node.disk.spec.spindles for node in cluster.nodes)


def closed_loop(jobs: int, execute: Callable[[int], Any],
                verify: Callable[[int, Any, int], None],
                seconds: float, min_passes: int,
                tracer: Any = None) -> list[list[float]]:
    """Run jobs ``0..jobs-1`` in order, pass after pass, one at a time.

    Stops once ``seconds`` have elapsed and at least ``min_passes``
    passes are complete.  Only ``execute`` is timed; ``verify(job,
    result, pass)`` checks the answer outside the timing.  With a
    ``tracer`` each job runs inside a kept ``job`` span.  Returns every
    run's host seconds per job, raw and scaled by :class:`HostMeter`."""
    raw: list[list[float]] = [[] for __ in range(jobs)]
    scaled: list[list[float]] = [[] for __ in range(jobs)]
    meter = HostMeter()
    deadline = clock() + seconds
    done = 0
    while done < min_passes or clock() < deadline:
        for job in range(jobs):
            if done >= min_passes and clock() >= deadline:
                return raw, scaled
            if tracer is not None:
                tracer.job = job
            start = clock()
            if tracer is None:
                result = execute(job)
            else:
                result = tracer.call("job", "perfbench", execute, job)
            elapsed = clock() - start
            raw[job].append(elapsed)
            scaled[job].append(meter.add(elapsed))
            verify(job, result, done)
        done += 1
    return raw, scaled


def closed_loop_report(outcome: Outcome, times: tuple,
                       setups: HostMeter,
                       sim_seconds: Optional[list[float]]) -> None:
    """End-to-end metrics shared by the two closed-loop workloads.

    Throughput is taken from each job's median scaled host time across
    passes, which a slow spell during a minority of the passes does not
    move; the percentiles are over every run."""
    raw, scaled = times
    samples = [t for per_job in scaled for t in per_job]
    typical = [median(per_job) for per_job in scaled if per_job]
    throughput = ratio(len(typical), sum(typical))
    raw_typical = [median(per_job) for per_job in raw if per_job]
    setup = median(setups.scaled)
    rows: dict[str, tuple[float, str]] = {
        "setup_s": (setup, "s"),
        "job_host_ms_p50": (percentile(samples, 0.5) * 1e3, "ms"),
        "job_host_ms_p90": (percentile(samples, 0.9) * 1e3, "ms"),
        "jobs_per_host_s": (throughput, "1/s"),
    }
    if sim_seconds is not None:
        rows["sim_latency_ms_p50"] = (percentile(sim_seconds, 0.5) * 1e3,
                                      "ms")
        rows["sim_latency_ms_p90"] = (percentile(sim_seconds, 0.9) * 1e3,
                                      "ms")
    rows["failed_frac"] = (ratio(outcome.failed, outcome.attempted), "1")
    rows["job_runs_timed"] = (float(len(samples)), "count")
    rows["raw_setup_s"] = (median(setups.raw), "s")
    rows["raw_jobs_per_host_s"] = (ratio(len(raw_typical), sum(raw_typical)),
                                   "1/s")
    outcome.report.update(rows)
    outcome.end_to_end.update(setup_s=setup, jobs_per_host_s=throughput)


def layer_self_times(outcome: Outcome, tracer: Any, jobs: int,
                     untraced_s: float, traced_s: float,
                     builds: list[float]) -> None:
    """Per-job self time of each layer, the tracing overhead, and the
    median structure-build time of the set-ups (``builds``)."""
    for layer in SELF_TIME_LAYERS:
        outcome.layers[f"{layer}.self_host_ms"] = ratio(
            tracer.self_ms(layer), jobs)
    outcome.layers["perfbench.trace_overhead_frac"] = (
        ratio(traced_s, untraced_s) - 1.0)
    outcome.layers["core.build_host_s"] = median(builds)
    outcome.trace_summary = {
        "jobs": jobs,
        "untraced_host_s": untraced_s,
        "traced_host_s": traced_s,
        "self_ms_per_job": {layer: ratio(ms * 1.0, jobs) for layer, ms in
                            ((name, tracer.self_ms(name)) for name in
                             sorted(tracer.self_seconds))},
    }
