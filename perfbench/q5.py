"""Workload ``q5-fine-grained``: a closed loop of TPC-H Q5′ jobs.

One client issues a seeded stream of Q5′ jobs against the Figure 7 lake
(SF 0.004, 8 nodes, the scale-model cluster with 0.25 s per-node scans,
no buffer pools), each on a fresh cluster.  Jobs rotate through SMPE and
partitioned execution, each at ``batch_size`` 1 (the per-record access
funnel) and 64 (the batched funnel).  Selectivity is log-uniform in
[0.0005, 0.2], drawn stratified: each engine configuration gets one draw
from every equal slice of the log range, and SMPE and partitioned at the
same batch size take mirrored draws within each slice.  Regions cycle
through all five in a seeded order.  So the mix of cheap and costly jobs,
and with it the host time of a pass, moves little from seed to seed.

Host time here is almost all event kernel plus ``engine/access.py``.
"""

from __future__ import annotations

import math
import random
from typing import Any

from repro.config import EngineConfig
from repro.datagen.tpch import REGION_NAMES
from repro.engine import ReDeExecutor, ReferenceExecutor
from repro.queries import TpchWorkload, canonical_q5_rows_rede

from perfbench.common import (
    Outcome,
    closed_loop,
    closed_loop_report,
    digest,
    layer_self_times,
    percentile,
    ratio,
    spindle_busy_seconds,
    timed_setups,
    total,
)
from perfbench.tracer import Tracer, install_build_span, install_layer_spans

NAME = "q5-fine-grained"
SCALE_FACTOR = 0.004
NUM_NODES = 8
SCAN_SECONDS = 0.25
SELECTIVITY = (0.0005, 0.2)
#: (mode, batch_size), rotated job by job
CONFIGS = (("smpe", 1), ("smpe", 64), ("partitioned", 1),
           ("partitioned", 64))
JOBS = 64
SETUPS = 3
MIN_PASSES = 3


def generate(seed: int, jobs: int = JOBS) -> list[tuple[str, int, float, str]]:
    """The job stream: ``(mode, batch_size, selectivity, region)``."""
    rng = random.Random(f"{NAME}:{seed}")
    per_config = max(1, jobs // len(CONFIGS))
    draws: dict = {}
    regions: dict = {}
    for batch_size in sorted({size for __, size in CONFIGS}):
        order = list(range(per_config))
        rng.shuffle(order)
        jitter = [rng.random() for __ in range(per_config)]
        draws["smpe", batch_size] = [(stratum + r) / per_config
                                     for stratum, r in zip(order, jitter)]
        draws["partitioned", batch_size] = [
            (stratum + 1 - r) / per_config
            for stratum, r in zip(order, jitter)]
    for config in CONFIGS:
        regions[config] = []
        while len(regions[config]) < per_config:
            block = list(REGION_NAMES)
            rng.shuffle(block)
            regions[config].extend(block)
    low, high = SELECTIVITY
    span = math.log(high / low)
    stream = []
    for j in range(jobs):
        config = CONFIGS[j % len(CONFIGS)]
        k = (j // len(CONFIGS)) % per_config
        stream.append((*config, low * math.exp(draws[config][k] * span),
                       regions[config][k]))
    return stream


def build_lake() -> TpchWorkload:
    return TpchWorkload(scale_factor=SCALE_FACTOR, seed=1,
                        num_nodes=NUM_NODES, block_size=256 * 1024)


class _Runner:
    """Runs one job of the stream on a fresh cluster."""

    def __init__(self, lake: TpchWorkload, stream: list) -> None:
        self.lake = lake
        self.configs = {size: EngineConfig(batch_size=size)
                        for __, size in CONFIGS}
        self.ranges = [lake.date_range(spec[2]) for spec in stream]
        self.stream = stream

    def job(self, index: int) -> Any:
        mode, batch_size, __, region = self.stream[index]
        low, high = self.ranges[index]
        return self.lake.q5_job(low, high, region)

    def run(self, index: int) -> tuple[Any, Any]:
        mode, batch_size = self.stream[index][:2]
        cluster = self.lake.make_cluster(scan_seconds=SCAN_SECONDS)
        executor = ReDeExecutor(cluster, self.lake.catalog,
                                config=self.configs[batch_size], mode=mode)
        return executor.execute(self.job(index)), cluster


def _oracle(runner: _Runner) -> list[set]:
    reference = ReferenceExecutor(runner.lake.catalog)
    return [canonical_q5_rows_rede(reference.execute(runner.job(i)))
            for i in range(len(runner.stream))]


def _counters(counters: dict, mode: str, result: Any, cluster: Any) -> None:
    """Accumulate one job's deterministic counters."""
    m = result.metrics
    events = cluster.sim.events_processed
    for key, value in (
            ("events", events), ("accesses", m.record_accesses),
            (f"events_{mode}", events),
            (f"accesses_{mode}", m.record_accesses),
            ("random_reads", m.random_reads),
            ("remote_fetches", m.remote_fetches),
            ("rows", len(result.rows)),
            ("batched_probes", m.batched_probes),
            ("batched_capacity", m.batched_capacity),
            ("disk_busy", spindle_busy_seconds(cluster)),
            ("disk_utilization", m.disk_utilization)):
        counters[key] = counters.get(key, 0) + value
    counters.setdefault("sim", []).append(m.elapsed_seconds)


def run(seed: int, seconds: float, trace: bool,
        small: bool = False) -> Outcome:
    outcome = Outcome(NAME)
    stream = generate(seed, 8 if small else JOBS)
    outcome.inputs_digest = digest(stream)

    build_tracer = Tracer()
    if trace:
        install_build_span(build_tracer)
    try:
        lake, setups = timed_setups(1 if small else SETUPS, build_lake)
    finally:
        build_tracer.uninstall()
    runner = _Runner(lake, stream)
    expected = _oracle(runner)

    # The first pass is the deterministic one: its simulated times and
    # counters are the run's.  Later passes replay it for host time.
    counters: dict = {}

    def verify(job: int, outcome_of_job: tuple, done: int) -> None:
        result, cluster = outcome_of_job
        outcome.attempted += 1
        outcome.check(canonical_q5_rows_rede(result) == expected[job],
                      f"job {job} {stream[job]}: rows differ from "
                      "ReferenceExecutor")
        # Counters come from the first pass only (a traced pass is a
        # first pass of its own).
        if done == 0 and len(counters.get("sim", ())) < len(stream):
            _counters(counters, stream[job][0], result, cluster)

    if trace:
        untraced = closed_loop(len(stream), runner.run, verify, 0, 1)
        tracer = Tracer()
        install_layer_spans(tracer)
        try:
            traced = closed_loop(len(stream), runner.run, verify, 0, 1,
                                 tracer=tracer)
        finally:
            tracer.uninstall()
        _layers(outcome, counters)
        layer_self_times(outcome, tracer, len(stream), total(untraced[1]),
                         total(traced[1]), build_tracer.kept_durations(
                             "StructureCatalog.build_all"))
        outcome.tracer = tracer
        times = untraced
    else:
        times = closed_loop(len(stream), runner.run, verify, seconds,
                            1 if small else MIN_PASSES)
    closed_loop_report(outcome, times, setups, counters["sim"])
    return outcome


def _layers(outcome: Outcome, c: dict) -> None:
    sim = c["sim"]
    outcome.layers.update({
        "cluster.events": c["events"],
        "cluster.events_per_access": ratio(c["events"], c["accesses"]),
        "cluster.events_per_access_smpe": ratio(
            c.get("events_smpe", 0), c.get("accesses_smpe", 0)),
        "cluster.events_per_access_partitioned": ratio(
            c.get("events_partitioned", 0), c.get("accesses_partitioned", 0)),
        "cluster.disk_busy_sim_s": c["disk_busy"],
        "cluster.disk_utilization": ratio(c["disk_utilization"], len(sim)),
        "cluster.remote_fetches": c["remote_fetches"],
        "cluster.sim_latency_ms_p50": percentile(sim, 0.5) * 1e3,
        "cluster.sim_latency_ms_p90": percentile(sim, 0.9) * 1e3,
        "engine.random_reads": c["random_reads"],
        "engine.record_accesses": c["accesses"],
        "engine.rows_per_access": ratio(c["rows"], c["accesses"]),
        "engine.batch_fill": ratio(c["batched_probes"],
                                   c["batched_capacity"]),
    })
