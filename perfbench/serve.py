"""Workload ``serve-ingest``: open-loop Q5′ serving beside streaming ingest.

An analyst tenant sends a seeded Poisson stream of TPC-H Q5′ queries to a
``QueryGateway`` over an SF 0.002 lake on 4 nodes.  Each query is planned
through ``PlanningExecutor.serving_jobs`` and submitted with its fallback
plan; the gateway has 4 serving slots and a ``SemanticResultCache``.  The
mix is skewed: most queries repeat one of three hot (date range, region)
pairs, some ask for a range contained in a hot one (served by
subsumption when the hot answer is cached), the rest are fresh.  Buffer
pools of 64 KiB per node are well below the hot working set (about 0.3 of
page lookups hit), so pool hit rate and evictions respond to changes.

Beside it an ingest tenant stages a lineitem micro-batch every 0.25
simulated seconds, flushed through the gateway's background lane, with
lazy compaction.  Every commit invalidates cached results, so reads and
freshness trade against each other here.

Arrivals are generated in advance and fired by a simulated process at
their exact simulated times, so the load generator is never late.  A run
is a cycle of four episodes with differently seeded inputs, each on a
fresh lake; its simulated metrics and counters are pooled over the
cycle.  Cycles repeat until the run's time is up, and host throughput is
the cycle's completed queries over the sum of each episode's median
scaled host time (see ``common.HostMeter``, calibrated every eight
arrivals).
"""

from __future__ import annotations

import gc
import math
import random
from dataclasses import dataclass, field
from typing import Optional

from repro.cluster import Cluster
from repro.config import balanced_cluster_spec
from repro.core import Record
from repro.datagen.tpch import REGION_NAMES
from repro.engine import PlanningExecutor, ReferenceExecutor, SmpeEngine
from repro.ingest import (
    CompactionPolicy,
    Compactor,
    IngestCoordinator,
    MicroBatch,
)
from repro.queries import TpchWorkload, canonical_q5_rows_rede
from repro.service import (
    QueryGateway,
    TenantSpec,
    background_compaction,
    background_ingest,
)
from repro.service.result_cache import SemanticResultCache

from perfbench.common import (
    HostMeter,
    Outcome,
    clock,
    digest,
    layer_self_times,
    median,
    percentile,
    ratio,
    spindle_busy_seconds,
    spindle_count,
)
from perfbench.tracer import Tracer, install_build_span, install_layer_spans

NAME = "serve-ingest"
SCALE_FACTOR = 0.002
NUM_NODES = 4
SCAN_SECONDS = 0.25
POOL_BYTES = 64 * 1024
RESULT_CACHE_BYTES = 8 << 20
SLOTS = 4
QUEUE_LIMIT = 256
#: offered analyst load, queries per simulated second (see README.md for
#: the capacity it sits below)
RATE = 140.0
QUERIES = 480
HOT_PAIRS = 3
FRESH_SELECTIVITY = (0.001, 0.05)
BATCH_GAP = 0.25
PER_BATCH = 20
#: episodes with different inputs per run: pooling them averages out
#: how much work one seeded stream happens to carry
CYCLE = 4
#: analyst arrivals between two host-speed calibrations
LAP_EVERY = 8


def generate(seed: int, part: int, lineitems: int,
             queries: int = QUERIES) -> dict:
    """Analyst arrivals and ingest batches of one episode, the ``part``-th
    of a run's cycle.

    ``queries`` entries are ``(gap, selectivity, region, kind)``;
    ``batches`` entries list ``(source lineitem index, new line number)``
    pairs: new lines of existing orders, so fresh rows surface through
    the joins Q5′ already runs."""
    rng = random.Random(f"{NAME}:{seed}:{part}")
    low, high = FRESH_SELECTIVITY

    def selectivity(stratum: int, strata: int,
                    at: Optional[float] = None) -> float:
        """Log-uniform within the ``stratum``-th of ``strata`` equal
        slices of the log range, or at fraction ``at`` of that slice."""
        u = (stratum + (rng.random() if at is None else at)) / strata
        return low * math.exp(u * math.log(high / low))

    # Hot pairs sit at the middle of three slices of the log range and
    # only their regions are drawn: each commit makes every hot pair run
    # again, so their cost would otherwise dominate the spread between
    # seeds.  Fresh queries cycle through eight slices.
    hot = [(selectivity(i, HOT_PAIRS, 0.5), rng.choice(REGION_NAMES))
           for i in range(HOT_PAIRS)]
    # A Poisson stream conditioned on its count: ``queries`` arrival
    # times uniform over the episode, so every seed offers the same load
    # for the same simulated time.  Kinds come in shuffled blocks of
    # five (three hot, one contained, one fresh) so their shares are
    # exact too.
    duration = queries / RATE
    arrivals = sorted(rng.uniform(0.0, duration) for __ in range(queries))
    kinds: list[str] = []
    while len(kinds) < queries:
        block = ["hot"] * 3 + ["contained", "fresh"]
        rng.shuffle(block)
        kinds.extend(block)
    stream = []
    previous = 0.0
    fresh = 0
    for arrival, kind in zip(arrivals, kinds):
        if kind == "fresh":
            sel, region = selectivity(fresh % 8, 8), rng.choice(REGION_NAMES)
            fresh += 1
        else:
            sel, region = hot[rng.randrange(HOT_PAIRS)]
            if kind == "contained":
                sel *= rng.uniform(0.3, 0.9)
        stream.append((arrival - previous, sel, region, kind))
        previous = arrival
    line = 10_000
    batches = []
    for __ in range(int(duration / BATCH_GAP)):
        batches.append([(rng.randrange(lineitems), line + i)
                        for i in range(PER_BATCH)])
        line += PER_BATCH
    return {"queries": stream, "batches": batches, "hot": hot}


def build_lake() -> TpchWorkload:
    return TpchWorkload(scale_factor=SCALE_FACTOR, seed=1,
                        num_nodes=NUM_NODES, block_size=256 * 1024)


@dataclass
class Episode:
    """One lake with its gateway, ingest path and generated inputs."""

    lake: TpchWorkload
    cluster: Cluster
    planner: PlanningExecutor
    cache: SemanticResultCache
    gateway: QueryGateway
    coordinator: IngestCoordinator
    compactor: Compactor
    ranges: list = field(default_factory=list)
    batches: list = field(default_factory=list)
    #: (ticket, newest staged event time at submission) per analyst query
    queries: list = field(default_factory=list)
    ingests: list = field(default_factory=list)
    compactions: list = field(default_factory=list)
    depth_max: int = 0
    #: the serving phase's host time, raw and scaled (see HostMeter)
    host: Optional[HostMeter] = None


def assemble(lake: TpchWorkload) -> Episode:
    """The serving stack over a freshly built lake (part of set-up)."""
    spec = balanced_cluster_spec(lake.total_bytes, num_nodes=NUM_NODES,
                                 scan_seconds=SCAN_SECONDS,
                                 cache_bytes=POOL_BYTES)
    cluster = Cluster(spec)
    cache = SemanticResultCache(RESULT_CACHE_BYTES)
    gateway = QueryGateway(cluster, lake.catalog, max_concurrent=SLOTS,
                           global_queue_limit=QUEUE_LIMIT,
                           result_cache=cache)
    gateway.register(TenantSpec("analyst", max_queued=QUEUE_LIMIT))
    gateway.register(TenantSpec("ingest", weight=0.5,
                                max_queued=QUEUE_LIMIT))
    return Episode(
        lake=lake, cluster=cluster,
        planner=PlanningExecutor(lake.catalog, lake.blockstore, spec),
        cache=cache, gateway=gateway,
        coordinator=IngestCoordinator(lake.catalog, cluster),
        compactor=Compactor(lake.catalog, cluster,
                            policy=CompactionPolicy.lazy()))


def materialize(episode: Episode, inputs: dict) -> None:
    """Turn generated inputs into date windows and lineitem records."""
    lake = episode.lake
    episode.ranges = [lake.date_range(sel) for __, sel, __, __ in
                      inputs["queries"]]
    source = lake.tables["lineitem"]
    episode.batches = [
        [Record({**source[index].data, "l_linenumber": line})
         for index, line in batch] for batch in inputs["batches"]]


def serve(episode: Episode, inputs: dict,
          tracer: Optional[Tracer] = None) -> None:
    """The timed phase: both drivers, then drain every ticket."""
    cluster, gateway = episode.cluster, episode.gateway
    lake, planner = episode.lake, episode.planner
    coordinator, compactor = episode.coordinator, episode.compactor
    sim = cluster.sim
    newest_staged = [0.0]
    meter = episode.host = HostMeter()
    mark = [clock()]

    def lap() -> None:
        """Close one span of host time and calibrate (not counted)."""
        meter.add(clock() - mark[0])
        mark[0] = clock()

    def note_depth() -> None:
        episode.depth_max = max(episode.depth_max,
                                lake.catalog.delta_depth("lineitem"))

    def analyst():
        for k, (gap, __, region, __) in enumerate(inputs["queries"]):
            yield sim.timeout(gap)
            if k % LAP_EVERY == 0:
                lap()
            if tracer is not None:
                tracer.job = k
            low, high = episode.ranges[k]
            primary, fallback = planner.serving_jobs(
                lake.q5_chain(low, high, region).logical_plan())
            note_depth()
            episode.queries.append((gateway.submit(
                "analyst", primary, fallback_job=fallback),
                newest_staged[0]))

    def ingest():
        for b, rows in enumerate(episode.batches):
            yield sim.timeout(BATCH_GAP)
            if tracer is not None:
                tracer.job = f"batch-{b}"
            staged = coordinator.stage(MicroBatch(
                "lineitem", appends=rows, upserts=[],
                event_time=float(b + 1)))
            newest_staged[0] = float(b + 1)
            episode.ingests.append(gateway.submit(
                "ingest", work=background_ingest(coordinator, staged),
                lane="background"))
            for file_name, tier in compactor.due():
                episode.compactions.append(gateway.submit(
                    "ingest", work=background_compaction(
                        compactor, file_name, tier), lane="background"))
            note_depth()

    mark[0] = clock()
    drivers = [cluster.launch(analyst(), name="analyst-driver"),
               cluster.launch(ingest(), name="ingest-driver")]
    cluster.run_until(sim.all_of(drivers))
    pending = [ticket.done for ticket, __ in episode.queries
               if not ticket.finished]
    pending += [t.done for t in episode.ingests + episode.compactions
                if not t.finished]
    if pending:
        cluster.run_until(sim.all_of(pending))
    lap()
    gateway.close()


class Q5Oracle:
    """Q5′ answers computed straight from the generated tables and the
    ingested batches, independently of the program's structures."""

    def __init__(self, tables: dict, batches: list) -> None:
        region_name = {r.data["r_regionkey"]: r.data["r_name"]
                       for r in tables["region"]}
        self.nation_region = {n.data["n_nationkey"]:
                              region_name[n.data["n_regionkey"]]
                              for n in tables["nation"]}
        self.customer_nation = {c.data["c_custkey"]: c.data["c_nationkey"]
                                for c in tables["customer"]}
        self.supplier_nation = {s.data["s_suppkey"]: s.data["s_nationkey"]
                                for s in tables["supplier"]}
        self.orders = [(o.data["o_orderkey"], o.data["o_custkey"],
                        o.data["o_orderdate"]) for o in tables["orders"]]
        #: lines per order: the base table first, then batch by batch
        self.lines = [self._by_order(tables["lineitem"])]
        self.lines += [self._by_order(rows) for rows in batches]

    @staticmethod
    def _by_order(rows: list) -> dict:
        lines: dict = {}
        for row in rows:
            data = row.data
            lines.setdefault(data["l_orderkey"], []).append(
                (data["l_linenumber"], data["l_suppkey"]))
        return lines

    def rows(self, low: str, high: str, region: str,
             batches: int) -> set:
        """Canonical rows with the first ``batches`` batches ingested."""
        out = set()
        for order, customer, date in self.orders:
            nation = self.customer_nation[customer]
            if not low <= date <= high or \
                    self.nation_region[nation] != region:
                continue
            for lines in self.lines[:batches + 1]:
                for line, supplier in lines.get(order, ()):
                    if self.supplier_nation[supplier] == nation:
                        out.add((customer, order, line, supplier))
        return out


def _committed_through(episode: Episode, when: float,
                       strictly_before: bool = False) -> int:
    """Batches committed at (or strictly before) simulated time ``when``."""
    return max((int(b.micro.event_time) for b in episode.coordinator.batches
                if b.commit_time is not None and (
                    b.commit_time < when if strictly_before
                    else b.commit_time <= when)),
               default=0)


def check(episode: Episode, inputs: dict, outcome: Outcome,
          first_rows: Optional[list] = None) -> dict:
    """Answer checks after the timed phase.

    Every watermark must be what was committed when its job was
    dispatched, and every answer must hold each row committed through its
    watermark and no row committed after it completed.  Replays of the
    first episode must serve exactly its rows.  After the checks of the
    answers, stragglers are flushed and the lake major-compacted: Q5′ on
    the converged lake must equal ``ReferenceExecutor`` and the oracle.
    Returns the episode's measurements, taken before convergence."""
    tickets = [ticket for ticket, __ in episode.queries]
    outcome.attempted += len(tickets) + len(episode.ingests)
    outcome.failed += sum(1 for t in tickets if t.state != "completed")
    outcome.failed += sum(1 for t in episode.ingests
                          if t.state != "completed")
    for k, ticket in enumerate(tickets):
        if ticket.result is None:
            continue
        # The watermark is what was committed when the job was dispatched
        # (a commit at that very instant may fall on either side).
        stamp = ticket.result.metrics.freshness_watermark or 0.0
        at = ticket.dispatched_at
        outcome.check(
            _committed_through(episode, at, strictly_before=True) <= stamp
            <= _committed_through(episode, at),
            f"query {k}: watermark {stamp} is not what was committed when "
            f"it was dispatched at {at}")

    rows = [canonical_q5_rows_rede(t.result) if t.state == "completed"
            else None for t in tickets]
    if first_rows is not None:
        outcome.check(rows == first_rows,
                      "a replayed episode served different rows")
    else:
        oracle = Q5Oracle(episode.lake.tables, episode.batches)
        for k, ticket in enumerate(tickets):
            if rows[k] is None:
                continue
            low, high = episode.ranges[k]
            region = inputs["queries"][k][2]
            seen = int(ticket.result.metrics.freshness_watermark or 0)
            lower = oracle.rows(low, high, region, seen)
            upper = oracle.rows(low, high, region, _committed_through(
                episode, ticket.finished_at))
            outcome.check(
                lower <= rows[k] <= upper,
                f"query {k} {inputs['queries'][k][1:]} (cache hit: "
                f"{ticket.served_from_cache}): rows are not those of the "
                f"lake between watermark {seen} and its completion")
    measured = _measure(episode)
    measured["answers"] = rows
    _converge(episode, inputs, outcome)
    return measured


def _converge(episode: Episode, inputs: dict, outcome: Outcome) -> None:
    lake = episode.lake

    def smpe(job) -> set:
        cluster = lake.make_cluster(scan_seconds=SCAN_SECONDS)
        done, result = SmpeEngine(cluster, lake.catalog).submit(job)
        cluster.run_until(done)
        return canonical_q5_rows_rede(result)

    hot = [(lake.date_range(sel), region) for sel, region in inputs["hot"]]
    served = [smpe(lake.q5_job(low, high, region))
              for (low, high), region in hot]
    episode.coordinator.flush_pending()
    Compactor(lake.catalog).compact("lineitem", "major")
    outcome.check(lake.catalog.delta_depth("lineitem") == 0,
                  "delta runs remain after the major compaction")
    oracle = Q5Oracle(lake.tables, episode.batches)
    reference = ReferenceExecutor(lake.catalog)
    for k, ((low, high), region) in enumerate(hot):
        job = lake.q5_job(low, high, region)
        expected = canonical_q5_rows_rede(reference.execute(job))
        outcome.check(
            expected == oracle.rows(low, high, region, len(episode.batches)),
            f"hot query {k}: ReferenceExecutor on the converged lake "
            "differs from the oracle over every ingested batch")
        outcome.check(smpe(job) == expected,
                      f"hot query {k}: Q5' on the converged lake differs "
                      "from ReferenceExecutor")
        outcome.check(served[k] == expected,
                      f"hot query {k}: delta-merged answer before "
                      "compaction differs from the converged reference")


def _measure(episode: Episode) -> dict:
    """One episode's deterministic measurements, as sums and samples
    that :func:`_pool` combines across the episodes of a cycle."""
    cluster = episode.cluster
    analyst = episode.gateway.metrics["analyst"]
    engine = analyst.engine
    completed = sorted((t for t, __ in episode.queries
                        if t.state == "completed"),
                       key=lambda t: t.finished_at)
    executed = [t for t in completed if not t.served_from_cache]
    stamps = [t.result.metrics.freshness_watermark or 0.0
              for t in completed]
    pools = cluster.cache_stats()
    cache = episode.cache.stats()
    return {
        "completed": len(completed),
        "latencies": [t.latency for t in completed],
        "queue_waits": list(analyst.queue_waits),
        "staleness": [staged - (t.result.metrics.freshness_watermark or 0.0)
                      for t, staged in episode.queries
                      if t.state == "completed"],
        "sim_seconds": (analyst.last_completion or 0.0)
        - (analyst.first_arrival or 0.0),
        "events": cluster.sim.events_processed,
        "accesses": engine.record_accesses,
        "random_reads": engine.random_reads,
        "remote_fetches": engine.remote_fetches,
        "rows": sum(len(t.result.rows) for t in executed),
        "batched_probes": engine.batched_probes,
        "batched_capacity": engine.batched_capacity,
        "disk_busy": spindle_busy_seconds(cluster),
        "spindle_seconds": spindle_count(cluster) * cluster.sim.now,
        "pool_hits": pools.hits,
        "pool_lookups": pools.lookups,
        "pool_evictions": pools.evictions,
        "cache_hits": cache["hits"] + cache["subsumed_hits"],
        "cache_lookups": cache["hits"] + cache["subsumed_hits"]
        + cache["misses"],
        "invalidations": cache["invalidations"],
        # A job dispatched before a commit and completing after it is
        # cached under the lake token of its completion, not its snapshot.
        "stale_inserts": sum(
            1 for t in executed if not t.degraded and _committed_through(
                episode, t.finished_at)
            > (t.result.metrics.freshness_watermark or 0.0)),
        "degraded": analyst.degraded,
        "committed": episode.coordinator.watermark().committed_batches,
        "depth_max": episode.depth_max,
        "delta_probes": sum(t.result.metrics.delta_probes
                            for t in completed),
        "minor": episode.compactor.minor_compactions,
        "major": episode.compactor.major_compactions,
        "plan_calls": len(episode.queries),
        "scan_builds": engine.scan_stage_builds,
        "completion_order_regressions": sum(
            1 for a, b in zip(stamps, stamps[1:]) if b < a),
    }


def _pool(parts: list[dict]) -> dict:
    """Per-layer and simulated end-to-end metrics over a cycle."""
    def total(key: str) -> float:
        return sum(part[key] for part in parts)

    def joined(key: str) -> list:
        return [value for part in parts for value in part[key]]

    latencies, staleness = joined("latencies"), joined("staleness")
    goodput = ratio(total("completed"), total("sim_seconds"))
    return {
        "cluster.events": total("events"),
        "cluster.events_per_access": ratio(total("events"),
                                           total("accesses")),
        "cluster.disk_busy_sim_s": total("disk_busy"),
        "cluster.disk_utilization": ratio(total("disk_busy"),
                                          total("spindle_seconds")),
        "cluster.remote_fetches": total("remote_fetches"),
        "cluster.sim_latency_ms_p50": percentile(latencies, 0.5) * 1e3,
        "cluster.sim_latency_ms_p90": percentile(latencies, 0.9) * 1e3,
        "engine.random_reads": total("random_reads"),
        "engine.record_accesses": total("accesses"),
        "engine.rows_per_access": ratio(total("rows"), total("accesses")),
        "engine.batch_fill": ratio(total("batched_probes"),
                                   total("batched_capacity")),
        "storage.pool_hit_rate": ratio(total("pool_hits"),
                                       total("pool_lookups")),
        "storage.pool_evictions": total("pool_evictions"),
        "service.result_cache_hit_rate": ratio(total("cache_hits"),
                                               total("cache_lookups")),
        "service.result_cache_invalidations": total("invalidations"),
        "service.result_cache_stale_inserts": total("stale_inserts"),
        "service.queue_wait_ms_p50": percentile(
            joined("queue_waits"), 0.5) * 1e3,
        "service.queue_wait_ms_p90": percentile(
            joined("queue_waits"), 0.9) * 1e3,
        "service.degraded": total("degraded"),
        "service.goodput_per_sim_s": goodput,
        "ingest.batches_committed": total("committed"),
        "ingest.delta_depth_max": max(part["depth_max"] for part in parts),
        "ingest.delta_probes_per_query": ratio(total("delta_probes"),
                                               total("completed")),
        "ingest.compactions_minor": total("minor"),
        "ingest.compactions_major": total("major"),
        "ingest.staleness_batches_mean": ratio(sum(staleness),
                                               len(staleness)),
        "plan.plan_calls": total("plan_calls"),
        "plan.scan_stage_builds": total("scan_builds"),
    }


def _episode(inputs: Optional[dict], seed: int, part: int, queries: int,
             setups: HostMeter) -> tuple[Episode, dict]:
    """Set up one episode (timed into ``setups``) and its inputs."""
    gc.collect()  # free the previous episode's lake before building
    start = clock()
    episode = assemble(build_lake())
    setups.add(clock() - start)
    if inputs is None:
        inputs = generate(seed, part, len(episode.lake.tables["lineitem"]),
                          queries)
    materialize(episode, inputs)
    return episode, inputs


def run(seed: int, seconds: float, trace: bool,
        small: bool = False) -> Outcome:
    outcome = Outcome(NAME)
    queries = 96 if small else QUERIES
    cycle = 1 if small else CYCLE
    setups = HostMeter()
    inputs: list = [None] * cycle
    parts: list = [None] * cycle
    scaled: list[list[float]] = [[] for __ in range(cycle)]
    raw: list[list[float]] = [[] for __ in range(cycle)]
    build_tracer = Tracer()
    deadline = clock() + seconds
    done = 0
    # The first cycle runs each part once and gives the deterministic
    # metrics; later cycles replay it for host time until time is up.
    while done < cycle or (not trace and clock() < deadline):
        k = done % cycle
        if trace and done == 0:
            install_build_span(build_tracer)
        try:
            episode, inputs[k] = _episode(inputs[k], seed, k, queries,
                                          setups)
        finally:
            build_tracer.uninstall()
        serve(episode, inputs[k])
        measured = check(episode, inputs[k], outcome,
                         None if parts[k] is None else parts[k]["answers"])
        if parts[k] is None:
            parts[k] = measured
        scaled[k].append(sum(episode.host.scaled))
        raw[k].append(sum(episode.host.raw))
        done += 1
        episode = None

    outcome.inputs_digest = digest(inputs)
    layers = _pool(parts)
    completed = sum(part["completed"] for part in parts)
    throughput = ratio(completed, sum(median(h) for h in scaled))
    if trace:
        episode, __ = _episode(inputs[0], seed, 0, queries, setups)
        tracer = Tracer()
        install_layer_spans(tracer)
        try:
            serve(episode, inputs[0], tracer)
        finally:
            tracer.uninstall()
        check(episode, inputs[0], outcome, parts[0]["answers"])
        calls = tracer.counts["PlanningExecutor.plan"]
        layers["plan.memo_hit_rate"] = ratio(
            calls - tracer.counts["StagePlanner.plan"], calls)
        outcome.layers.update(layers)
        layer_self_times(outcome, tracer, parts[0]["completed"],
                         scaled[0][0], sum(episode.host.scaled),
                         build_tracer.kept_durations(
                             "StructureCatalog.build_all"))
        outcome.tracer = tracer
    setup = median(setups.scaled)
    outcome.end_to_end.update(setup_s=setup, jobs_per_host_s=throughput)
    outcome.report.update({
        "setup_s": (setup, "s"),
        "jobs_per_host_s": (throughput, "1/s"),
        "sim_latency_ms_p50": (layers["cluster.sim_latency_ms_p50"], "ms"),
        "sim_latency_ms_p90": (layers["cluster.sim_latency_ms_p90"], "ms"),
        "goodput_per_sim_s": (layers["service.goodput_per_sim_s"], "1/s"),
        "staleness_batches_mean": (
            layers["ingest.staleness_batches_mean"], "batches"),
        "failed_frac": (ratio(outcome.failed, outcome.attempted), "1"),
        "generator_lateness_ms": (0.0, "ms"),
        "watermark_regressions_in_completion_order": (
            float(sum(p["completion_order_regressions"] for p in parts)),
            "count"),
        "cache_inserts_spanning_commit": (
            float(layers["service.result_cache_stale_inserts"]), "count"),
        "episodes": (float(done), "count"),
        "raw_setup_s": (median(setups.raw), "s"),
        "raw_jobs_per_host_s": (
            ratio(completed, sum(median(h) for h in raw)), "1/s"),
    })
    return outcome
