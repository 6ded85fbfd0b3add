"""Workload ``claims-schema-on-read``: a closed loop over ``ClaimsLake``.

One client issues a seeded stream of Figure 9-shaped queries against a
lake of 20,000 generated raw-text claims on 8 nodes, in the lake's
default ``reference`` mode: no cluster and no event kernel.  Each query
is a disease-code set and a medicine-code set drawn from the vocabularies
of ``datagen/claims.py``; the stream is balanced in blocks of 16 that
cover every pairing of disease source and medicine source (the three
modelled conditions and the background codes), so matched pairs, and
mismatched pairs with few hits, appear in fixed shares, and set sizes
cycle block by block.  Which codes are drawn is random.

Host time here is schema-on-read interpretation of raw text, B-tree
probes and the reference executor; a change to the event kernel should
not move it.
"""

from __future__ import annotations

import random
from typing import Any

from repro.datagen import ClaimsGenerator
from repro.datagen.claims import (
    BACKGROUND_DISEASES,
    BACKGROUND_MEDICINES,
    DISEASE_CODES,
    MEDICINE_CODES,
)
from repro.queries import ClaimsLake

from perfbench.common import (
    Outcome,
    closed_loop,
    closed_loop_report,
    digest,
    layer_self_times,
    ratio,
    timed_setups,
    total,
)
from perfbench.tracer import Tracer, install_build_span, install_layer_spans

NAME = "claims-schema-on-read"
NUM_CLAIMS = 20_000
NUM_NODES = 8
QUERIES = 64
SETUPS = 3
MIN_PASSES = 3
SOURCES = ("hypertension", "acne", "diabetes", "background")


def _codes(rng: random.Random, source: str, kind: str,
           turn: int) -> list[str]:
    """A random code set from ``source``; its size cycles with ``turn``
    so that every size appears equally often."""
    if source == "background":
        pool = BACKGROUND_DISEASES if kind == "disease" else \
            BACKGROUND_MEDICINES
        return sorted(rng.sample(pool, 1 + turn % 3))
    pool = (DISEASE_CODES if kind == "disease" else MEDICINE_CODES)[source]
    return sorted(rng.sample(pool, 1 + turn % len(pool)))


def generate(seed: int, queries: int = QUERIES
             ) -> list[tuple[list[str], list[str]]]:
    """The query stream: ``(disease codes, medicine codes)`` pairs."""
    rng = random.Random(f"{NAME}:{seed}")
    pairs = [(d, m) for d in SOURCES for m in SOURCES]
    stream: list[tuple[list[str], list[str]]] = []
    turn = 0
    while len(stream) < queries:
        block = list(pairs)
        rng.shuffle(block)
        for disease_source, medicine_source in block[:queries - len(stream)]:
            stream.append((_codes(rng, disease_source, "disease", turn),
                           _codes(rng, medicine_source, "medicine", turn)))
        turn += 1
    return stream


def build_lake() -> tuple[list[str], ClaimsLake]:
    """Generate the raw claims and build the lake's structures over them;
    returns the raw texts too, for the independent oracle."""
    claims = ClaimsGenerator(num_claims=NUM_CLAIMS, seed=1).generate()
    return [claim.data for claim in claims], ClaimsLake(
        claims, num_nodes=NUM_NODES)


def parse_claims(texts: list[str]) -> list[tuple[int, set, set, int]]:
    """An independent full pass over the raw claims: per claim, its id,
    diagnosed disease codes, prescribed medicine codes and total points.
    Written against the claim format, not the program's interpreter."""
    parsed = []
    for text in texts:
        claim_id, points = -1, 0
        diseases, medicines = set(), set()
        for line in text.split("\n"):
            fields = line.split(",")
            if fields[0] == "IR":
                claim_id = int(fields[1])
            elif fields[0] == "HO":
                points = int(fields[1])
            elif fields[0] == "SY":
                diseases.add(fields[1])
            elif fields[0] == "IY":
                medicines.add(fields[1])
        parsed.append((claim_id, diseases, medicines, points))
    return parsed


def expected_total(parsed: list, diseases: list[str],
                   medicines: list[str]) -> int:
    wanted_d, wanted_m = set(diseases), set(medicines)
    return sum(points for __, d, m, points in parsed
               if d & wanted_d and m & wanted_m)


def run(seed: int, seconds: float, trace: bool,
        small: bool = False) -> Outcome:
    outcome = Outcome(NAME)
    stream = generate(seed, 8 if small else QUERIES)
    outcome.inputs_digest = digest(stream)

    build_tracer = Tracer()
    if trace:
        install_build_span(build_tracer)
    try:
        (texts, lake), setups = timed_setups(1 if small else SETUPS,
                                             build_lake)
    finally:
        build_tracer.uninstall()
    parsed = parse_claims(texts)
    expected = [expected_total(parsed, d, m) for d, m in stream]
    counters = {"jobs": 0, "accesses": 0, "rows": 0, "random_reads": 0}

    def execute(job: int) -> tuple[float, Any]:
        return lake.query_expenses(*stream[job])

    def verify(job: int, answer: tuple[float, Any], done: int) -> None:
        value, result = answer
        outcome.attempted += 1
        outcome.check(value == expected[job],
                      f"query {job} {stream[job]}: expense total {value} "
                      f"!= full-pass total {expected[job]}")
        # Counters come from the first pass only (a traced pass is a
        # first pass of its own).
        if done == 0 and counters["jobs"] < len(stream):
            counters["jobs"] += 1
            counters["accesses"] += result.metrics.record_accesses
            counters["random_reads"] += result.metrics.random_reads
            counters["rows"] += len(result.rows)

    if trace:
        untraced = closed_loop(len(stream), execute, verify, 0, 1)
        tracer = Tracer()
        install_layer_spans(tracer)
        try:
            traced = closed_loop(len(stream), execute, verify, 0, 1,
                                 tracer=tracer)
        finally:
            tracer.uninstall()
        outcome.layers.update({
            "engine.record_accesses": counters["accesses"],
            "engine.random_reads": counters["random_reads"],
            "engine.rows_per_access": ratio(counters["rows"],
                                            counters["accesses"]),
        })
        layer_self_times(outcome, tracer, len(stream), total(untraced[1]),
                         total(traced[1]), build_tracer.kept_durations(
                             "StructureCatalog.build_all"))
        outcome.tracer = tracer
        times = untraced
    else:
        times = closed_loop(len(stream), execute, verify, seconds,
                            1 if small else MIN_PASSES)
    closed_loop_report(outcome, times, setups, None)
    return outcome
