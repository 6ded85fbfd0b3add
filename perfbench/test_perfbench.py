"""Tests of the benchmark itself.

Run from the root of the repository::

    python3 -m pytest perfbench -q

They check that the runner prints exactly the metrics ``BENCHMARK.json``
names, that a seed fixes the generated inputs, that simulated metrics and
program counters repeat exactly, and that a small size of every workload
completes with its answer checks passing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import claims, q5, run, serve  # noqa: E402
from perfbench.common import END_TO_END, PER_LAYER  # noqa: E402

WORKLOADS = run.WORKLOADS
#: per-layer metrics measured in host time, which never repeat exactly
HOST_TIMED = {name for name in PER_LAYER
              if name.endswith("self_host_ms") or name in (
                  "core.build_host_s", "perfbench.trace_overhead_frac")}
#: report lines in simulated time or counts, which must repeat exactly
SIMULATED_REPORT = ("sim_latency_ms_p50", "sim_latency_ms_p90",
                    "goodput_per_sim_s", "staleness_batches_mean",
                    "failed_frac", "cache_inserts_spanning_commit",
                    "watermark_regressions_in_completion_order")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def small_runs():
    """Each workload at a small size, traced, twice with one seed."""
    return {name: [run.run_workload(name, 7, 0.0, True, small=True)
                   for __ in range(2)] for name in WORKLOADS}


def test_benchmark_json_lists_the_runners_metrics():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_printed_names_match_benchmark_json(small_runs, name):
    spec = _spec()
    outcome = small_runs[name][0]
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        line = run.result_line(outcome, trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        printed = {metric: value["unit"]
                   for metric, value in line["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in spec[key]}


@pytest.mark.parametrize("name", WORKLOADS)
def test_small_workload_completes_with_answers_checked(small_runs, name):
    for outcome in small_runs[name]:
        assert outcome.failures == []
        assert outcome.failed == 0
        assert outcome.attempted > 0
        assert all(value > 0 for value in outcome.end_to_end.values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_simulated_metrics_and_counters_repeat_exactly(small_runs, name):
    first, second = small_runs[name]
    assert first.inputs_digest == second.inputs_digest
    deterministic = [m for m in PER_LAYER if m not in HOST_TIMED]
    assert ({m: first.layers[m] for m in deterministic}
            == {m: second.layers[m] for m in deterministic})
    assert ({m: first.report.get(m) for m in SIMULATED_REPORT}
            == {m: second.report.get(m) for m in SIMULATED_REPORT})


def test_counters_cover_exactly_one_pass(small_runs):
    """A traced run's counters are those of one pass, not of the untraced
    and the traced pass together."""
    stream = claims.generate(7, 8)
    __, lake = claims.build_lake()
    accesses = sum(lake.query_expenses(*query)[1].metrics.record_accesses
                   for query in stream)
    layers = small_runs["claims-schema-on-read"][0].layers
    assert layers["engine.record_accesses"] == accesses

    stream = q5.generate(7, 8)
    runner = q5._Runner(q5.build_lake(), stream)
    events = sum(runner.run(k)[1].sim.events_processed
                 for k in range(len(stream)))
    assert small_runs["q5-fine-grained"][0].layers["cluster.events"] == events


def test_reference_mode_claims_never_touch_the_kernel(small_runs):
    outcome = small_runs["claims-schema-on-read"][0]
    assert outcome.layers["cluster.events"] == 0
    assert outcome.layers["engine.record_accesses"] > 0
    assert outcome.layers["datagen.self_host_ms"] > 0


def test_traced_runs_report_self_time_of_each_touched_layer(small_runs):
    touched = {
        "q5-fine-grained": ("cluster", "engine", "core", "storage"),
        "claims-schema-on-read": ("engine", "core", "datagen", "storage"),
        "serve-ingest": ("cluster", "engine", "core", "storage", "service",
                         "ingest", "plan"),
    }
    for name, layers in touched.items():
        outcome = small_runs[name][0]
        for layer in layers:
            assert outcome.layers[f"{layer}.self_host_ms"] > 0, (name, layer)
        assert outcome.tracer.spans


def test_same_seed_generates_identical_inputs():
    assert q5.generate(3) == q5.generate(3)
    assert q5.generate(3) != q5.generate(4)
    assert claims.generate(3) == claims.generate(3)
    assert claims.generate(3) != claims.generate(4)
    assert serve.generate(3, 0, 1000) == serve.generate(3, 0, 1000)
    assert serve.generate(3, 0, 1000) != serve.generate(3, 1, 1000)
    assert serve.generate(3, 0, 1000) != serve.generate(4, 0, 1000)


def test_q5_stream_is_stratified_log_uniform():
    stream = q5.generate(11)
    low, high = q5.SELECTIVITY
    assert all(low <= sel <= high for __, __, sel, __ in stream)
    per_config = {}
    for mode, batch, sel, __ in stream:
        per_config.setdefault((mode, batch), []).append(sel)
    assert set(per_config) == set(q5.CONFIGS)
    assert len({len(v) for v in per_config.values()}) == 1


def test_a_wrong_answer_fails_the_run_loudly(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(claims, "QUERIES", 4)
    monkeypatch.setattr(claims, "SETUPS", 1)
    monkeypatch.setattr(claims, "MIN_PASSES", 1)
    monkeypatch.setattr(claims, "expected_total",
                        lambda parsed, d, m: -1)
    code = run.main(["--workload", "claims-schema-on-read", "--seed", "1",
                     "--seconds", "0", "--trace", "0"])
    out, err = capsys.readouterr()
    assert code != 0
    assert json.loads(out.strip().splitlines()[-1])["correct"] is False
    assert "claims-schema-on-read" in err and "failed check" in err


def test_runner_fails_without_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "no program sources" in proc.stderr
