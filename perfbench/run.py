"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload q5-fine-grained --seed 1 \\
        --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` they are the per-layer ones, measured on a separate
traced pass whose spans are written to ``.perfbench/``.  Lines before it
are a human-readable report: every end-to-end metric that applies to
the workload, and in a traced run the per-layer table.

The runner fails loudly: a failed answer check or an exception exits
non-zero and names the workload and the check on standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from pathlib import Path

if not __package__:  # run as a script: make the package importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import END_TO_END, PER_LAYER, peak_rss_mb  # noqa: E402

WORKLOADS = ("q5-fine-grained", "claims-schema-on-read", "serve-ingest")
OUTPUT_DIR = ".perfbench"


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_paths() -> None:
    """Put the checkout's ``src`` on the path.

    Raises ``FileNotFoundError`` when the program's sources are absent,
    so a bare copy of the benchmark fails before measuring anything."""
    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(
            f"no program sources at {src / 'repro'}; run from the root "
            "of a checkout")
    sys.path.insert(0, str(src))


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 small: bool = False):
    """Run one workload in this process and return its ``Outcome``."""
    # Imported here: the workloads import the program from ``src``.
    from perfbench import claims, q5, serve

    module = {"q5-fine-grained": q5, "claims-schema-on-read": claims,
              "serve-ingest": serve}[name]
    outcome = module.run(seed, seconds, trace, small=small)
    outcome.end_to_end["peak_rss_mb"] = peak_rss_mb()
    outcome.report["peak_rss_mb"] = (outcome.end_to_end["peak_rss_mb"],
                                     "MB")
    if trace:
        for metric in PER_LAYER:
            outcome.layers.setdefault(metric, 0)
    return outcome


def result_line(outcome, trace: bool) -> dict:
    """The final JSON object: the result a benchmark harness reads."""
    units = PER_LAYER if trace else END_TO_END
    values = outcome.layers if trace else outcome.end_to_end
    return {
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, (unit, __) in units.items()},
    }


def _report(outcome, trace: bool, seed: int) -> None:
    print(f"# workload {outcome.workload} seed {seed} "
          f"inputs {outcome.inputs_digest}")
    for name, (value, unit) in outcome.report.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    if trace:
        print("# per-layer (traced pass)")
        for name, (unit, __) in PER_LAYER.items():
            print(f"  {name:<40} {outcome.layers[name]:>14.6g} {unit}")
        os.makedirs(OUTPUT_DIR, exist_ok=True)
        path = os.path.join(OUTPUT_DIR,
                            f"{outcome.workload}-seed{seed}.trace.json")
        outcome.tracer.dump(path, {"workload": outcome.workload,
                                   "seed": seed,
                                   "summary": outcome.trace_summary})
        print(f"# spans written to {path}")


def main(argv: list[str]) -> int:
    args = _parse(argv)
    sys.dont_write_bytecode = True
    try:
        _import_paths()
        outcome = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    except Exception:  # the runner's boundary: name the workload, exit 1
        traceback.print_exc()
        print(f"perfbench: workload {args.workload} (seed {args.seed}) "
              "raised; no result", file=sys.stderr)
        return 1
    _report(outcome, bool(args.trace), args.seed)
    print(json.dumps(result_line(outcome, bool(args.trace))))
    if outcome.failures:
        for failure in outcome.failures:
            print(f"perfbench: workload {args.workload} (seed {args.seed}) "
                  f"failed check: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
