"""Host-time spans around the public entry points of each layer.

The tracer patches methods of the program's classes at run time (and
restores them on :meth:`Tracer.uninstall`); nothing under ``src/`` is
edited.  Every wrapped call opens a span carrying its name, start, end,
parent and job id.  A layer's self time is the time of its spans minus
the time of the spans they enclose, accumulated as each span closes.

Two kinds of span keep memory bounded on long runs:

* *kept* spans (jobs, simulator runs, engine executions, plans, gateway
  submissions, result-cache lookups, ingest staging, compactions, builds)
  are stored whole and written out by :meth:`Tracer.dump`;
* *hot* spans (simulated-process resumes, file lookups, interpreter
  calls: tens of thousands per job) only feed the self-time totals and
  the per-name counts, because storing each would need gigabytes.

Processes launched on the simulator are traced by wrapping their
generator: each resume becomes a hot span attributed to the layer whose
module defined the generator.  The event kernel's own time is therefore
``Simulator.run`` minus the process resumes it drives, and the access
funnel's generator code counts as ``engine``, not ``cluster``.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Optional

from repro.cluster.simulation import Simulator
from repro.core.catalog import StructureCatalog
from repro.core.functions import Dereferencer, Referencer
from repro.core.interpreters import Interpreter
from repro.engine.partitioned import PartitionedEngine
from repro.engine.planned import PlanningExecutor
from repro.engine.reference import ReferenceExecutor
from repro.engine.smpe import SmpeEngine
from repro.ingest.compaction import Compactor
from repro.ingest.coordinator import IngestCoordinator
from repro.plan.planner import StagePlanner
from repro.service.gateway import QueryGateway
from repro.service.result_cache import SemanticResultCache
from repro.storage.files import BtreeFile, PartitionedFile

#: the program's top-level packages, used as layer names
LAYERS = ("cluster", "engine", "core", "datagen", "storage", "plan",
          "service", "ingest", "queries", "baselines")

_clock = time.perf_counter


def layer_of(filename: str) -> str:
    """The layer a source file belongs to: ``src/repro/<layer>/...``."""
    marker = "/repro/"
    at = filename.rfind(marker)
    if at >= 0:
        head = filename[at + len(marker):].split("/", 1)[0]
        if head in LAYERS:
            return head
    if "/perfbench/" in filename:
        return "perfbench"
    return "other"


class Tracer:
    """Span recorder with per-layer self-time accounting."""

    def __init__(self) -> None:
        #: open spans: [layer, start, child_seconds, kept_id, outer_kept_id]
        self._stack: list[list[Any]] = []
        #: kept spans: [name, start, end, parent kept id, job]
        self.spans: list[list[Any]] = []
        self.self_seconds: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        #: job id stamped on spans opened from now on
        self.job: Any = None
        self._kept_parent = -1
        self._patches: list[tuple[type, str, Any]] = []

    # -- span bookkeeping -------------------------------------------------

    def open(self, name: str, layer: str, keep: bool) -> None:
        self.counts[name] += 1
        kept_id = -1
        outer = self._kept_parent
        if keep:
            kept_id = len(self.spans)
            self.spans.append([name, None, None, outer, self.job])
            self._kept_parent = kept_id
        self._stack.append([layer, _clock(), 0.0, kept_id, outer])

    def close(self) -> None:
        end = _clock()
        layer, start, child, kept_id, outer = self._stack.pop()
        duration = end - start
        self.self_seconds[layer] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if kept_id >= 0:
            span = self.spans[kept_id]
            span[1] = start
            span[2] = end
            self._kept_parent = outer

    def call(self, name: str, layer: str, fn: Callable, *args: Any,
             **kwargs: Any) -> Any:
        """Run ``fn`` inside a kept span (the benchmark's own job spans)."""
        self.open(name, layer, True)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close()

    # -- patching ---------------------------------------------------------

    def wrap(self, owner: type, attr: str, layer: str,
             keep: bool) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = owner.__dict__[attr]
        name = f"{owner.__name__}.{attr}"
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            tracer.open(name, layer, keep)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close()

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def wrap_processes(self, simulator_cls: type) -> None:
        """Trace every generator launched through ``Simulator.process``."""
        original = simulator_cls.__dict__["process"]
        tracer = self

        @functools.wraps(original)
        def process(sim: Any, generator: Any, name: str = "") -> Any:
            if not name:
                name = getattr(generator, "__name__", "process")
            code = getattr(generator, "gi_code", None)
            layer = "other" if code is None else layer_of(code.co_filename)
            label = "resume:" + (code.co_name if code is not None
                                 else "process")
            return original(sim, tracer._traced(generator, label, layer),
                            name=name)

        simulator_cls.process = process
        self._patches.append((simulator_cls, "process", original))

    def _traced(self, generator: Any, label: str, layer: str):
        send = generator.send
        value = None
        while True:
            self.open(label, layer, False)
            try:
                target = send(value)
            except StopIteration as stop:
                self.close()
                return stop.value
            except BaseException:
                self.close()
                raise
            self.close()
            value = yield target

    def uninstall(self) -> None:
        """Restore every patched method (newest first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def self_ms(self, layer: str) -> float:
        return self.self_seconds.get(layer, 0.0) * 1e3

    def kept_durations(self, name: str) -> list[float]:
        return [end - start for span_name, start, end, __, __ in self.spans
                if span_name == name and end is not None]

    def dump(self, path: str, extra: Optional[dict] = None) -> None:
        """Write kept spans, per-name counts and self times as JSON."""
        payload = {
            "fields": ["name", "start", "end", "parent", "job"],
            "spans": self.spans,
            "counts": dict(self.counts),
            "self_seconds": dict(self.self_seconds),
        }
        if extra:
            payload.update(extra)
        with open(path, "w") as handle:
            json.dump(payload, handle, separators=(",", ":"))


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the workloads touch."""
    tracer.wrap(Simulator, "run", "cluster", keep=True)
    tracer.wrap_processes(Simulator)
    for engine in (SmpeEngine, PartitionedEngine, ReferenceExecutor):
        tracer.wrap(engine, "execute", "engine", keep=True)
    for file_cls in (BtreeFile, PartitionedFile):
        for attr in ("lookup", "lookup_in_partition", "range_lookup"):
            if attr in file_cls.__dict__:
                tracer.wrap(file_cls, attr, "storage", keep=False)
    # Interpreters and the Reference/Dereference functions belong to the
    # layer of the module defining each subclass (the claims interpreter
    # is datagen's, the scan-backed dereferencer plan's).
    for base, attrs in ((Interpreter, ("interpret", "interpret_batch")),
                        (Referencer, ("reference",)),
                        (Dereferencer, ("fetch", "apply_filter"))):
        for cls in dict.fromkeys([base, *_subclasses(base)]):
            module = cls.__module__.split(".")
            layer = module[1] if len(module) > 1 else "other"
            for attr in attrs:
                fn = cls.__dict__.get(attr)
                if fn is not None and not getattr(
                        fn, "__isabstractmethod__", False):
                    tracer.wrap(cls, attr, layer, keep=False)
    # PlanningExecutor lives in engine/planned.py but is the planner's
    # public face; StagePlanner.plan runs only on a memo miss.
    tracer.wrap(PlanningExecutor, "plan", "plan", keep=True)
    tracer.wrap(PlanningExecutor, "serving_jobs", "plan", keep=True)
    tracer.wrap(StagePlanner, "plan", "plan", keep=True)
    tracer.wrap(QueryGateway, "submit", "service", keep=True)
    tracer.wrap(SemanticResultCache, "lookup", "service", keep=True)
    tracer.wrap(IngestCoordinator, "stage", "ingest", keep=True)
    tracer.wrap(Compactor, "compact", "ingest", keep=True)


def install_build_span(tracer: Tracer) -> None:
    """Set-up phase tracing: only whole structure builds."""
    tracer.wrap(StructureCatalog, "build_all", "core", keep=True)


def _subclasses(cls: type) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found
