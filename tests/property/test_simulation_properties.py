"""Property tests for the discrete-event kernel.

Invariants under randomized workloads: capacity conservation, FIFO
fairness, clock monotonicity, determinism, and utilization bounds — and
exactness of the inline path: random mixes of resources, stores,
timeouts, races, barriers and nested processes behave identically on
the kernel and on a test double that sends every event through the heap.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.simulation import Process, Simulator, all_of
from repro.errors import SimulationDeadlock

delays = st.floats(min_value=0.0, max_value=10.0, allow_nan=False,
                   allow_infinity=False)

workloads = st.lists(
    st.tuples(delays,  # arrival offset
              st.floats(min_value=0.01, max_value=5.0)),  # service time
    min_size=1, max_size=30)


@settings(max_examples=50, deadline=None)
@given(workloads, st.integers(min_value=1, max_value=5))
def test_resource_conserves_capacity(jobs, capacity):
    sim = Simulator()
    res = sim.resource(capacity)
    over_capacity = []

    def worker(arrival, service):
        yield sim.timeout(arrival)
        yield res.request()
        if res.in_use > capacity:
            over_capacity.append(res.in_use)
        yield sim.timeout(service)
        res.release()

    procs = [sim.process(worker(a, s)) for a, s in jobs]
    sim.run(until=all_of(sim, procs))
    assert not over_capacity
    assert res.in_use == 0
    assert res.max_in_use <= capacity


@settings(max_examples=50, deadline=None)
@given(workloads, st.integers(min_value=1, max_value=5))
def test_makespan_bounds(jobs, capacity):
    """Makespan lies between the ideal parallel and fully serial bounds."""
    sim = Simulator()
    res = sim.resource(capacity)

    def worker(arrival, service):
        yield sim.timeout(arrival)
        yield from res.use(service)

    procs = [sim.process(worker(a, s)) for a, s in jobs]
    sim.run(until=all_of(sim, procs))
    total_service = sum(s for __, s in jobs)
    latest_arrival = max(a for a, __ in jobs)
    assert sim.now >= max(s for __, s in jobs)  # at least longest job
    assert sim.now <= latest_arrival + total_service + 1e-9  # serial bound


@settings(max_examples=50, deadline=None)
@given(workloads, st.integers(min_value=1, max_value=5))
def test_utilization_bounded_and_consistent(jobs, capacity):
    sim = Simulator()
    res = sim.resource(capacity)

    def worker(arrival, service):
        yield sim.timeout(arrival)
        yield from res.use(service)

    procs = [sim.process(worker(a, s)) for a, s in jobs]
    sim.run(until=all_of(sim, procs))
    if sim.now > 0:
        utilization = res.utilization(0.0, sim.now)
        assert 0.0 <= utilization <= 1.0 + 1e-9
        total_service = sum(s for __, s in jobs)
        assert res.busy_snapshot() == pytest.approx(total_service,
                                                    rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(workloads)
def test_clock_monotone_and_deterministic(jobs):
    def run():
        sim = Simulator()
        trace = []

        def worker(tag, arrival, service):
            yield sim.timeout(arrival)
            trace.append((sim.now, tag, "start"))
            yield sim.timeout(service)
            trace.append((sim.now, tag, "end"))

        for tag, (arrival, service) in enumerate(jobs):
            sim.process(worker(tag, arrival, service))
        sim.run()
        times = [t for t, __, __ in trace]
        assert times == sorted(times)
        return trace

    assert run() == run()


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=100), min_size=1,
                max_size=50))
def test_store_preserves_order_and_items(items):
    sim = Simulator()
    store = sim.store()
    received = []

    def producer():
        for item in items:
            store.put(item)
            yield sim.timeout(0.1)

    def consumer():
        for __ in items:
            value = yield store.get()
            received.append(value)

    sim.process(producer())
    done = sim.process(consumer())
    sim.run(until=done)
    assert received == items
    assert store.total_put == len(items)
    assert len(store) == 0


# -- the inline path is exact ---------------------------------------------


class HeapOnlyProcess(Process):
    """Test double: the textbook resume loop, with no inline path.

    Every yielded event that has not fired yet is waited on through the
    heap, and a finished process always schedules its completion.
    """

    __slots__ = ()

    def _resume(self, event):
        sent = event.value
        while True:
            try:
                target = self.generator.send(sent)
            except StopIteration as stop:
                self._value = stop.value
                self.sim._schedule(self, 0.0)
                return
            if target.triggered:
                sent = target.value
                continue
            target.add_callback(self._resume)
            return


class HeapOnlySimulator(Simulator):
    """Test double: every event goes through the heap, none fires inline.

    Granted requests and served gets are scheduled like any other
    succeeded event, and processes run :class:`HeapOnlyProcess`.
    """

    def process(self, generator, name=""):
        return HeapOnlyProcess(self, generator, name=name)

    def _park(self, event, value):
        event._value = value
        self._schedule(event, 0.0)


#: coarse values so that many events tie on time and order by sequence
holds = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.5])
slots = st.integers(min_value=0, max_value=1)

request = st.tuples(st.just("request"), slots, holds)
get = st.tuples(st.just("get"), slots)
wait_gate = st.tuples(st.just("wait_gate"), slots)
wait_process = st.tuples(st.just("wait_process"),
                         st.integers(min_value=0, max_value=7))
#: operations the inline path touches (and the shared waits that give an
#: event several callbacks) appear twice, to be drawn more often
leaf_ops = st.one_of(
    st.tuples(st.just("timeout"), holds),
    request, request,
    st.tuples(st.just("race_request"), slots, holds, holds),
    st.tuples(st.just("put"), slots),
    get, get,
    st.tuples(st.just("race_get"), slots, holds),
    st.tuples(st.just("any_of"), holds, holds),
    st.tuples(st.just("all_of"), st.lists(holds, max_size=3)),
    st.tuples(st.just("succeed")),
    wait_gate, wait_gate,
    st.tuples(st.just("open_gate"), slots),
    wait_process, wait_process,
)

programs = st.recursive(
    st.lists(leaf_ops, min_size=1, max_size=8),
    lambda children: st.lists(
        st.one_of(leaf_ops,
                  st.tuples(st.just("spawn"), children),
                  st.tuples(st.just("join"), children)),
        min_size=1, max_size=8),
    max_leaves=40)

mixes = st.fixed_dictionaries({
    "capacities": st.tuples(st.integers(min_value=1, max_value=2),
                            st.integers(min_value=1, max_value=2)),
    "actors": st.lists(st.tuples(holds, programs), min_size=2, max_size=5),
})


def run_mix(sim_class, mix):
    """Run one generated mix; return everything observable about it.

    Every resume appends ``(now, actor, step, what)`` to the log together
    with the completion state of every process launched so far, so a
    process continuing — or completing — out of turn shows in the log.
    """
    sim = sim_class()
    resources = [sim.resource(c) for c in mix["capacities"]]
    stores = [sim.store(), sim.store()]
    #: shared events several processes may wait on at once
    gates = [sim.event(), sim.event()]
    #: every process launched so far, so others can join or peek at it
    handles = []
    log = []

    def note(name, step, what):
        log.append((sim.now, name, step, what,
                    tuple(h.triggered for h in handles)))

    def actor(name, ops, start=0.0):
        if start:
            yield sim.timeout(start)
        for step, op in enumerate(ops):
            kind = op[0]
            note(name, step, kind)
            if kind == "timeout":
                yield sim.timeout(op[1])
            elif kind == "request":
                res = resources[op[1]]
                yield res.request()
                note(name, step, "granted")
                yield sim.timeout(op[2])
                res.release()
            elif kind == "race_request":
                res = resources[op[1]]
                req = res.request()
                which, __ = yield sim.any_of([req, sim.timeout(op[2])])
                note(name, step, which)
                if which == 1:
                    yield req
                    note(name, step, "granted")
                yield sim.timeout(op[3])
                res.release()
            elif kind == "put":
                stores[op[1]].put((name, step))
            elif kind == "get":
                note(name, step, (yield stores[op[1]].get()))
            elif kind == "race_get":
                pending = stores[op[1]].get()
                which, __ = yield sim.any_of([pending, sim.timeout(op[2])])
                note(name, step, which)
                note(name, step, (yield pending))
            elif kind == "any_of":
                which, __ = yield sim.any_of(
                    [sim.timeout(op[1]), sim.timeout(op[2])])
                note(name, step, which)
            elif kind == "all_of":
                yield sim.all_of([sim.timeout(d) for d in op[1]])
            elif kind == "succeed":
                event = sim.event()
                event.succeed(step)
                note(name, step, (yield event))
            elif kind == "wait_gate":
                note(name, step, (yield gates[op[1]]))
            elif kind == "open_gate":
                gate = gates[op[1]]
                if gate.callbacks is not None and not gate._in_heap:
                    gate.succeed(name)
            elif kind == "wait_process":
                note(name, step, (yield handles[op[1] % len(handles)]))
            elif kind == "spawn":
                handles.append(sim.process(actor(f"{name}.{step}", op[1])))
            else:  # join
                child = sim.process(actor(f"{name}.{step}", op[1]))
                handles.append(child)
                note(name, step, (yield child))
        note(name, len(ops), "done")
        return name

    procs = [sim.process(actor(str(i), ops, start))
             for i, (start, ops) in enumerate(mix["actors"])]
    handles.extend(procs)
    # Stop at a shared gate and at the first actor before draining: the
    # state ``run(until=...)`` returns in must not run ahead either.
    stops = []
    for until in (gates[0], procs[0], None):
        try:
            value = sim.run(until=until)
        except SimulationDeadlock:
            value = "deadlock"
        stops.append((sim.now, len(log), value,
                      tuple(h.triggered for h in handles),
                      tuple(r.in_use for r in resources)))
    observed = {
        "log": log,
        "stops": stops,
        "resources": [(r.in_use, r.queued, r.max_in_use, r.busy_snapshot())
                      for r in resources],
        "stores": [(len(s), s.total_put) for s in stores],
    }
    return observed, sim.events_processed


#: one pinned mix per guard of the inline rule, each of which a kernel
#: without that guard fails (gate 0 is a ``run(until=...)`` stop, gate 1
#: is not)
GUARD_EXAMPLES = {
    # a heap event due earlier at ``now`` runs before a granted request
    "due-now heap event": {"capacities": (1, 1), "actors": [
        (0.0, [("request", 0, 0.0)]),
        (0.0, [("timeout", 0.0)])]},
    # the first of two waiters on one gate is not the tail callback
    "not the last callback": {"capacities": (1, 1), "actors": [
        (0.0, [("wait_gate", 1), ("request", 0, 0.0)]),
        (0.0, [("wait_gate", 1)]),
        (0.0, [("open_gate", 1), ("timeout", 1.0)])]},
    # ``run(until=gate)`` returns before the gate's waiter is granted
    "until event": {"capacities": (1, 1), "actors": [
        (0.0, [("wait_gate", 0), ("request", 0, 0.0)]),
        (0.0, [("open_gate", 0), ("timeout", 1.0)])]},
    # a finished process with a due-now event ahead of it completes late
    "finish behind a due-now event": {"capacities": (1, 1), "actors": [
        (0.0, [("timeout", 0.0), ("timeout", 0.0)]),
        (0.0, [("timeout", 0.0)])]},
    # ... and so does one behind a granted request another process awaits
    "finish behind a granted request": {"capacities": (1, 1), "actors": [
        (0.0, [("wait_gate", 1), ("request", 0, 0.0)]),
        (0.0, [("wait_gate", 1)]),
        (0.0, [("open_gate", 1), ("timeout", 1.0)])]},
    # ... and one that is not the last callback of its event
    "finish before a later callback": {"capacities": (1, 1), "actors": [
        (0.0, [("wait_gate", 1)]),
        (0.0, [("wait_gate", 1)]),
        (0.0, [("open_gate", 1), ("timeout", 1.0)])]},
}


@settings(max_examples=300, deadline=None)
@given(mixes)
@example(GUARD_EXAMPLES["due-now heap event"])
@example(GUARD_EXAMPLES["not the last callback"])
@example(GUARD_EXAMPLES["until event"])
@example(GUARD_EXAMPLES["finish behind a due-now event"])
@example(GUARD_EXAMPLES["finish behind a granted request"])
@example(GUARD_EXAMPLES["finish before a later callback"])
def test_inline_path_matches_heap_only_kernel(mix):
    """The inline path changes how many heap events run, never what
    happens or when: the ``(now, actor, step)`` log, the stop point of
    ``run(until=...)`` and the final state are identical."""
    inline, inline_events = run_mix(Simulator, mix)
    reference, reference_events = run_mix(HeapOnlySimulator, mix)
    assert inline == reference
    assert inline_events <= reference_events


def test_heap_only_double_disables_the_inline_path():
    """Guard for the test double: it really fires every event via the heap."""
    mix = {"capacities": (1, 1),
           "actors": [(0.0, [("request", 0, 0.5), ("put", 0), ("get", 0),
                             ("spawn", [("timeout", 0.0)])])]}
    inline, inline_events = run_mix(Simulator, mix)
    reference, reference_events = run_mix(HeapOnlySimulator, mix)
    assert inline == reference
    assert inline_events < reference_events
