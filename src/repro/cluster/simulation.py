"""A deterministic discrete-event simulation kernel.

This module is the foundation of the hardware substrate described in
DESIGN.md.  The LakeHarbor paper evaluates ReDe on a 128-node cluster; we
reproduce the *shape* of its results by running every engine's real control
logic on virtual time.  The kernel is a from-scratch, SimPy-flavoured design:

* :class:`Simulator` owns the virtual clock and the event heap.
* :class:`Event` is a one-shot occurrence with callbacks and a value.
* :class:`Timeout` fires after a fixed delay.
* :class:`Process` wraps a generator; the generator *yields* events and is
  resumed with each event's value when it fires.  A process is itself an
  event that triggers when the generator returns.
* :class:`Resource` models capacity (CPU cores, disk spindles, thread pools):
  ``request()`` returns an event that fires once a slot is available.
* :class:`Store` is an unbounded FIFO queue of items with blocking ``get()``.
* :func:`all_of` aggregates events for barrier-style waits.

Determinism: events scheduled for the same instant fire in scheduling order
(the heap is keyed by ``(time, sequence)``), so repeated runs with the same
inputs produce identical traces and timings.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import SimulationDeadlock, SimulationError

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "Resource",
    "Store",
    "all_of",
    "any_of",
]


class Event:
    """A one-shot occurrence inside a :class:`Simulator`.

    An event starts *pending*; :meth:`succeed` schedules it to *trigger*, at
    which point all registered callbacks run (in registration order) and its
    :attr:`value` becomes available.  Processes wait on events by yielding
    them.
    """

    __slots__ = ("sim", "callbacks", "_value", "_in_heap")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._in_heap = False

    @property
    def triggered(self) -> bool:
        """True once the event has fired (callbacks have been dispatched)."""
        return self.callbacks is None

    @property
    def value(self) -> Any:
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Schedule this event to fire now (at the current simulated time)."""
        if self.callbacks is None or self._in_heap:
            raise SimulationError("event already triggered or scheduled")
        self._value = value
        self.sim._schedule(self, 0.0)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event fires (immediately if fired)."""
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        self.sim = sim
        self.callbacks = []
        self._value = value
        self.delay = delay
        sim._schedule(self, delay)


class Process(Event):
    """A simulated thread of control, driven by a generator.

    The generator yields :class:`Event` objects; the process sleeps until each
    yielded event fires and is resumed with the event's value.  When the
    generator returns, the process (which is itself an event) triggers with
    the generator's return value, so other processes can wait on it.
    """

    __slots__ = ("generator", "name")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = "") -> None:
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Kick-start the process at the current instant.
        bootstrap = Event(sim)
        bootstrap.add_callback(self._resume)
        sim._schedule(bootstrap, 0.0)

    def _resume(self, event: Event) -> None:
        sim = self.sim
        send = self.generator.send
        sent = event._value
        while True:
            try:
                target = send(sent)
            except StopIteration as stop:
                self._value = stop.value
                heap = sim._heap
                if (sim._tail and not self.callbacks and sim._parked is None
                        and (not heap or heap[0][0] > sim.now)):
                    # Nobody waits on this process and the heap would pop
                    # its completion next: complete in place.
                    self.callbacks = None
                else:
                    sim._schedule(self, 0.0)
                return
            if not isinstance(target, Event):
                raise SimulationError(
                    f"process {self.name!r} yielded {target!r}, expected an Event"
                )
            callbacks = target.callbacks
            if callbacks is None:
                # Already fired: continue synchronously with its value.
                sent = target._value
                continue
            if target is sim._parked and sim._tail and not callbacks:
                heap = sim._heap
                if (not heap or heap[0][0] > sim.now
                        or heap[0][1] > sim._parked_seq):
                    # The heap would pop this event next and run only this
                    # process: fire it in place.
                    sim._parked = None
                    target._in_heap = False
                    target.callbacks = None
                    sent = target._value
                    continue
            callbacks.append(self._resume)
            return


class _ResourceRequest(Event):
    """Pending acquisition of one slot of a :class:`Resource`."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.sim)
        self.resource = resource


class Resource:
    """A counted-capacity resource with FIFO queueing.

    Models anything with a fixed number of concurrent slots: CPU cores, disk
    spindles, NIC transmit channels, or the ReDe thread pool.  ``request()``
    returns an event that fires once a slot is granted; the holder must call
    ``release()`` exactly once.
    """

    def __init__(self, sim: "Simulator", capacity: int, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._waiters: deque[_ResourceRequest] = deque()
        # Peak concurrency observed, useful for parallelism metrics.
        self.max_in_use = 0
        # Integral of in_use over time, for utilization metrics.
        self.busy_integral = 0.0
        self._last_change = sim.now

    def _account(self) -> None:
        now = self.sim.now
        self.busy_integral += self.in_use * (now - self._last_change)
        self._last_change = now

    def busy_snapshot(self) -> float:
        """Busy integral up to now; subtract two snapshots for a window."""
        self._account()
        return self.busy_integral

    def utilization(self, start: float, end: float) -> float:
        """Mean fraction of capacity busy over ``[start, end]``.

        Assumes the resource was created at (or idle before) ``start``;
        for windows on long-lived resources, use :meth:`busy_snapshot`
        deltas instead.
        """
        if end <= start:
            return 0.0
        self._account()
        return self.busy_integral / (self.capacity * (end - start))

    def request(self) -> Event:
        """Return an event that fires when a slot has been granted."""
        req = _ResourceRequest(self)
        if self.in_use < self.capacity:
            self._account()
            self.in_use += 1
            if self.in_use > self.max_in_use:
                self.max_in_use = self.in_use
            self.sim._park(req, None)
        else:
            self._waiters.append(req)
        return req

    def release(self) -> None:
        """Return a slot; hands it to the longest-waiting requester, if any."""
        if self.in_use <= 0:
            raise SimulationError(f"release() on idle resource {self.name!r}")
        if self._waiters:
            # The slot transfers directly: in_use stays constant.
            self._waiters.popleft().succeed()
        else:
            self._account()
            self.in_use -= 1

    def use(self, duration: float) -> Generator:
        """Process helper: hold one slot for ``duration`` simulated seconds."""
        yield self.request()
        try:
            yield self.sim.timeout(duration)
        finally:
            self.release()

    @property
    def queued(self) -> int:
        """Number of requests currently waiting for a slot."""
        return len(self._waiters)


class Store:
    """An unbounded FIFO queue of items with blocking ``get()``.

    Backs the stage queues of ReDe's SMPE execution model (Fig. 6 of the
    paper): producers ``put`` items immediately; consumers ``get`` an event
    that fires once an item is available.
    """

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self.total_put = 0

    def put(self, item: Any) -> None:
        """Enqueue ``item``; wakes the oldest blocked getter, if any."""
        self.total_put += 1
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event that fires with the next item."""
        event = Event(self.sim)
        if self._items:
            self.sim._park(event, self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def __len__(self) -> int:
        """Items currently queued (consumers blocked in ``get`` see 0)."""
        return len(self._items)

    def drain(self) -> list[Any]:
        """Remove and return every queued item (blocked getters stay blocked).

        Node-failure recovery uses this to take over a dead node's pending
        queue entries and re-route them to survivors.
        """
        items = list(self._items)
        self._items.clear()
        return items


def all_of(sim: "Simulator", events: Iterable[Event]) -> Event:
    """Return an event that fires once every event in ``events`` has fired.

    The aggregate's value is the list of the constituent events' values, in
    input order.  With an empty input the aggregate fires immediately.
    """
    events = list(events)
    result = Event(sim)
    remaining = len(events)
    if remaining == 0:
        # Fire synchronously: there is nothing to wait for.
        result._value = []
        result.callbacks = None
        return result
    values: list[Any] = [None] * remaining
    state = {"left": remaining}

    def make_callback(index: int) -> Callable[[Event], None]:
        def callback(event: Event) -> None:
            values[index] = event.value
            state["left"] -= 1
            if state["left"] == 0:
                result.succeed(values)

        return callback

    for i, event in enumerate(events):
        event.add_callback(make_callback(i))
    return result


def any_of(sim: "Simulator", events: Iterable[Event]) -> Event:
    """Return an event that fires when the *first* of ``events`` fires.

    The aggregate's value is ``(index, value)`` of the winner; later
    finishers are ignored.  This is the race primitive behind invocation
    timeouts: wait on ``any_of(sim, [work, timer])`` and check which side
    won.  An empty input is an error (the race could never settle).
    """
    events = list(events)
    if not events:
        raise SimulationError("any_of needs at least one event")
    result = Event(sim)

    def make_callback(index: int) -> Callable[[Event], None]:
        def callback(event: Event) -> None:
            if result.callbacks is not None and not result._in_heap:
                result.succeed((index, event.value))

        return callback

    for i, event in enumerate(events):
        event.add_callback(make_callback(i))
    return result


class Simulator:
    """The virtual clock and event loop.

    ``run()`` pops events in ``(time, sequence)`` order, guaranteeing a
    deterministic total order even among simultaneous events.

    The inline rule: a process resumed as the last callback of a popped
    event (other than ``run()``'s ``until``) fires in place an event that
    the heap would pop next anyway, instead of pushing and popping it.
    Only events with nobody else waiting qualify: a granted
    :meth:`Resource.request`, a :meth:`Store.get` served from queued
    items, and a finished process with no waiters.  ``events_processed``
    counts heap pops only.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._sequence = 0
        self.events_processed = 0
        #: an event succeeded at ``now`` whose heap key ``(now,
        #: _parked_seq)`` is reserved but not yet pushed; pushed before the
        #: next pop unless a process fires it in place
        self._parked: Optional[Event] = None
        self._parked_seq = 0
        #: True while ``run()`` is in the last callback of a popped event
        #: that is not its ``until`` — the context the inline rule needs
        self._tail = False

    # -- scheduling ------------------------------------------------------

    def _schedule(self, event: Event, delay: float) -> None:
        event._in_heap = True
        self._sequence += 1
        heapq.heappush(self._heap, (self.now + delay, self._sequence, event))

    def _park(self, event: Event, value: Any) -> None:
        """Succeed ``event`` now, reserving its heap key without a push."""
        if self._parked is not None:
            self._unpark()
        event._value = value
        event._in_heap = True
        self._sequence += 1
        self._parked = event
        self._parked_seq = self._sequence

    def _unpark(self) -> None:
        """Push the parked event under its reserved key.  Nothing pops
        between the park and this push, so ``now`` is still its time."""
        event = self._parked
        if event is not None:
            self._parked = None
            heapq.heappush(self._heap, (self.now, self._parked_seq, event))

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def event(self) -> Event:
        """Create a bare, manually-triggered event."""
        return Event(self)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Launch ``generator`` as a simulated process."""
        return Process(self, generator, name=name)

    def resource(self, capacity: int, name: str = "") -> Resource:
        return Resource(self, capacity, name=name)

    def store(self, name: str = "") -> Store:
        return Store(self, name=name)

    def all_of(self, events: Iterable[Event]) -> Event:
        return all_of(self, events)

    def any_of(self, events: Iterable[Event]) -> Event:
        return any_of(self, events)

    # -- the event loop --------------------------------------------------

    def step(self) -> None:
        """Advance to and fire the single next event (no inline firing)."""
        if self._parked is not None:
            self._unpark()
        when, _seq, event = heapq.heappop(self._heap)
        if when < self.now:
            raise SimulationError("event heap corrupted: time went backwards")
        self.now = when
        event._in_heap = False
        self.events_processed += 1
        callbacks, event.callbacks = event.callbacks, None
        self._tail = False
        for callback in callbacks or ():
            callback(event)

    def run(self, until: Optional[Event] = None, max_time: Optional[float] = None) -> Any:
        """Run the event loop.

        With ``until`` given, runs until that event fires and returns its
        value; raises :class:`SimulationDeadlock` if the heap drains first.
        Without ``until``, runs until the heap is empty.  ``max_time`` aborts
        runaway simulations.
        """
        if until is not None and until.callbacks is None:
            return until._value
        heap = self._heap
        pop = heapq.heappop
        try:
            while True:
                if self._parked is not None:
                    self._unpark()
                if not heap:
                    break
                if max_time is not None and heap[0][0] > max_time:
                    raise SimulationError(
                        f"simulation exceeded max_time={max_time}")
                when, _seq, event = pop(heap)
                if when < self.now:
                    raise SimulationError("event heap corrupted: time went backwards")
                self.now = when
                event._in_heap = False
                self.events_processed += 1
                callbacks = event.callbacks
                event.callbacks = None
                if callbacks:
                    last = callbacks.pop()
                    if callbacks:
                        self._tail = False
                        for callback in callbacks:
                            callback(event)
                    self._tail = event is not until
                    last(event)
                if until is not None and until.callbacks is None:
                    return until._value
        finally:
            # A run() nested in a callback must not leave that callback
            # marked as a tail: the inline path is an optimization only.
            self._tail = False
        if until is not None:
            raise SimulationDeadlock(
                "event heap drained before the awaited event fired "
                "(a process is blocked forever)"
            )
        return None
