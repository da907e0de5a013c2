"""Cycle-exact event-driven fast path for the simulator.

Which engine runs when: :class:`~repro.hw.clock.Simulation` uses this
scheduler whenever every component implements the quiescence protocol
below and ``fast_forward`` is set.  A merge stage under
``simulate_merge(engine="fast")`` reaches it only as the fallback of the
timestamp engine (:mod:`repro.hw.timestamp`); the unrolled and pipelined
sorters' own component graphs always tick here.

The naive :class:`~repro.hw.clock.Simulation` loop ticks every component
on every cycle.  In the memory-bound configurations the paper cares most
about (§IV, Eq. 1-3) almost all of those ticks are *stall ticks*: the
loader is mid-way through a multi-cycle batch transfer, most of the tree
is starved or back-pressured, and each tick only increments a stall or
idle counter.  This engine skips those ticks without changing a single
observable number: cycle counts, per-merger statistics, loader/writer
statistics and the merged output are bit-identical to the naive stepper
(the differential suite in ``tests/hw/test_fastpath.py`` verifies this
across randomized shapes).

The quiescence protocol
-----------------------

A component opts in by implementing three methods next to ``tick``:

``next_event_cycle(cycle) -> int | None``
    The earliest cycle at which this component's ``tick`` might do real
    work — move an item, change shared state, branch differently —
    assuming **no other component mutates shared state in between**.
    ``cycle`` (or smaller) means "I may act right now"; a future cycle
    is a self-scheduled timer (the loader's in-flight batch transfer,
    the writer's bandwidth-credit refill); ``None`` means "only another
    component's push or pop can wake me".

``stall_tag() -> str | None``
    A label classifying what the component's stall ticks would count
    *under the current frozen state* (``"stall_output"`` vs
    ``"idle_cycles"``, bandwidth-limited vs idle, ...).  Captured when
    the component goes to sleep and re-captured at every re-arm, so the
    skipped window is always accounted under the tag that was valid
    while it was skipped.

``apply_stall(tag, n) -> None``
    Bulk-apply ``n`` skipped stall ticks' worth of bookkeeping for a
    captured ``tag``: the same counters a naive tick would have
    incremented ``n`` times, the same deterministic local state
    evolution (credit refill, transfer countdown), and nothing else.

``skip_cycles(n)`` (``= apply_stall(stall_tag(), n)``) is the immediate
form used when the state is known to still be frozen.

Two *optional* hooks refine the wiring:

``wake_fifos() -> list[Fifo]``
    The static set of FIFOs a component's tick can touch, for
    components whose ports are not direct dataclass fields (the loader
    reaches its leaf FIFOs through feed records).

``wake_fifos_now() -> list[Fifo]``
    The *dynamic* wake set: the FIFOs whose traffic can change this
    component's ``next_event_cycle``/``stall_tag`` answers **in its
    current state**.  Consulted at sleep time and after every re-arm.
    An in-flight loader with nothing parked returns ``[]`` (its only
    event is its own transfer timer); a starved merger returns just its
    empty input port (downstream pops draining its output cannot enable
    it).  Returning ``[]`` is a contract that no FIFO traffic affects
    the component until it next wakes.

The engine
----------

:func:`run_event_driven` keeps a per-component *awake* flag.  Awake
components tick normally, in list order, preserving the naive stepper's
intra-cycle semantics exactly.  Every :data:`SWEEP_INTERVAL_MIN` cycles
(backing off to :data:`SWEEP_INTERVAL_MAX` while nothing changes) a
*sleep sweep* asks each awake component for its next event; components
with no event due go to sleep, recording the cycle they slept from,
their stall tag, an optional timer, and their dynamic wake set.

Traffic on a registered FIFO does **not** blindly wake a sleeper.  The
engine flushes the sleeper's skipped-cycle accounting up to the event
boundary (the exact cycle whose tick first observes the new state —
this cycle for components later in tick order than the mover, the next
cycle for earlier ones) and re-asks ``next_event_cycle``:

* if the component can act at the boundary it wakes fully (and still
  ticks this cycle when its turn has not passed);
* otherwise it *re-arms*: new stall tag, new timer, new wake set, still
  asleep.  A starved merger whose output is being drained stays asleep
  through every downstream pop instead of thrashing awake.

When **no sleeper is FIFO-registered** (everyone asleep is timer-only
or traffic-independent) the engine drops into a dense loop: prebound
``tick`` calls, no movement detection at all, until the next timer,
sweep boundary or completion.  Compute-bound shapes where every
component is busy every cycle run the dense loop almost exclusively,
which is how the fast path stays at or above naive parity there.

When *no* component is awake the clock jumps straight to the earliest
timer (or the cycle budget, turning silent deadlocks into instant,
fully-accounted timeouts).

Components that do not implement the protocol (trace recorders, fault
injectors, pausing wrappers) disable the fast path for the whole run;
:class:`~repro.hw.clock.Simulation` silently degrades to the naive
loop.  See ``docs/performance.md`` for the full contract and the
argument for why the engines cannot diverge.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from heapq import heappop, heappush
from typing import Callable

from repro.errors import SimulationError
from repro.hw.fifo import Fifo

_PROTOCOL = ("next_event_cycle", "stall_tag", "apply_stall")

#: Cycles between sleep-candidacy sweeps while components keep acting.
#: A sweep asks every awake component for its next event, so sweeping
#: too often taxes compute-bound shapes; sweeping too rarely leaves
#: stalled components ticking.  Sweeps back off exponentially to
#: :data:`SWEEP_INTERVAL_MAX` while they find nothing to sleep and no
#: wake occurs, then snap back.
SWEEP_INTERVAL_MIN = 8
SWEEP_INTERVAL_MAX = 256

#: A sleep/wake round trip (wake-set registration, re-evaluation,
#: deregistration) costs roughly as much as this many skipped stall
#: ticks.  A component whose sleep turns out shorter than this was a
#: net loss, so it is barred from re-sleeping for
#: :data:`SLEEP_PENALTY_CYCLES` — components that stall in short bursts
#: (a merger starved every other cycle by its coupler) settle into
#: plain awake ticking, which is cheaper than churning.
MIN_SLEEP_CYCLES = 32
SLEEP_PENALTY_CYCLES = 1024

#: Re-arms (in-place re-evaluations triggered by registered-FIFO
#: traffic) tolerated per sleep window before the engine concludes the
#: wake set is too hot and wakes the component outright, with the same
#: re-sleep penalty as a too-short sleep.  Each re-arm re-derives the
#: stall tag, timer and wake set — several ticks' worth of work — so a
#: sleeper re-armed every few cycles is strictly worse than an awake
#: component counting stalls in plain ticks.
REARM_LIMIT = 8


def supports_fast_forward(components: list) -> bool:
    """True when every component implements the quiescence protocol."""
    return all(
        all(hasattr(component, method) for method in _PROTOCOL)
        for component in components
    )


def _component_fifos(component: object) -> list[Fifo]:
    """FIFOs referenced by a component's dataclass fields (one level)."""
    if not is_dataclass(component):
        return []
    out: list[Fifo] = []
    for spec in fields(component):
        value = getattr(component, spec.name, None)
        if isinstance(value, Fifo):
            out.append(value)
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, Fifo):
                    out.append(item)
    return out


def _watched_fifos(component: object) -> list[Fifo]:
    """The full static set of FIFOs a component's tick can touch.

    Components whose ports are not direct dataclass fields (the loader
    reaches its leaf FIFOs through feed records) override the default
    via a ``wake_fifos()`` hook.
    """
    hook = getattr(component, "wake_fifos", None)
    if hook is not None:
        return list(hook())
    return _component_fifos(component)


def run_event_driven(
    components: list,
    cycle: int,
    done: Callable[[], bool],
    limit: int,
    max_cycles: int,
) -> int:
    """Run the event-driven scheduler; returns the final cycle number.

    Semantically identical to ticking every component on every cycle
    from ``cycle`` until ``done()`` or ``limit``: same final cycle, same
    statistics, same data movement.  Raises the same budget-exhausted
    :class:`~repro.errors.SimulationError` as the naive loop, with a
    stall snapshot appended.
    """
    n_components = len(components)
    order = list(components)
    ticks = [component.tick for component in order]
    dynamic_sets = [
        getattr(component, "wake_fifos_now", None) for component in order
    ]

    # Wiring: one slot per distinct FIFO; per-component adjacency (the
    # static touchable set) for movement detection; per-slot lists of
    # *currently registered sleepers* for event dispatch.
    slot_of: dict[int, int] = {}
    fifo_list: list[Fifo] = []
    slot_sleepers: list[list[int]] = []
    slot_touchers: list[list[int]] = []
    adjacency: list[list[tuple[Fifo, int]]] = []
    for component_index, component in enumerate(order):
        pairs: list[tuple[Fifo, int]] = []
        for fifo in _watched_fifos(component):
            slot = slot_of.get(id(fifo))
            if slot is None:
                slot = len(fifo_list)
                slot_of[id(fifo)] = slot
                fifo_list.append(fifo)
                slot_sleepers.append([])
                slot_touchers.append([])
            pairs.append((fifo, slot))
            slot_touchers[slot].append(component_index)
        adjacency.append(pairs)
    traffic = [fifo.pushes + fifo.pops for fifo in fifo_list]
    # watch_count[i] > 0 iff some FIFO component i can touch has a
    # registered sleeper; maintained at register/deregister so awake
    # components with no sleeping neighbours tick at naive cost (no
    # movement detection at all).
    watch_count = [0] * n_components

    awake = [True] * n_components
    sleep_since = [0] * n_components
    slept_at = [0] * n_components
    sleep_tag: list = [None] * n_components
    timers: list = [None] * n_components
    reg_slots: list[tuple[int, ...]] = [()] * n_components
    awake_count = n_components
    registered_count = 0
    next_timer: int | None = None
    next_sweep = cycle + SWEEP_INTERVAL_MIN
    sweep_interval = SWEEP_INTERVAL_MIN
    dense_ticks: list = []
    dense_dirty = True
    # Sparse-mode iteration order: the indices awake at cycle start
    # (rebuilt lazily on any sleep/wake) plus a heap of components woken
    # *mid-cycle* by an earlier-ticking neighbour, which still owe a
    # tick this cycle.  Scales the per-cycle cost with the number of
    # awake components instead of the component count.
    awake_list: list[int] = []
    awake_dirty = True
    pending: list[int] = []
    # Churn guard: components whose last sleep was too short to pay for
    # itself are barred from re-sleeping until this cycle.
    no_sleep_before = [0] * n_components
    # Re-arm guard: in-place re-evaluations since each component last
    # went to sleep (see REARM_LIMIT).
    rearms = [0] * n_components

    def register(index: int) -> None:
        """Record the component's dynamic wake set in the slot tables."""
        nonlocal registered_count
        hook = dynamic_sets[index]
        fifos = hook() if hook is not None else [
            fifo for fifo, _slot in adjacency[index]
        ]
        slots = []
        for fifo in fifos:
            slot = slot_of.get(id(fifo))
            if slot is None:
                # A FIFO outside the static wiring (exotic component):
                # give it a slot so its traffic is still observable.
                slot = len(fifo_list)
                slot_of[id(fifo)] = slot
                fifo_list.append(fifo)
                slot_sleepers.append([])
                slot_touchers.append([])
                traffic.append(fifo.pushes + fifo.pops)
            sleepers = slot_sleepers[slot]
            if not sleepers:
                for toucher in slot_touchers[slot]:
                    watch_count[toucher] += 1
            sleepers.append(index)
            traffic[slot] = fifo.pushes + fifo.pops
            slots.append(slot)
        reg_slots[index] = tuple(slots)
        registered_count += len(slots)

    def deregister(index: int) -> None:
        nonlocal registered_count
        slots = reg_slots[index]
        for slot in slots:
            sleepers = slot_sleepers[slot]
            sleepers.remove(index)
            if not sleepers:
                for toucher in slot_touchers[slot]:
                    watch_count[toucher] -= 1
        registered_count -= len(slots)
        reg_slots[index] = ()

    def put_to_sleep(index: int, from_cycle: int, hint: int | None) -> None:
        nonlocal awake_count, next_timer, dense_dirty, awake_dirty
        awake[index] = False
        awake_count -= 1
        sleep_since[index] = from_cycle
        slept_at[index] = from_cycle
        rearms[index] = 0
        sleep_tag[index] = order[index].stall_tag()
        timers[index] = hint
        if hint is not None and (next_timer is None or hint < next_timer):
            next_timer = hint
        register(index)
        dense_dirty = True
        awake_dirty = True

    def wake(index: int, at_cycle: int) -> None:
        """Flush a sleeper's skipped window and mark it awake."""
        nonlocal awake_count, dense_dirty, awake_dirty
        nonlocal sweep_interval, next_sweep
        skipped = at_cycle - sleep_since[index]
        if skipped > 0:
            order[index].apply_stall(sleep_tag[index], skipped)
        if at_cycle - slept_at[index] < MIN_SLEEP_CYCLES:
            no_sleep_before[index] = at_cycle + SLEEP_PENALTY_CYCLES
        deregister(index)
        awake[index] = True
        timers[index] = None
        awake_count += 1
        dense_dirty = True
        awake_dirty = True
        if sweep_interval != SWEEP_INTERVAL_MIN:
            sweep_interval = SWEEP_INTERVAL_MIN
            boundary = at_cycle + sweep_interval
            if boundary < next_sweep:
                next_sweep = boundary

    def handle_event(watcher: int, mover: int) -> None:
        """A registered FIFO of a sleeping ``watcher`` saw traffic.

        Flush the watcher's accounting up to the event boundary — the
        first cycle whose (real or skipped) tick observes the new state:
        this cycle when the watcher ticks after the mover, the next one
        when its turn already passed — then either wake it (it can act
        at the boundary) or re-arm it in place with a fresh tag, timer
        and wake set.  Re-arming is what lets a component sleep through
        adjacent traffic that provably cannot enable it.
        """
        nonlocal next_timer
        component = order[watcher]
        boundary = cycle if watcher > mover else cycle + 1
        skipped = boundary - sleep_since[watcher]
        if skipped > 0:
            component.apply_stall(sleep_tag[watcher], skipped)
            sleep_since[watcher] = boundary
        hint = component.next_event_cycle(boundary)
        if hint is not None and hint <= boundary:
            deregister(watcher)
            _mark_awake(watcher)
            if watcher > mover:
                # The watcher's turn has not passed: it still owes a
                # tick this cycle, outside the cycle-start awake list.
                heappush(pending, watcher)
            return
        if rearms[watcher] >= REARM_LIMIT:
            # The wake set is too hot for sleeping to pay off: wake the
            # component outright (a spurious wake is naive-identical)
            # and bar re-sleep so it settles into plain ticking.
            no_sleep_before[watcher] = cycle + SLEEP_PENALTY_CYCLES
            deregister(watcher)
            _mark_awake(watcher)
            if watcher > mover:
                heappush(pending, watcher)
            return
        rearms[watcher] += 1
        sleep_tag[watcher] = component.stall_tag()
        timers[watcher] = hint
        if hint is not None and (next_timer is None or hint < next_timer):
            next_timer = hint
        # The state that justified the old wake set is gone; re-derive.
        deregister(watcher)
        register(watcher)

    def _mark_awake(index: int) -> None:
        nonlocal awake_count, dense_dirty, awake_dirty
        nonlocal sweep_interval, next_sweep
        if cycle - slept_at[index] < MIN_SLEEP_CYCLES:
            no_sleep_before[index] = cycle + SLEEP_PENALTY_CYCLES
        awake[index] = True
        timers[index] = None
        awake_count += 1
        dense_dirty = True
        awake_dirty = True
        if sweep_interval != SWEEP_INTERVAL_MIN:
            sweep_interval = SWEEP_INTERVAL_MIN
            boundary = cycle + sweep_interval
            if boundary < next_sweep:
                next_sweep = boundary

    def settle_all(at_cycle: int) -> None:
        for index in range(n_components):
            if not awake[index]:
                wake(index, at_cycle)

    def sweep(at_cycle: int) -> None:
        """Put every eventless awake component to sleep.

        Runs between cycles (``at_cycle`` is the next cycle to
        execute), so each component's answer reflects exactly the state
        its next tick would see.  Sleeping late is always safe — the
        extra awake ticks are naive-identical stall ticks — which is
        why candidacy can be batched instead of tracked per tick.
        """
        nonlocal sweep_interval, next_sweep
        slept = False
        for index in range(n_components):
            if not awake[index] or at_cycle < no_sleep_before[index]:
                continue
            component = order[index]
            hint = component.next_event_cycle(at_cycle)
            if hint is not None and hint <= at_cycle:
                continue
            put_to_sleep(index, at_cycle, hint)
            slept = True
        if slept:
            sweep_interval = SWEEP_INTERVAL_MIN
        elif sweep_interval < SWEEP_INTERVAL_MAX:
            sweep_interval = min(2 * sweep_interval, SWEEP_INTERVAL_MAX)
        next_sweep = at_cycle + sweep_interval

    while True:
        if next_timer is not None and next_timer <= cycle:
            next_timer = None
            for index in range(n_components):
                due = timers[index]
                if awake[index] or due is None:
                    continue
                if due <= cycle:
                    wake(index, cycle)
                elif next_timer is None or due < next_timer:
                    next_timer = due
        if done():
            settle_all(cycle)
            return cycle
        if cycle >= limit:
            settle_all(cycle)
            raise SimulationError(
                f"simulation did not complete within {max_cycles} cycles; "
                "likely deadlock or missing terminal\n"
                + format_stall_report(order, cycle)
            )
        if awake_count == 0:
            # Global quiescence: jump to the earliest self-scheduled
            # event, or straight to the budget boundary (deadlock).
            cycle = limit if next_timer is None else min(next_timer, limit)
            continue
        if cycle >= next_sweep:
            sweep(cycle)
            if awake_count == 0:
                continue
        if registered_count == 0:
            # Dense mode: every sleeper is timer-only (or declared
            # traffic-independent), so no per-tick movement detection
            # is needed — run a bare tick loop to the next boundary.
            end = next_sweep if next_sweep < limit else limit
            if next_timer is not None and next_timer < end:
                end = next_timer
            if dense_dirty:
                dense_ticks = [
                    ticks[index] for index in range(n_components) if awake[index]
                ]
                dense_dirty = False
            while cycle < end:
                for tick in dense_ticks:
                    tick(cycle)
                cycle += 1
                if done():
                    break
            continue
        # Sparse mode: one cycle with exact per-tick event dispatch.
        # Iterate the cycle-start awake list in index order, merging in
        # components woken mid-cycle by an earlier neighbour (they tick
        # this cycle, preserving naive intra-cycle order exactly).
        # Components with no sleeping neighbour (watch_count 0) tick
        # without any movement detection — in busy phases that is most
        # of them, keeping sparse-mode ticks at naive cost.
        if awake_dirty:
            awake_list = [
                index for index in range(n_components) if awake[index]
            ]
            awake_dirty = False
        position = 0
        n_listed = len(awake_list)
        while True:
            if pending and (
                position >= n_listed or pending[0] < awake_list[position]
            ):
                index = heappop(pending)
            elif position < n_listed:
                index = awake_list[position]
                position += 1
            else:
                break
            if not watch_count[index]:
                ticks[index](cycle)
                continue
            ops_before = Fifo.total_ops
            ticks[index](cycle)
            if Fifo.total_ops == ops_before:
                continue
            for fifo, slot in adjacency[index]:
                sleepers = slot_sleepers[slot]
                if not sleepers:
                    continue
                seen = fifo.pushes + fifo.pops
                if seen == traffic[slot]:
                    continue
                traffic[slot] = seen
                for watcher in tuple(sleepers):
                    handle_event(watcher, index)
        cycle += 1


# ----------------------------------------------------------------------
# Stall diagnostics (for the run_until timeout error)
# ----------------------------------------------------------------------
def format_stall_report(components: list, cycle: int) -> str:
    """Human-readable snapshot of why the simulation is not progressing.

    Lists every reachable FIFO's occupancy/capacity/high-water mark and
    each merger's run state (done flags, feedback register), so a
    ``max_cycles`` timeout is diagnosable without re-running under a
    trace recorder.
    """
    fifos: dict[int, Fifo] = {}
    merger_lines: list[str] = []
    other_lines: list[str] = []
    for component in components:
        for fifo in _watched_fifos(component):
            fifos[id(fifo)] = fifo
        if hasattr(component, "_done_a") and hasattr(component, "_feedback"):
            merger_lines.append(
                f"    {getattr(component, 'name', type(component).__name__)}: "
                f"done_a={component._done_a} done_b={component._done_b} "
                f"feedback={'held' if component._feedback is not None else 'empty'} "
                f"run_in_progress={component.run_in_progress}"
            )
        elif hasattr(component, "_inflight_cycles_left"):
            exhausted = sum(1 for feed in component.feeds if feed.exhausted)
            other_lines.append(
                f"    loader: inflight_cycles_left={component._inflight_cycles_left} "
                f"parked_leaves={sorted(component._parked)} "
                f"feeds_exhausted={exhausted}/{len(component.feeds)}"
            )
        elif hasattr(component, "expected_runs"):
            other_lines.append(
                f"    writer: runs={len(component.runs)}/{component.expected_runs} "
                f"credit={component._credit:.1f}"
            )
    lines = [f"stall snapshot at cycle {cycle}:"]
    if fifos:
        lines.append("  fifos (occupancy/capacity, high-water):")
        for fifo in sorted(fifos.values(), key=lambda f: f.name):
            lines.append(
                f"    {fifo.name}: {len(fifo)}/{fifo.capacity} hw={fifo.high_water}"
            )
    if merger_lines:
        lines.append("  mergers:")
        lines.extend(sorted(merger_lines))
    if other_lines:
        lines.append("  endpoints:")
        lines.extend(other_lines)
    return "\n".join(lines)
