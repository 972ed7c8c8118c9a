"""Temporal multiplexing: delay lines, the loop switch, and parallel lanes.

A loop interferometer with a switchable phase (0 or pi) routes pulses either
straight through or into a delay arm, so consecutive cluster pairs can serve
independent computations.  Slot m is the m-th pulse period and carries the
cluster emitted in it.  With n lanes the lower-arm delay is n * T0, and one
slot rule (:func:`lane_slot`) times every lane: lane l injects in slot l,
measures step s in slot l + s * n with that slot's cluster, and ejects in
slot l + steps * n.  So lane l consumes clusters l, l + n, l + 2n, ..., and
pulses of different lanes never meet on a beam splitter, which is what
makes the lanes independent.  The switch program is the rule's inject and
eject slots (:func:`_switch_slots`), where the switch is pi; it is 0 in
every other slot.  The program, the event log and the cluster pick all
read this rule.  The lanes' gate chains are one
computation: :func:`simulate_pipeline` runs every lane through the gate
engine's core in one pass, the core that :func:`cvmbqc.gates.run_steps` runs
with one lane, and each lane's output is bit-identical to run_steps on that
lane's own slot clusters.

Delaying one node of a cluster by tau keeps the pair entangled exactly at
the frequencies w_k = 2 pi k / tau, where the delayed inseparability
criterion

    4 cos^2(w tau / 2) y_var + 4 sin^2(w tau / 2) x_var < 1/2

loses its anti-squeezed term and reduces to the undelayed condition.  The
scheme delay (arm alignment, multiples of T0) and the criterion delay
(entanglement lifetime, multiples of T + T0) are independent parameters.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import gates
from .cluster import VLF_BOUND
from .gates import HomodyneSetting, TwoNodeCluster

#: Grid snap tolerance, in cycles: |w tau / (2 pi) - k| below this is treated
#: as exactly on-grid, making the reduction to the undelayed criterion exact.
GRID_SNAP_TOL = 1e-9

#: Delayed-pair inseparability bound: the undelayed criterion's bound.
DELAYED_VLF_BOUND = VLF_BOUND


class LaneCollisionError(RuntimeError):
    """Two lanes scheduled onto the same optical element at the same tick."""


@dataclass(frozen=True)
class DelayedVlf:
    lhs: float
    entangled: bool


def delayed_vlf(tau: float, omega: float, y_var: float, x_var: float) -> DelayedVlf:
    """Inseparability of a cluster pair with one node delayed by tau.

    lhs = 4 cos^2(w tau/2) y_var + 4 sin^2(w tau/2) x_var, entangled iff
    lhs < 1/2 strictly.  When w tau is an integer number of cycles (within
    GRID_SNAP_TOL) the weights are taken as exactly (1, 0), so on-grid
    frequencies reduce to 4 * y_var without floating-point residue.
    """
    if y_var < 0 or x_var < 0:
        raise ValueError("variances must be nonnegative")
    cycles = omega * tau / (2.0 * math.pi)
    if abs(cycles - round(cycles)) <= GRID_SNAP_TOL:
        lhs = 4.0 * y_var
    else:
        half = 0.5 * omega * tau
        lhs = 4.0 * math.cos(half) ** 2 * y_var + 4.0 * math.sin(half) ** 2 * x_var
    return DelayedVlf(lhs, lhs < DELAYED_VLF_BOUND)


def admissible_frequencies(tau: float, k_range: Iterable[int]) -> np.ndarray:
    """Frequencies w_k = 2 pi k / tau at which a delayed pair stays entangled."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    ks = [int(k) for k in k_range]
    return np.array([2.0 * math.pi * k / tau for k in ks])


def lane_slot(lane: int, step: int, n_lanes: int) -> int:
    """Slot of step ``step`` of lane ``lane`` under the slot rule.

    Step 0's slot is also the lane's inject slot, and the step one past a
    lane's last step gives its eject slot.
    """
    return lane + step * n_lanes


def _switch_slots(n_lanes: int, steps: int) -> list:
    """(slot, lane, action) of every inject and eject, by the slot rule."""
    return [(lane_slot(lane, step, n_lanes), lane, action)
            for lane in range(n_lanes)
            for step, action in ((0, "inject"), (steps, "eject"))]


def _loop_delay(period: float, gap: float, n_lanes: int) -> float:
    """Loop delay n_lanes * T0 of ``n_lanes`` lanes, after checking that
    0 < ``gap`` (T0) < ``period`` (T + T0)."""
    if period <= 0 or gap <= 0 or gap >= period:
        raise ValueError("need 0 < gap < period")
    return n_lanes * gap


class PipelineEvent(NamedTuple):
    """One entry of a pipeline's event log: at integer tick ``tick`` (time
    ``t``), lane ``lane`` does ``action`` at optical element ``element``.

    A named tuple, so a log of many lanes costs one tuple per event: a
    64-lane pipeline of 4 steps logs 1 152 events.  Events compare as
    tuples, field by field in this order.
    """

    tick: int
    t: float
    element: str
    lane: int
    action: str


def events_to_jsonl(events: Sequence[PipelineEvent]) -> str:
    """One JSON object per line: {t, tick, element, lane, action}."""
    lines = [
        json.dumps({"t": ev.t, "tick": ev.tick, "element": ev.element,
                    "lane": ev.lane, "action": ev.action}, sort_keys=True)
        for ev in events
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def _count_collisions(events: Sequence[PipelineEvent]) -> int:
    """Number of (element, tick) pairs visited by more than one lane."""
    seen = {}
    clashes = 0
    for tick, _, element, lane, _ in events:
        if element in ("bs_gate", "hd_in", "hd_1"):
            key = (element, tick)
            if key in seen and seen[key] != lane:
                clashes += 1
            seen[key] = lane
    return clashes


@dataclass(frozen=True)
class PipelineResult:
    """Per-lane outputs, the event log and the loop delay of one pipeline.

    The log is held as a tuple and scanned for collisions once, when the
    result is made; :meth:`collisions` returns that count.
    """

    outputs: tuple  # one GateOutput per lane
    events: tuple
    delay: float
    _collisions: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        events = tuple(self.events)
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "_collisions", _count_collisions(events))

    def collisions(self) -> int:
        """Number of (element, tick) pairs visited by more than one lane."""
        return self._collisions


def _to_ticks(value: float, tick: float, what: str) -> int:
    cycles = value / tick if tick > 0 else math.inf
    if not math.isfinite(cycles):
        raise ValueError(f"{what} = {value:g} does not fit on the tick grid "
                         f"(tick = {tick:g}); adjust ticks_per_gap")
    n = round(cycles)
    if abs(value - n * tick) > 1e-9 * max(abs(value), 1.0):
        raise ValueError(f"{what} = {value:g} is not representable on the tick grid "
                         f"(tick = {tick:g}); adjust ticks_per_gap")
    return int(n)


def _event_log(slots: list, switches: list, tick: float, ticks_per_gap: int,
               duration_ticks: int) -> tuple:
    """The pipeline's event log in (tick, lane, element) order, without a sort.

    ``slots[l][s]`` is the slot of step s of lane l and ``switches`` the
    (slot, lane, action) list of :func:`_switch_slots`, an inject and an
    eject for each lane in turn.  With G = ``ticks_per_gap``, D =
    ``duration_ticks`` and P = D + G, step s of lane l mixes and measures at
    tick m P of its slot m = l + s n and, before its lane's last step, sends
    the pulse round the loop at m P + D < (m + 1) P; lane l's switch injects
    at l P and ejects at (l + steps n) P.  So under the slot rule the slots
    follow each other in tick order and the ejects come after every step:
    the first pass emits them so.  Within one tick and lane the elements
    sort as bs_gate < delay < hd_1 < hd_in < input < switch, and a
    circulation shares its slot's tick only when D = 0.  Lane l's input
    arrives at l G <= l P, among the first step's events, so the second
    pass merges the arrivals into those, each before the first event with a
    larger (tick, lane, element) key.  Events are made as plain tuples of
    the named-tuple class.
    """
    new, event = tuple.__new__, PipelineEvent
    n_lanes, steps = len(slots), len(slots[0])
    period_ticks = duration_ticks + ticks_per_gap
    log = []
    for step in range(steps):
        mix, measure = f"mix step {step + 1}", f"measure step {step + 1}"
        for lane in range(n_lanes):
            t_count = slots[lane][step] * period_ticks
            t = t_count * tick
            group = [new(event, (t_count, t, "bs_gate", lane, mix)),
                     new(event, (t_count, t, "hd_1", lane, measure)),
                     new(event, (t_count, t, "hd_in", lane, measure))]
            if not step:
                slot, switch_lane, action = switches[2 * lane]
                group.append(new(event, (slot * period_ticks, slot * period_ticks * tick,
                                         "switch", switch_lane, action)))
            if step + 1 < steps:
                t_loop = t_count + duration_ticks
                group.insert(1 if not duration_ticks else len(group),
                             new(event, (t_loop, t_loop * tick, "delay", lane, "circulate")))
            log += group
        if not step:
            first = len(log)
    log += [new(event, (slot * period_ticks, slot * period_ticks * tick, "switch", lane,
                        action)) for slot, lane, action in switches[1::2]]
    merged, done, i = [], 0, 0
    for lane in range(n_lanes):
        t_count = lane * ticks_per_gap
        key = (t_count, lane, "input")
        while i < first and (log[i][0], log[i][3], log[i][2]) < key:
            i += 1
        merged += log[done:i]
        merged.append(new(event, (t_count, t_count * tick, "input", lane, "arrive")))
        done = i
    merged += log[done:]
    return tuple(merged)


def simulate_pipeline(duration: float, gap: float,
                      inputs: Sequence[tuple],
                      clusters: Sequence[TwoNodeCluster],
                      gate_settings: Sequence[Sequence[HomodyneSetting]],
                      ticks_per_gap: int = 100,
                      allow_unentangled: bool = False) -> PipelineResult:
    """Event-driven run of the multiplexed computation.

    ``inputs`` is one (x, y) expression pair per lane; ``gate_settings`` one
    setting list per lane; ``clusters`` one cluster per emission slot.  The
    slot rule (:func:`lane_slot`) places every event and picks each step's
    cluster, and the switch events sit in the inject and eject slots of
    :func:`_switch_slots`.  The loop delay n_lanes * gap comes from
    :func:`_loop_delay`, which raises unless 0 < gap < duration + gap.  Event
    times live on an integer tick grid (tick = gap / ticks_per_gap) so
    collisions are detected exactly; if :meth:`PipelineResult.collisions`
    counts any, the run raises :class:`LaneCollisionError`, never silent.

    Every lane's modes are numbered lane-locally (sources allocated after
    its own input).  The per-lane gate chain is the same computation as
    :func:`cvmbqc.gates.run_steps`: all lanes run through the engine core
    in one call, which is run_steps with one lane, so each lane's output is
    bit-identical to a stand-alone run_steps of that lane's input, slot
    clusters and settings.  The lanes' sampling and feed-forward arrays are
    built on the first read of any of them, for all lanes at once.  A bad
    lane raises what run_steps raises for it: the first bad lane in lane
    order, after the unentangled-cluster warnings of the lanes and steps
    before it.  The event log is ordered by (tick, lane, element) and is
    emitted in that order without a sort: slot by slot, with the input
    arrivals merged into the first step's events.
    """
    n_lanes = len(inputs)
    if n_lanes < 1:
        raise ValueError("need at least one lane")
    if len(gate_settings) != n_lanes:
        raise ValueError("need one gate-setting list per lane")
    steps = len(gate_settings[0])
    if steps < 1 or any(len(s) != steps for s in gate_settings):
        raise ValueError("all lanes must run the same positive number of steps")
    if len(clusters) < n_lanes * steps:
        raise ValueError(f"need {n_lanes * steps} clusters, got {len(clusters)}")
    if ticks_per_gap < 1:
        raise ValueError("ticks_per_gap must be at least 1")

    period = duration + gap
    if not math.isfinite(period):
        raise ValueError(f"pulse period duration + gap = {duration:g} + {gap:g} "
                         "is not finite")
    delay = _loop_delay(period, gap, n_lanes)
    tick = gap / ticks_per_gap
    duration_ticks = _to_ticks(duration, tick, "pulse duration")
    period_ticks = duration_ticks + ticks_per_gap

    slots = [[lane_slot(lane, step, n_lanes) for step in range(steps)]
             for lane in range(n_lanes)]
    lane_clusters = [[clusters[slot] for slot in lane_slots] for lane_slots in slots]
    outputs = gates._run_lanes(inputs, lane_clusters, gate_settings, allow_unentangled)
    events = _event_log(slots, _switch_slots(n_lanes, steps), tick, ticks_per_gap,
                        duration_ticks)
    result = PipelineResult(tuple(outputs), events, delay)
    clashes = result.collisions()
    if clashes:
        raise LaneCollisionError(
            f"{clashes} lane collisions at the beam splitter or the homodyne "
            "detectors; the slot rule gave two lanes one slot")
    return result
