"""Temporal multiplexing: delay lines, switch schedules, and parallel lanes.

A loop interferometer with a switchable phase (0 or pi) routes pulses either
straight through or into a delay arm, so consecutive cluster pairs can serve
independent computations.  Slot m is the m-th pulse period and carries the
cluster emitted in it.  With n lanes the lower-arm delay is n * T0, and one
slot rule (:func:`lane_slot`) times every lane: lane l injects in slot l,
measures step s in slot l + s * n with that slot's cluster, and ejects in
slot l + steps * n.  So lane l consumes clusters l, l + n, l + 2n, ..., and
pulses of different lanes never meet on a beam splitter, which is what
makes the lanes independent.  The switch program, the event log and the
cluster pick all read this rule.  The lanes' gate chains are one
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
from .gates import HomodyneSetting, TwoNodeCluster

#: Grid snap tolerance, in cycles: |w tau / (2 pi) - k| below this is treated
#: as exactly on-grid, making the reduction to the undelayed criterion exact.
GRID_SNAP_TOL = 1e-9

#: Delayed-pair inseparability bound (same 1/2 as the undelayed criterion).
DELAYED_VLF_BOUND = 0.5


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


@dataclass(frozen=True)
class SwitchInterval:
    start: float
    end: float
    phase: float  # 0.0 routes straight, pi injects/ejects


@dataclass(frozen=True)
class SwitchSchedule:
    """Time-ordered, non-overlapping switch intervals with phases 0 or pi."""

    intervals: tuple

    def __post_init__(self):
        prev_end = -math.inf
        for iv in self.intervals:
            if iv.phase not in (0.0, math.pi):
                raise ValueError("the loop switch only takes phases 0 or pi")
            if iv.start >= iv.end:
                raise ValueError("empty or inverted switch interval")
            if iv.start < prev_end:
                raise ValueError("overlapping switch intervals")
            prev_end = iv.end


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


def _loop_delay(period: float, gap: float, n_lanes: int, steps: int) -> float:
    """Loop delay n_lanes * T0 of ``n_lanes`` lanes of ``steps`` steps, after
    checking the timing arguments of :func:`schedule_lanes`."""
    if n_lanes < 1:
        raise ValueError("need at least one lane")
    if steps < 1:
        raise ValueError("need at least one step per lane")
    if period <= 0 or gap <= 0 or gap >= period:
        raise ValueError("need 0 < gap < period")
    return n_lanes * gap


def schedule_lanes(period: float, gap: float, n_lanes: int, steps: int):
    """Loop delay and switch program of ``n_lanes`` lanes of ``steps`` steps.

    ``period`` is the cluster repetition period (T + T0) and ``gap`` the
    inter-pulse dark time T0.  The loop delay is the float n_lanes * T0.
    The switch is pi in every inject and eject slot of the slot rule
    (:func:`lane_slot`) and 0 while a lane's intermediate pulse circulates.
    """
    delay = _loop_delay(period, gap, n_lanes, steps)
    pi_slots = {slot for slot, _, _ in _switch_slots(n_lanes, steps)}
    schedule = SwitchSchedule(tuple(
        SwitchInterval(slot * period, (slot + 1) * period,
                       math.pi if slot in pi_slots else 0.0)
        for slot in range(max(pi_slots) + 1)))
    return delay, schedule


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
    cluster, and the switch events sit in the pi slots of the
    :func:`schedule_lanes` program; the timing arguments are checked as
    that function checks them, but the program itself is not built.  Event
    times live on an integer tick grid (tick = gap / ticks_per_gap) so
    collisions are detected exactly; if :meth:`PipelineResult.collisions`
    counts any, the run raises :class:`LaneCollisionError`, never silent.

    Every lane's modes are numbered lane-locally (sources allocated after
    its own input).  The per-lane gate chain is the same computation as
    :func:`cvmbqc.gates.run_steps`: all lanes run through the engine core
    in one call, which is run_steps with one lane, so each lane's output is
    bit-identical to a stand-alone run_steps of that lane's input, slot
    clusters and settings.  A bad lane raises what run_steps raises for it:
    the first bad lane in lane order, after the unentangled-cluster warnings
    of the lanes and steps before it.
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
    delay = _loop_delay(period, gap, n_lanes, steps)
    tick = gap / ticks_per_gap
    duration_ticks = _to_ticks(duration, tick, "pulse duration")
    period_ticks = duration_ticks + ticks_per_gap

    # (tick, lane, element, action): (tick, lane, element) is unique per
    # event, so sorting the tuples orders the log by (tick, lane, element)
    log = [(slot * period_ticks, lane, "switch", action)
           for slot, lane, action in _switch_slots(n_lanes, steps)]
    # the (mix, measure) actions of each step, named once for every lane
    actions = [(f"mix step {step}", f"measure step {step}") for step in range(1, steps + 1)]
    lane_clusters = []
    for lane in range(n_lanes):
        log.append((lane * ticks_per_gap, lane, "input", "arrive"))
        slots = [lane_slot(lane, step, n_lanes) for step in range(steps)]
        for slot, (mix, measure) in zip(slots, actions):
            t_slot = slot * period_ticks
            log += ((t_slot, lane, "bs_gate", mix), (t_slot, lane, "hd_in", measure),
                    (t_slot, lane, "hd_1", measure))
        # every step but the last sends its output pulse round the loop
        log += [(slot * period_ticks + duration_ticks, lane, "delay", "circulate")
                for slot in slots[:-1]]
        lane_clusters.append([clusters[slot] for slot in slots])
    outputs = gates._run_lanes(inputs, lane_clusters, gate_settings, allow_unentangled)

    log.sort()
    events = tuple([PipelineEvent(t_count, t_count * tick, element, lane, action)
                    for t_count, lane, element, action in log])
    result = PipelineResult(tuple(outputs), events, delay)
    clashes = result.collisions()
    if clashes:
        raise LaneCollisionError(
            f"{clashes} lane collisions at the beam splitter or the homodyne "
            "detectors; the slot rule gave two lanes one slot")
    return result
