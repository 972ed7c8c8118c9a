"""Temporal multiplexing: delay lines, switch schedules, and parallel lanes.

A loop interferometer with a switchable phase (0 or pi) routes pulses either
straight through or into a delay arm, so consecutive cluster pairs can serve
independent computations.  With n lanes the lower-arm delay is n * T0 and
lane l consumes clusters l, l + n, l + 2n, ...; pulses of different lanes
never meet on a beam splitter, which is what makes the lanes independent.

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
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .gates import HomodyneSetting, TwoNodeCluster, run_steps

#: Grid snap tolerance, in cycles: |w tau / (2 pi) - k| below this is treated
#: as exactly on-grid, making the reduction to the undelayed criterion exact.
GRID_SNAP_TOL = 1e-9

#: Delayed-pair inseparability bound (same 1/2 as the undelayed criterion).
DELAYED_VLF_BOUND = 0.5


class LaneCollisionError(RuntimeError):
    """Two lanes scheduled onto the same optical element at the same tick."""


@dataclass(frozen=True)
class DelaySpec:
    """A lossless delay tau against the pulse period; grid-aligned when tau = n * period."""

    tau: float
    period: float

    def __post_init__(self):
        if self.tau < 0:
            raise ValueError("delay must be nonnegative")
        if self.period <= 0:
            raise ValueError("period must be positive")

    @property
    def multiple(self) -> int | None:
        n = round(self.tau / self.period)
        if abs(self.tau - n * self.period) <= 1e-9 * max(self.period, 1.0):
            return int(n)
        return None

    @property
    def aligned(self) -> bool:
        return self.multiple is not None


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


@dataclass(frozen=True)
class LaneAssignment:
    """Which lane owns each input and each cluster pulse."""

    lane_of_input: dict
    lane_of_cluster_pulse: dict  # (cluster index, node) -> lane

    def lanes(self) -> tuple:
        return tuple(sorted(set(self.lane_of_input.values())))


def schedule_lanes(period: float, gap: float, n_lanes: int, n_clusters: int):
    """Delay, switch program, and lane assignment for parallel computation.

    ``period`` is the cluster repetition period (T + T0) and ``gap`` the
    inter-pulse dark time T0.  The loop delay is n_lanes * T0; cluster m
    belongs to lane m mod n_lanes; the switch is set to pi during slots that
    inject a fresh input or eject a finished output and 0 while a lane's
    intermediate pulse circulates.
    """
    if n_lanes < 1:
        raise ValueError("need at least one lane")
    if n_clusters < n_lanes:
        raise ValueError("need at least one cluster per lane")
    if period <= 0 or gap <= 0 or gap >= period:
        raise ValueError("need 0 < gap < period")

    delay = DelaySpec(n_lanes * gap, period)
    lane_of_input = {lane: lane for lane in range(n_lanes)}
    lane_of_cluster = {}
    steps_per_lane = {}
    for m in range(n_clusters):
        lane = m % n_lanes
        lane_of_cluster[(m, 0)] = lane
        lane_of_cluster[(m, 1)] = lane
        steps_per_lane[lane] = steps_per_lane.get(lane, 0) + 1

    # slot m covers [m*period, (m+1)*period); lane l injects in slot l and
    # ejects in the slot after its last measurement
    inject_slots = set(range(n_lanes))
    eject_slots = set()
    for lane, steps in steps_per_lane.items():
        eject_slots.add(lane + (steps - 1) * n_lanes + 1)
    n_slots = max(eject_slots) + 1
    intervals = []
    for slot in range(n_slots):
        phase = math.pi if (slot in inject_slots or slot in eject_slots) else 0.0
        intervals.append(SwitchInterval(slot * period, (slot + 1) * period, phase))
    schedule = SwitchSchedule(tuple(intervals))
    return delay, schedule, LaneAssignment(lane_of_input, lane_of_cluster)


@dataclass(frozen=True)
class PipelineEvent:
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


@dataclass(frozen=True)
class PipelineResult:
    outputs: tuple  # one GateOutput per lane
    events: tuple
    delay: DelaySpec
    schedule: SwitchSchedule
    assignment: LaneAssignment

    def collisions(self) -> int:
        """Number of (element, tick) pairs visited by more than one lane."""
        seen = {}
        clashes = 0
        for ev in self.events:
            if ev.element in ("bs_gate", "hd_in", "hd_1"):
                key = (ev.element, ev.tick)
                if key in seen and seen[key] != ev.lane:
                    clashes += 1
                seen[key] = ev.lane
        return clashes


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
    setting list per lane; ``clusters`` are consumed in emission order and
    assigned round-robin, so lane l's steps use clusters l, l + n_lanes, ...
    Event times live on an integer tick grid (tick = gap / ticks_per_gap) so
    collisions are detected exactly; a lane collision is a hard
    :class:`LaneCollisionError`, never silent.

    Every lane's modes are numbered lane-locally (sources allocated after
    its own input), and the per-lane gate chain is the same computation as
    :func:`cvmbqc.gates.run_steps`, so outputs are directly comparable with
    stand-alone runs of the same steps.
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
    delay, schedule, assignment = schedule_lanes(period, gap, n_lanes, n_lanes * steps)
    tick = gap / ticks_per_gap
    gap_ticks = ticks_per_gap
    duration_ticks = _to_ticks(duration, tick, "pulse duration")
    period_ticks = duration_ticks + gap_ticks

    events = []
    bs_owner = {}

    def emit(tick_count, element, lane, action):
        events.append(PipelineEvent(tick_count, tick_count * tick, element, lane, action))

    def claim(element, tick_count, lane):
        key = (element, tick_count)
        owner = bs_owner.setdefault(key, lane)
        if owner != lane:
            raise LaneCollisionError(
                f"lanes {owner} and {lane} meet at {element} at tick {tick_count}")

    outputs = []
    for lane in range(n_lanes):
        emit(lane * gap_ticks, "input", lane, "arrive")
        emit(lane * period_ticks, "switch", lane, "inject")
        for step in range(steps):
            slot = lane + step * n_lanes
            t_slot = slot * period_ticks
            for element in ("bs_gate", "hd_in", "hd_1"):
                claim(element, t_slot, lane)
            emit(t_slot, "bs_gate", lane, f"mix step {step + 1}")
            emit(t_slot, "hd_in", lane, f"measure step {step + 1}")
            emit(t_slot, "hd_1", lane, f"measure step {step + 1}")
            if step + 1 < steps:
                emit(t_slot + duration_ticks, "delay", lane, "circulate")
        lane_clusters = [clusters[lane + step * n_lanes] for step in range(steps)]
        outputs.append(run_steps(inputs[lane], lane_clusters, gate_settings[lane],
                                 allow_unentangled=allow_unentangled))
        emit((lane + steps * n_lanes) * period_ticks, "switch", lane, "eject")

    # exactly one inject and one eject per lane
    counts = Counter((ev.lane, ev.action) for ev in events)
    for lane in range(n_lanes):
        if counts[lane, "inject"] != 1 or counts[lane, "eject"] != 1:
            raise LaneCollisionError(f"lane {lane} scheduling is inconsistent")

    events.sort(key=lambda ev: (ev.tick, ev.lane, ev.element))
    return PipelineResult(tuple(outputs), tuple(events), delay, schedule, assignment)
