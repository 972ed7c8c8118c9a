"""Tests for delays, the slot rule and its switch events, and the pipeline."""

import json
import math
import warnings

import numpy as np
import pytest

from cvmbqc.gates import (
    HomodyneSetting,
    TwoNodeCluster,
    output_covariance,
    run_steps,
)
from cvmbqc import multiplex
from cvmbqc.multiplex import (
    LaneCollisionError,
    PipelineEvent,
    PipelineResult,
    admissible_frequencies,
    delayed_vlf,
    events_to_jsonl,
    simulate_pipeline,
)
from cvmbqc.quadrature import x_quad, y_quad
from test_engine_reference import reference_event_log, reference_events_to_jsonl
from test_quadrature import terms


class TestDelayedVlf:
    def test_zero_delay_reduces_to_four_y(self):
        res = delayed_vlf(0.0, 1.7, 0.06, 5.0)
        assert res.lhs == 4 * 0.06
        assert res.entangled

    def test_grid_frequencies_reduce_exactly(self):
        period = 6.0
        for n in (1, 2, 5, 50):
            tau = n * period
            for k in range(-3, 4):
                omega = 2.0 * math.pi * k / tau
                res = delayed_vlf(tau, omega, 0.11, 1e6)
                assert res.lhs == 4 * 0.11

    def test_off_grid_with_large_x_fails(self):
        tau = 6.0
        omega = math.pi / tau  # half a cycle off the grid
        res = delayed_vlf(tau, omega, 0.01, 10.0)
        assert res.lhs > 0.5
        assert not res.entangled

    def test_periodic_in_tau(self):
        omega = 2.0
        period = 2.0 * math.pi / omega
        for tau in (0.3, 1.1, 2.9):
            a = delayed_vlf(tau, omega, 0.04, 3.0)
            b = delayed_vlf(tau + period, omega, 0.04, 3.0)
            assert a.lhs == pytest.approx(b.lhs, rel=1e-9)

    def test_lhs_bounded_by_variances(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            tau, omega = rng.uniform(0.1, 10.0, size=2)
            y, x = rng.uniform(0.0, 2.0, size=2)
            lhs = delayed_vlf(tau, omega, y, x).lhs
            assert 4 * min(x, y) - 1e-12 <= lhs <= 4 * max(x, y) + 1e-12

    def test_boundary_strict(self):
        res = delayed_vlf(0.0, 0.0, 0.125, 0.125)  # lhs exactly 0.5
        assert res.lhs == 0.5
        assert not res.entangled

    def test_rejects_negative_variances(self):
        with pytest.raises(ValueError):
            delayed_vlf(1.0, 1.0, -0.1, 1.0)


class TestAdmissibleFrequencies:
    def test_direct_formula(self):
        omegas = admissible_frequencies(6.0, [1])
        assert omegas[0] == pytest.approx(2 * math.pi / 6.0, rel=1e-15)

    def test_sin_vanishes_on_grid(self):
        tau = 7.3
        for omega in admissible_frequencies(tau, range(-5, 6)):
            assert abs(math.sin(omega * tau / 2.0)) < 1e-12

    def test_k_zero_is_whole_pulse(self):
        assert admissible_frequencies(3.0, [0])[0] == 0.0

    def test_rejects_zero_tau(self):
        with pytest.raises(ValueError):
            admissible_frequencies(0.0, [1])


def _slot_clusters(n_lanes, steps):
    """One distinct cluster per emission slot, so a mis-assignment shows."""
    return [TwoNodeCluster.from_y_variances(0.01 + 0.002 * m, 0.03 - 0.001 * m)
            for m in range(n_lanes * steps)]


def _lane_settings(n_lanes, steps):
    return [[HomodyneSetting(0.9 + 0.1 * lane + 0.05 * step, 0.2 + 0.07 * step)
             for step in range(steps)] for lane in range(n_lanes)]


def _assert_round_robin(n_lanes, steps):
    """Lane l's output is run_steps on clusters[l::n_lanes], bit for bit."""
    inputs = [(x_quad(0), y_quad(0))] * n_lanes
    clusters = _slot_clusters(n_lanes, steps)
    settings = _lane_settings(n_lanes, steps)
    result = simulate_pipeline(5.0, 1.0, inputs, clusters, settings)
    for lane, out in enumerate(result.outputs):
        direct = run_steps(inputs[lane], clusters[lane::n_lanes], settings[lane])
        assert out.clusters == direct.clusters
        for name in ("signal_matrix", "noise", "classical", "offset", "measured_rows"):
            assert np.array_equal(getattr(out, name), getattr(direct, name)), name
    return result


def _switch_ticks(result):
    """{(lane, action): [tick, ...]} of the log's switch events."""
    found = {}
    for ev in result.events:
        if ev.element == "switch":
            found.setdefault((ev.lane, ev.action), []).append(ev.tick)
    return found


class TestSlotRule:
    def test_single_lane_sequence(self):
        result = simulate_pipeline(5.0, 1.0, [(x_quad(0), y_quad(0))],
                                   _slot_clusters(1, 2), _lane_settings(1, 2))
        assert result.delay == 1.0  # one lane: loop delay equals the gap
        # inject in slot 0, circulate through slot 1, eject in slot 2
        assert _switch_ticks(result) == {(0, "inject"): [0], (0, "eject"): [1200]}

    def test_two_lanes_interleave(self):
        result = _assert_round_robin(2, 2)
        assert result.delay == 2.0
        # injects in slots 0 and 1, ejects in slots 4 and 5
        assert _switch_ticks(result) == {
            (0, "inject"): [0], (0, "eject"): [2400],
            (1, "inject"): [600], (1, "eject"): [3000]}

    @pytest.mark.parametrize("n_lanes,gap", [(1, 1.0), (3, 0.5), (7, 0.1)])
    def test_delay_is_the_float_lanes_times_gap(self, n_lanes, gap):
        result = simulate_pipeline(5.0, gap, [(x_quad(0), y_quad(0))] * n_lanes,
                                   _slot_clusters(n_lanes, 2), _lane_settings(n_lanes, 2))
        assert type(result.delay) is float and result.delay == n_lanes * gap

    def test_equal_counts_pigeonhole(self):
        # one step per lane: each lane takes exactly the cluster of its own slot
        result = _assert_round_robin(3, 1)
        assert [out.clusters for out in result.outputs] == [
            (c,) for c in _slot_clusters(3, 1)]

    def test_infeasible_counts_rejected(self):
        with pytest.raises(ValueError, match="positive number of steps"):
            simulate_pipeline(5.0, 1.0, [(x_quad(0), y_quad(0))] * 3,
                              _slot_clusters(3, 1), [[]] * 3)
        with pytest.raises(ValueError, match="at least one lane"):
            simulate_pipeline(5.0, 1.0, [], _slot_clusters(1, 2), [])
        with pytest.raises(ValueError, match=r"^need 0 < gap < period$"):  # gap = period
            simulate_pipeline(0.0, 6.0, [(x_quad(0), y_quad(0))] * 2,
                              _slot_clusters(2, 2), _lane_settings(2, 2))

    @pytest.mark.parametrize("n_lanes,steps", [(1, 1), (1, 4), (2, 3), (4, 2), (5, 5)])
    def test_round_robin_through_the_pipeline(self, n_lanes, steps):
        _assert_round_robin(n_lanes, steps)

    def test_swapping_clusters_of_two_lanes_changes_both(self):
        # GateOutput.noise holds source coefficients, which do not depend on
        # the source variances; the clusters reach a lane's output covariance
        inputs = [(x_quad(0), y_quad(0))] * 2
        settings = _lane_settings(2, 2)
        clusters = _slot_clusters(2, 2)
        swapped = [clusters[1], clusters[0]] + clusters[2:]
        fwd = simulate_pipeline(5.0, 1.0, inputs, clusters, settings)
        rev = simulate_pipeline(5.0, 1.0, inputs, swapped, settings)
        cov_in = {0: np.diag([0.25, 0.25])}
        for a, b in zip(fwd.outputs, rev.outputs):
            assert a.clusters != b.clusters
            assert not np.array_equal(output_covariance(a, cov_in),
                                      output_covariance(b, cov_in))

    @pytest.mark.parametrize("n_lanes", [1, 2, 3, 7])
    @pytest.mark.parametrize("steps", [1, 2, 4])
    def test_switch_events_follow_the_slot_rule(self, n_lanes, steps):
        duration, gap = 2.5, 0.5
        result = simulate_pipeline(duration, gap, [(x_quad(0), y_quad(0))] * n_lanes,
                                   _slot_clusters(n_lanes, steps),
                                   _lane_settings(n_lanes, steps), ticks_per_gap=7)
        period_ticks = 6 * 7
        # one inject in each lane's first slot and one eject in the slot
        # after its last step, by lane_slot, and no other switch event
        assert _switch_ticks(result) == {
            (lane, action): [multiplex.lane_slot(lane, step, n_lanes) * period_ticks]
            for lane in range(n_lanes) for step, action in ((0, "inject"), (steps, "eject"))}

    def test_kept_collision_count_matches_a_fresh_scan(self):
        # lanes 0 and 1 share a beam-splitter tick (1 clash) and alternate on
        # one detector tick (2 clashes); one lane twice, and shared ticks of
        # the delay and the switch, are no clash
        log = [(0, "bs_gate", 0), (0, "bs_gate", 1), (0, "hd_in", 0), (0, "hd_in", 1),
               (0, "hd_in", 0), (5, "hd_1", 0), (5, "hd_1", 0), (5, "delay", 0),
               (5, "delay", 1), (0, "switch", 0), (0, "switch", 1)]
        events = [PipelineEvent(tick, float(tick), element, lane, "test")
                  for tick, element, lane in log]
        result = PipelineResult((), events, 2.0)
        assert result.events == tuple(events)
        events.clear()  # the result holds its own tuple
        assert result.collisions() == multiplex._count_collisions(result.events) == 3

    def test_shared_slot_raises_lane_collision(self, monkeypatch):
        monkeypatch.setattr(multiplex, "lane_slot", lambda lane, step, n_lanes: step)
        with pytest.raises(LaneCollisionError, match="collision"):
            simulate_pipeline(5.0, 1.0, [(x_quad(0), y_quad(0))] * 2,
                              _slot_clusters(2, 2), _lane_settings(2, 2))


class TestEventLogInSlotOrder:
    """The log is emitted slot by slot, without a sort, in the order of the
    earlier pipeline's sorted log (``test_engine_reference``'s reference,
    which keeps its own slot rule)."""

    @staticmethod
    def _check(duration, gap, n_lanes, steps, ticks_per_gap):
        clusters = [TwoNodeCluster.from_y_variances(0.05, 0.05)] * (n_lanes * steps)
        result = simulate_pipeline(duration, gap, [(x_quad(0), y_quad(0))] * n_lanes,
                                   clusters, _lane_settings(n_lanes, steps),
                                   ticks_per_gap=ticks_per_gap)
        expected = reference_event_log(duration, gap, n_lanes, steps, ticks_per_gap)
        assert result.events == tuple(PipelineEvent(ev.tick, ev.t, ev.element, ev.lane,
                                                    ev.action) for ev in expected)
        assert all(type(ev) is PipelineEvent for ev in result.events)
        assert (events_to_jsonl(result.events).encode()
                == reference_events_to_jsonl(expected).encode())

    @pytest.mark.parametrize("n_lanes,steps,ticks_per_gap", [
        (1, 1, 100), (3, 3, 100), (2, 4, 7), (16, 4, 100), (64, 4, 100)])
    def test_shapes(self, n_lanes, steps, ticks_per_gap):
        self._check(5.0, 1.0, n_lanes, steps, ticks_per_gap)

    # a duration of 0.5 gap with ticks_per_gap = 2 puts arrivals on the
    # ticks of earlier lanes' slots and circulations; 1e-12 rounds the
    # duration to zero ticks, so circulations share their slot's tick
    @pytest.mark.parametrize("duration,ticks_per_gap", [
        (0.5, 2), (1.5, 2), (1.0, 1), (2.0, 3), (1e-12, 1), (1e-12, 7)])
    @pytest.mark.parametrize("n_lanes,steps", [(1, 1), (2, 1), (5, 2), (7, 3)])
    def test_ties_between_arrivals_and_slots(self, duration, ticks_per_gap, n_lanes, steps):
        self._check(duration, 1.0, n_lanes, steps, ticks_per_gap)


def _pipeline_fixture(n_lanes=2, v=0.05):
    cluster = TwoNodeCluster.from_y_variances(v, v)
    clusters = [cluster] * (2 * n_lanes)
    inputs = [(x_quad(0), y_quad(0)) for _ in range(n_lanes)]
    settings = [
        [HomodyneSetting(0.9 + 0.1 * lane, 0.2), HomodyneSetting(1.4, 0.6 + 0.05 * lane)]
        for lane in range(n_lanes)
    ]
    return inputs, clusters, settings


class TestPipeline:
    def test_single_lane_identity_gates(self):
        cluster = TwoNodeCluster.from_y_variances(0.05, 0.05)
        ident = HomodyneSetting(math.pi / 4, -math.pi / 4)
        result = simulate_pipeline(5.0, 1.0, [(x_quad(0), y_quad(0))],
                                   [cluster, cluster], [[ident, ident]])
        out = result.outputs[0]
        np.testing.assert_allclose(out.signal_matrix, np.eye(2), atol=1e-14)
        cov = output_covariance(out, {0: np.diag([0.25, 0.25])})
        np.testing.assert_allclose(cov, 0.25 * np.eye(2) + 4 * 0.05 * np.eye(2),
                                   atol=1e-12)

    def test_lane_isolation(self):
        inputs, clusters, settings = _pipeline_fixture(2)
        result = simulate_pipeline(5.0, 1.0, inputs, clusters, settings)
        assert result.collisions() == 0
        for lane in range(2):
            direct = run_steps(inputs[lane], clusters[lane::2], settings[lane])
            pipe = result.outputs[lane]
            assert np.max(np.abs(pipe.signal_matrix - direct.signal_matrix)) == 0.0
            ca = output_covariance(pipe, {0: np.diag([0.25, 0.25])})
            cb = output_covariance(direct, {0: np.diag([0.25, 0.25])})
            assert np.array_equal(ca, cb)

    def test_swapping_lanes_swaps_outputs(self):
        inputs, clusters, settings = _pipeline_fixture(2)
        fwd = simulate_pipeline(5.0, 1.0, inputs, clusters, settings)
        rev = simulate_pipeline(5.0, 1.0, inputs[::-1], clusters, settings[::-1])
        for a, b in zip(fwd.outputs, rev.outputs[::-1]):
            assert terms(a.exprs) == terms(b.exprs)
            assert np.array_equal(a.signal_matrix, b.signal_matrix)

    def test_event_log_structure(self):
        inputs, clusters, settings = _pipeline_fixture(2)
        result = simulate_pipeline(5.0, 1.0, inputs, clusters, settings)
        text = events_to_jsonl(result.events)
        lines = [json.loads(line) for line in text.splitlines()]
        assert len(lines) == len(result.events)
        for entry in lines:
            assert set(entry) == {"t", "tick", "element", "lane", "action"}
        injects = [e for e in lines if e["action"] == "inject"]
        ejects = [e for e in lines if e["action"] == "eject"]
        assert len(injects) == 2 and len(ejects) == 2

    def test_ticks_reject_off_grid_duration(self):
        inputs, clusters, settings = _pipeline_fixture(1)
        with pytest.raises(ValueError, match="tick grid"):
            simulate_pipeline(5.0 + 1e-4, 1.0, inputs[:1], clusters[:2],
                              settings[:1], ticks_per_gap=10)

    def test_counts_validated(self):
        inputs, clusters, settings = _pipeline_fixture(2)
        with pytest.raises(ValueError, match="clusters"):
            simulate_pipeline(5.0, 1.0, inputs, clusters[:3], settings)
        with pytest.raises(ValueError, match="setting"):
            simulate_pipeline(5.0, 1.0, inputs, clusters, settings[:1])
        with pytest.raises(ValueError, match="ticks_per_gap"):
            simulate_pipeline(5.0, 1.0, inputs, clusters, settings, ticks_per_gap=0)

    def test_three_lanes_isolated(self):
        inputs, clusters, settings = _pipeline_fixture(3)
        result = simulate_pipeline(5.0, 1.0, inputs, clusters, settings)
        assert result.collisions() == 0
        assert len(result.outputs) == 3
        for lane in range(3):
            direct = run_steps(inputs[lane], clusters[lane::3], settings[lane])
            assert terms(result.outputs[lane].exprs) == terms(direct.exprs)

    def test_unentangled_warnings_point_at_the_caller(self):
        inputs, _, settings = _pipeline_fixture(2)
        loose = TwoNodeCluster.from_y_variances(0.2, 0.2)
        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter("always")
            simulate_pipeline(5.0, 1.0, inputs, [loose] * 4, settings, allow_unentangled=True)
        assert [(w.category, w.filename) for w in log] == [(UserWarning, __file__)] * 4
        # each warning names its step and, with two lanes, its lane
        assert [str(w.message) for w in log] == [
            f"running measurement step {step} of lane {lane} on an unentangled "
            "cluster resource" for lane in (0, 1) for step in (1, 2)]
