"""Bit-identity of the gate engine and the pipeline log against their earlier form.

The references below are the earlier code, kept verbatim: ``run_steps`` with
its per-step ``gate_matrix`` calls, the input parse through
``x_quad``/``y_quad``, the expression view built by filtering through the
public ``LinearQuadratureExpr`` constructor, ``feed_forward`` through
``dataclasses.replace``, the column covariances read from
``source_variances``, and the pipeline's event log built as frozen
``PipelineEvent`` dataclasses and sorted by key.  The one change to them is
the unentangled screen of ``reference_run_steps``, which applies
``VLF_GUARDED_BOUND`` as the engine's does and whose warning names the step
and, in a pipeline of more than one lane, the lane.  The engine now evaluates
each step in Python floats, builds its arrays once per call for a stack of
lanes (gathering the measured rows from the per-step values by flat index)
and the expressions from clean dicts on first read, copies an output's
fields to feed forward, builds the sampling and feed-forward arrays of all
lanes on first read, and the pipeline runs all its lanes in one engine call
and emits its log as named tuples in slot order; the float operations that fix
an output bit are the same, so every array must be equal with equal
signbits, every expression, name and log byte the same, and every error must
keep its type and message (the feed-forward check now reads both rows of
``classical``, so its missing-current message is the reference's wherever
the first row carries every current, as in the case compared here).  A
pipeline lane is held to the reference run on that lane's own slot clusters,
and a bad lane to the first error of the lanes run one by one.

The photocurrent draw is held to its definition instead: the currents are
2 beta0 (r0 + R q), with q built from the generator's own 2 + 4k standard
normals through the reference column covariance.
"""

import json
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
import pytest

from cvmbqc.cluster import VLF_GUARDED_BOUND
from cvmbqc.gates import (
    DegenerateHomodynePhasesError,
    GateOutput,
    HomodyneSetting,
    TwoNodeCluster,
    feed_forward,
    gate_matrix,
    output_covariance,
    run_steps,
    sample_currents,
)
from cvmbqc.multiplex import events_to_jsonl, simulate_pipeline
from cvmbqc.quadrature import LinearQuadratureExpr, x_quad, y_quad


# ---------------------------------------------------------------------------
# References: the earlier code
# ---------------------------------------------------------------------------

DEGENERACY_TOL = 1e-9
_SQRT2 = math.sqrt(2.0)


def reference_gate_matrix(theta_plus, theta_minus):
    s = math.sin(theta_minus)
    if abs(s) <= DEGENERACY_TOL:
        raise DegenerateHomodynePhasesError(
            f"degenerate homodyne phases: |sin(theta_minus)| = {abs(s):.2e}")
    cp, cm, sp = math.cos(theta_plus), math.cos(theta_minus), math.sin(theta_plus)
    return np.array([[cp + cm, sp], [-sp, cp - cm]]) / s


def reference_row_exprs(quad_rows, first_column, current_rows, names, offsets):
    cols = np.flatnonzero(np.any(quad_rows != 0.0, axis=0))
    keys = (cols + first_column).tolist()
    return tuple(LinearQuadratureExpr(dict(zip(keys, row)), dict(zip(names, cur)), off)
                 for row, cur, off in zip(quad_rows[:, cols].tolist(),
                                          current_rows.tolist(), offsets.tolist()))


def reference_input_mode(input_exprs):
    if any(e.symbols for e in input_exprs):
        raise ValueError("input expressions carry photocurrent symbols; feed forward "
                         "first, or run all steps in one run_steps call")
    mode = min((col for e in input_exprs for col in e.coeffs), default=0) // 2
    if [e.coeffs for e in input_exprs] != [x_quad(mode).coeffs, y_quad(mode).coeffs]:
        raise ValueError("the input must be the (x, y) pair of one mode m with "
                         "optional numeric offsets, (x_m + a, y_m + b)")
    return mode, np.array([e.offset for e in input_exprs])


_NODE_1 = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, -1.0, 0.0]])
_NODE_2 = np.array([[0.0, -1.0, -1.0, 0.0], [1.0, 0.0, 0.0, -1.0]])
_STEP_NOISE = np.array([[0.0, -_SQRT2, 0.0, 0.0], [0.0, 0.0, 0.0, -_SQRT2]])
_PORT_SIGN = np.array([[-1.0], [1.0]])


def reference_run_steps(input_exprs, clusters, settings, *, allow_unentangled=False,
                        lane=None):
    k = len(settings)
    if len(clusters) != k or not k:
        raise ValueError("need one cluster per setting, at least one step")
    input_mode, input_offset = reference_input_mode(input_exprs)
    labels = [""] if k == 1 else [f"[{j + 1}]" for j in range(k)]
    names, matrices, trig, gains = [], [], [], []
    for step, (cluster, setting, label) in enumerate(zip(clusters, settings, labels), 1):
        if cluster.vlf_sum() >= VLF_GUARDED_BOUND:
            if not allow_unentangled:
                raise ValueError(
                    f"cluster resource is not entangled (nullifier sum {cluster.vlf_sum()!r} "
                    f">= VLF_GUARDED_BOUND = {VLF_GUARDED_BOUND!r}); "
                    "pass allow_unentangled=True to force")
            where = f"step {step}" + ("" if lane is None else f" of lane {lane}")
            warnings.warn(f"running measurement {where} on an unentangled cluster resource",
                          stacklevel=2)
        matrices.append(reference_gate_matrix(setting.theta_plus, setting.theta_minus))
        names += [f"i_in{label}", f"i_1{label}"]
        cin, sin_ = math.cos(setting.theta_in), math.sin(setting.theta_in)
        c1, s1 = math.cos(setting.theta_1), math.sin(setting.theta_1)
        pref = 1.0 / (setting.beta_0 * _SQRT2 * math.sin(setting.theta_minus))
        trig.append(((cin, sin_), (c1, s1)))
        gains.append(((pref * c1, -pref * cin), (-pref * s1, pref * sin_)))
    trig = np.array(trig)

    sources = np.zeros((k, 2, k, 4))
    steps = np.arange(k)
    sources[steps, :, steps] = 0.5 * (trig @ _NODE_1)
    sources[steps[1:], :, steps[:-1]] = 0.5 * ((_PORT_SIGN * trig[1:]) @ _NODE_2)
    measured_rows = np.hstack([np.zeros((2 * k, 2)), sources.reshape(2 * k, 4 * k)])
    measured_offset = np.zeros(2 * k)
    D0 = _PORT_SIGN * trig[0]
    measured_rows[:2, :2] = D0 / _SQRT2
    measured_offset[:2] = D0 @ input_offset / _SQRT2

    suffix = np.empty((k, 2, 2))
    signal = np.eye(2)
    for j in range(k - 1, -1, -1):
        suffix[j] = signal
        signal = signal @ matrices[j]
    noise = (suffix @ _STEP_NOISE).transpose(1, 0, 2).reshape(2, 4 * k)
    classical = (suffix @ np.array(gains)).transpose(1, 0, 2).reshape(2, 2 * k)
    offset = signal @ input_offset
    # the earlier GateOutput built its view with the earlier _row_exprs
    exprs = reference_row_exprs(np.hstack([signal, noise]), 2 * input_mode, classical,
                                tuple(names), offset)
    return GateOutput(
        signal_matrix=signal, noise=noise, classical=classical, offset=offset,
        measured_rows=measured_rows, measured_offset=measured_offset,
        current_names=tuple(names), input_mode=input_mode,
        settings=tuple(settings), clusters=tuple(clusters), exprs=exprs)


def reference_feed_forward(output, currents=None):
    currents = dict(currents or {})
    for e in output.exprs:
        missing = [s for s in e.symbols if s not in currents]
        if missing:
            raise ValueError(f"missing measured currents for feed-forward: {missing}")
    cleaned = tuple(LinearQuadratureExpr(e.coeffs) for e in output.exprs)
    return replace(output, classical=np.zeros_like(output.classical),
                   offset=np.zeros(2), exprs=cleaned)


def reference_source_variances(output):
    return np.array([v for c in output.clusters
                     for v in (c.x_variances[0], c.y_variances[0],
                               c.x_variances[1], c.y_variances[1])])


def reference_column_cov(output, input_blocks):
    block = np.asarray(input_blocks.get(output.input_mode, 0.25 * np.eye(2)), dtype=float)
    cov = np.diag(np.concatenate([np.zeros(2), reference_source_variances(output)]))
    cov[:2, :2] = block
    return cov


def reference_noise_covariance(output):
    return (output.noise * reference_source_variances(output)) @ output.noise.T


@dataclass(frozen=True)
class ReferenceEvent:
    tick: int
    t: float
    element: str
    lane: int
    action: str


def reference_lane_slot(lane, step, n_lanes):
    return lane + step * n_lanes


def reference_switch_slots(n_lanes, steps):
    return [(reference_lane_slot(lane, step, n_lanes), lane, action)
            for lane in range(n_lanes)
            for step, action in ((0, "inject"), (steps, "eject"))]


def reference_event_log(duration, gap, n_lanes, steps, ticks_per_gap):
    """The earlier ``simulate_pipeline``'s event log, with its tick grid."""
    tick = gap / ticks_per_gap
    duration_ticks = round(duration / tick)
    period_ticks = duration_ticks + ticks_per_gap

    events = []

    def emit(tick_count, element, lane, action):
        events.append(ReferenceEvent(tick_count, tick_count * tick, element, lane, action))

    for slot, lane, action in reference_switch_slots(n_lanes, steps):
        emit(slot * period_ticks, "switch", lane, action)
    for lane in range(n_lanes):
        emit(lane * ticks_per_gap, "input", lane, "arrive")
        slots = [reference_lane_slot(lane, step, n_lanes) for step in range(steps)]
        for step, slot in enumerate(slots):
            t_slot = slot * period_ticks
            emit(t_slot, "bs_gate", lane, f"mix step {step + 1}")
            emit(t_slot, "hd_in", lane, f"measure step {step + 1}")
            emit(t_slot, "hd_1", lane, f"measure step {step + 1}")
            if step + 1 < steps:
                emit(t_slot + duration_ticks, "delay", lane, "circulate")

    events.sort(key=lambda ev: (ev.tick, ev.lane, ev.element))
    return tuple(events)


def reference_events_to_jsonl(events):
    lines = [
        json.dumps({"t": ev.t, "tick": ev.tick, "element": ev.element,
                    "lane": ev.lane, "action": ev.action}, sort_keys=True)
        for ev in events
    ]
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Comparisons and inputs
# ---------------------------------------------------------------------------

ARRAYS = ("signal_matrix", "noise", "classical", "offset", "measured_rows",
          "measured_offset")


def assert_bits_equal(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert np.array_equal(got, expected, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(expected))


def assert_exprs_equal(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        for part in ("coeffs", "symbols"):
            a, b = getattr(g, part), getattr(e, part)
            assert list(a.items()) == list(b.items())
            assert all(type(key) is type(ref) for key, ref in zip(a, b))
            assert all(type(v) is float for v in a.values())
            assert [math.copysign(1.0, v) for v in a.values()] == \
                   [math.copysign(1.0, v) for v in b.values()]
        assert type(g.offset) is float
        assert g.offset == e.offset
        assert math.copysign(1.0, g.offset) == math.copysign(1.0, e.offset)


def assert_outputs_equal(got, expected):
    for name in ARRAYS:
        assert_bits_equal(getattr(got, name), getattr(expected, name))
    assert_exprs_equal(got.exprs, expected.exprs)
    assert got.current_names == expected.current_names
    assert got.input_mode == expected.input_mode
    assert type(got.input_mode) is type(expected.input_mode)
    assert got.settings == expected.settings and got.clusters == expected.clusters


#: Phases that put exact zeros (of either sign) into the trig rows.
SPECIAL_ANGLES = (0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi)


def random_setting(rng):
    """theta- of either sign, away from degeneracy; beta_0 log-uniform over
    1e-3..1e9; now and then exact special angles."""
    beta_0 = 10.0 ** rng.uniform(-3.0, 9.0)
    if rng.random() < 0.15:
        while True:
            theta_in, theta_1 = (SPECIAL_ANGLES[i] for i in rng.integers(0, 5, 2))
            if abs(math.sin(theta_in - theta_1)) > 0.05:
                return HomodyneSetting(theta_in, theta_1, beta_0)
    tp = rng.uniform(-math.pi, math.pi)
    tm = rng.uniform(0.05, math.pi - 0.05) * rng.choice([-1.0, 1.0])
    return HomodyneSetting((tp + tm) / 2, (tp - tm) / 2, beta_0)


def random_cluster(rng):
    """Mostly entangled clusters, some unentangled (nullifier sum >= 1/2)."""
    high = 0.3 if rng.random() < 0.1 else 0.12
    return TwoNodeCluster.from_y_variances(*rng.uniform(0.005, high, 2),
                                           rng.uniform(1.0, 20.0))


def random_input(rng):
    mode = int(rng.integers(0, 5))
    a, b = rng.normal(size=2) * 10.0 ** rng.uniform(-3.0, 3.0, 2)
    choice = rng.integers(0, 3)
    if choice == 0:
        return x_quad(mode), y_quad(mode)
    if choice == 1:  # negative zeros as offsets
        return (LinearQuadratureExpr({2 * mode: 1.0}, None, -0.0),
                LinearQuadratureExpr({2 * mode + 1: 1.0}, None, b))
    return (x_quad(mode) + LinearQuadratureExpr(offset=float(a)),
            y_quad(mode) + LinearQuadratureExpr(offset=float(b)))


def random_chain(rng):
    """k from 1 to 48, one chain in four of 1 to 3 steps, where special
    angles leave exact zeros in the signal matrix."""
    k = int(rng.integers(1, 4 if rng.random() < 0.25 else 49))
    return (random_input(rng), [random_cluster(rng) for _ in range(k)],
            [random_setting(rng) for _ in range(k)])


def outcome(fn, *args, **kwargs):
    """("ok", result, warnings) or ("raised", exception type, message, warnings)."""
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        try:
            result = ("ok", fn(*args, **kwargs))
        except Exception as exc:  # the type and message are what is compared
            result = ("raised", type(exc), str(exc))
    return result + ([(w.category, str(w.message)) for w in log],)


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

class TestEngineBitIdentical:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_chains(self, seed):
        rng = np.random.default_rng([16, seed])
        for _ in range(50):
            inp, clusters, settings = random_chain(rng)
            expected = outcome(reference_run_steps, inp, clusters, settings,
                               allow_unentangled=True)
            got = outcome(run_steps, inp, clusters, settings, allow_unentangled=True)
            assert expected[0] == "ok" and got[0] == "ok"
            assert got[2] == expected[2]  # the unentangled warnings
            assert_outputs_equal(got[1], expected[1])
            new, ref = got[1], expected[1]

            blocks = {new.input_mode: np.array([[0.7, 0.1], [0.1, 0.4]])}
            assert_bits_equal(new._column_variances[2:], reference_source_variances(ref))
            assert_bits_equal(new.noise_covariance(), reference_noise_covariance(ref))
            Q = np.hstack([ref.signal_matrix, ref.noise])
            assert_bits_equal(output_covariance(new, blocks),
                              Q @ reference_column_cov(ref, blocks) @ Q.T)
            assert_bits_equal(output_covariance(new, {}),
                              Q @ reference_column_cov(ref, {}) @ Q.T)

            currents = dict(zip(new.current_names, rng.normal(size=len(new.current_names))))
            assert_outputs_equal(feed_forward(new, currents),
                                 reference_feed_forward(ref, currents))

    @pytest.mark.parametrize("k", [1, 4, 33, 64])
    def test_output_covariance_is_the_dense_product(self, k):
        # the covariance is formed from the two nonzero blocks of Q Sigma;
        # it must be the dense Q Sigma Q^T to the bit, for an input mode
        # m > 0 and input blocks far from vacuum
        rng = np.random.default_rng([18, k])
        for _ in range(10):
            mode = int(rng.integers(1, 5))
            clusters = [random_cluster(rng) for _ in range(k)]
            settings = [random_setting(rng) for _ in range(k)]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the unentangled clusters
                out = run_steps((x_quad(mode), y_quad(mode)), clusters, settings,
                                allow_unentangled=True)
            a = rng.normal(size=(2, 2)) * 10.0 ** rng.uniform(-2.0, 2.0, 2)
            blocks = {mode: a @ a.T + 1e-3 * np.eye(2)}
            Q = np.hstack([out.signal_matrix, out.noise])
            assert_bits_equal(output_covariance(out, blocks),
                              Q @ reference_column_cov(out, blocks) @ Q.T)

    def test_random_chains_hit_every_kind_of_input(self):
        # without these the comparison above would miss the warnings, the
        # negative zeros, the long chains and the zero entries the
        # expression view leaves out
        rng = np.random.default_rng([16, 0])
        chains = [random_chain(rng) for _ in range(50)]
        assert any(c.vlf_sum() >= VLF_GUARDED_BOUND for _, cs, _ in chains for c in cs)
        assert any(math.copysign(1.0, inp[0].offset) < 0 for inp, _, _ in chains)
        assert {next(iter(inp[0].coeffs)) // 2 for inp, _, _ in chains} == set(range(5))
        assert max(len(s) for _, _, s in chains) >= 40
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert any(0.0 in run_steps(*chain, allow_unentangled=True).signal_matrix
                       for chain in chains)
        assert any(s.theta_minus < 0 for _, _, ss in chains for s in ss)
        assert any(s.theta_minus > 0 for _, _, ss in chains for s in ss)

    @pytest.mark.parametrize("seed", range(3))
    def test_gate_matrix(self, seed):
        rng = np.random.default_rng([17, seed])
        for _ in range(300):
            s = random_setting(rng)
            assert_bits_equal(gate_matrix(s.theta_plus, s.theta_minus),
                              reference_gate_matrix(s.theta_plus, s.theta_minus))

    @pytest.mark.parametrize("theta_plus,theta_minus", [
        (1.0, 0.0), (1.0, math.pi), (0.3, -1e-10), (0.3, 2 * math.pi)])
    def test_gate_matrix_errors(self, theta_plus, theta_minus):
        expected = outcome(reference_gate_matrix, theta_plus, theta_minus)
        assert expected[0] == "raised"
        assert outcome(gate_matrix, theta_plus, theta_minus) == expected

    GOOD = TwoNodeCluster.from_y_variances(0.05, 0.05)
    LOOSE = TwoNodeCluster.from_y_variances(0.2, 0.2)
    FINE = HomodyneSetting(0.9, 0.2)
    FLAT = HomodyneSetting(0.4, 0.4)
    PAIR = (x_quad(0), y_quad(0))

    @pytest.mark.parametrize("inp,clusters,settings", [
        (PAIR, (GOOD, GOOD), (FINE, FLAT)),
        (PAIR, (GOOD, LOOSE), (FINE, FINE)),
        (PAIR, (LOOSE, GOOD), (FINE, FLAT)),
        (PAIR, (GOOD, LOOSE), (FLAT, FINE)),
        (PAIR, (GOOD,), (FINE, FINE)),
        (PAIR, (), ()),
        ((LinearQuadratureExpr({0: 2.0}), y_quad(0)), (GOOD,), (FINE,)),
        ((x_quad(0) + y_quad(1), y_quad(0)), (GOOD,), (FINE,)),
        ((x_quad(0), y_quad(1)), (GOOD,), (FINE,)),
        ((y_quad(0), x_quad(0)), (GOOD,), (FINE,)),
        ((x_quad(0),), (GOOD,), (FINE,)),
        ((x_quad(0), y_quad(0), x_quad(1)), (GOOD,), (FINE,)),
        ((), (GOOD,), (FINE,)),
        ((LinearQuadratureExpr({-2: 1.0}), LinearQuadratureExpr({-1: 1.0})), (GOOD,), (FINE,)),
        ((LinearQuadratureExpr({4.0: 1.0}), LinearQuadratureExpr({5.0: 1.0})), (GOOD,), (FINE,)),
        ((x_quad(0) + LinearQuadratureExpr(symbols={"i_in": 1.0}), y_quad(0)),
         (GOOD,), (FINE,)),
        ((x_quad(0), y_quad(0)), (GOOD, GOOD), (HomodyneSetting(0.3, 0.3 - math.pi), FINE)),
    ], ids=["degenerate", "unentangled", "unentangled-first", "degenerate-first", "count",
            "empty", "scaled", "mixed", "two-modes", "swapped", "one-expr", "three-exprs",
            "no-exprs", "negative-mode", "float-columns", "symbols", "degenerate-pi"])
    def test_errors(self, inp, clusters, settings):
        expected = outcome(reference_run_steps, inp, clusters, settings)
        assert expected[0] == "raised"
        assert outcome(run_steps, inp, clusters, settings) == expected

    def test_warning_then_error(self):
        # an allowed unentangled step warns before a later degenerate step raises
        args = (self.PAIR, (self.LOOSE, self.GOOD), (self.FINE, self.FLAT))
        expected = outcome(reference_run_steps, *args, allow_unentangled=True)
        assert expected[0] == "raised" and len(expected[3]) == 1
        assert outcome(run_steps, *args, allow_unentangled=True) == expected

    def test_earlier_outputs_are_rejected_as_input(self):
        out = run_steps(self.PAIR, (self.GOOD,), (self.FINE,))
        cleaned = feed_forward(out, {"i_in": 0.3, "i_1": -0.2})
        for exprs in (out.exprs, cleaned.exprs):
            expected = outcome(reference_run_steps, exprs, (self.GOOD,), (self.FINE,))
            assert expected[0] == "raised"
            assert outcome(run_steps, exprs, (self.GOOD,), (self.FINE,)) == expected

    def test_output_covariance_is_a_fresh_writable_array(self):
        out = run_steps(self.PAIR, (self.GOOD, self.GOOD), (self.FINE, self.FINE))
        signal, noise = out.signal_matrix.copy(), out.noise.copy()
        cov = output_covariance(out, {})
        assert cov.flags.writeable
        assert not np.shares_memory(cov, output_covariance(out, {}))
        cov[:] = 0.0
        assert_bits_equal(out.signal_matrix, signal)
        assert_bits_equal(out.noise, noise)
        Q = np.hstack([signal, noise])
        assert_bits_equal(output_covariance(out, {}), Q @ reference_column_cov(out, {}) @ Q.T)

    def test_feed_forward_missing_currents(self):
        out = run_steps(self.PAIR, (self.GOOD, self.GOOD), (self.FINE, self.FINE))
        currents = {"i_in[1]": 0.1, "i_1[2]": 0.2}
        expected = outcome(reference_feed_forward, out, currents)
        assert expected[0] == "raised"
        assert outcome(feed_forward, out, currents) == expected


# ---------------------------------------------------------------------------
# The photocurrent draw
# ---------------------------------------------------------------------------

def reference_draw(output, input_blocks, z):
    """2 beta0 (r0 + R q) with q the input block's Cholesky factor times
    z[:2] and the source standard deviations times z[2:]."""
    cov = reference_column_cov(output, input_blocks)
    q = np.concatenate([np.linalg.cholesky(cov[:2, :2]) @ z[:2],
                        np.sqrt(np.diag(cov)[2:]) * z[2:]])
    measured = output.measured_offset + output.measured_rows @ q
    return 2.0 * np.repeat([s.beta_0 for s in output.settings], 2) * measured


class TestDrawFromSources:
    @pytest.mark.parametrize("seed", range(3))
    def test_random_chains_draw_r_q_plus_r0(self, seed):
        rng = np.random.default_rng([22, seed])
        for _ in range(50):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                out = run_steps(*random_chain(rng), allow_unentangled=True)
            draw_seed = int(rng.integers(2 ** 32))
            for input_blocks in ({out.input_mode: np.array([[0.7, 0.1], [0.1, 0.4]])}, {}):
                gen = np.random.default_rng(draw_seed)
                currents = sample_currents(out, input_blocks, gen)
                # the draw takes exactly 2 + 4k normals from the generator
                twin = np.random.default_rng(draw_seed)
                z = twin.standard_normal(2 + 2 * len(out.current_names))
                assert gen.bit_generator.state == twin.bit_generator.state
                assert list(currents) == list(out.current_names)
                assert_bits_equal(list(currents.values()),
                                  reference_draw(out, input_blocks, z))


# ---------------------------------------------------------------------------
# The pipeline's event log
# ---------------------------------------------------------------------------

PIPELINE_SHAPES = [(1, 1, 100), (2, 2, 100), (7, 3, 10), (16, 4, 100), (64, 4, 100)]
CLUSTER = TwoNodeCluster.from_y_variances(0.05, 0.05)


class TestEventLogBitIdentical:
    @pytest.mark.parametrize("n_lanes,steps,ticks_per_gap", PIPELINE_SHAPES)
    def test_jsonl_bytes(self, n_lanes, steps, ticks_per_gap):
        rng = np.random.default_rng([18, n_lanes, steps])
        duration, gap = 5.0, 1.0
        settings = [[random_setting(rng) for _ in range(steps)] for _ in range(n_lanes)]
        clusters = [CLUSTER] * (n_lanes * steps)
        result = simulate_pipeline(duration, gap, [(x_quad(0), y_quad(0))] * n_lanes,
                                   clusters, settings, ticks_per_gap=ticks_per_gap)
        expected = reference_event_log(duration, gap, n_lanes, steps, ticks_per_gap)
        got = events_to_jsonl(result.events)
        assert got == reference_events_to_jsonl(expected)
        assert got.encode() == reference_events_to_jsonl(expected).encode()
        assert result.delay == n_lanes * gap

    # gap >= period, gap = 0 and period = 0
    @pytest.mark.parametrize("duration,gap", [(-0.5, 1.0), (1.0, 0.0), (1.0, -1.0)])
    def test_timing_errors_name_the_bound(self, duration, gap):
        got = outcome(simulate_pipeline, duration, gap, [(x_quad(0), y_quad(0))] * 2,
                      [CLUSTER] * 4, [[HomodyneSetting(0.9, 0.2)] * 2] * 2)
        assert got == ("raised", ValueError, "need 0 < gap < period", [])


# ---------------------------------------------------------------------------
# The pipeline's lanes
# ---------------------------------------------------------------------------

LOOSE = TwoNodeCluster.from_y_variances(0.2, 0.2)
FLAT = HomodyneSetting(0.4, 0.4)


def reference_lanes(inputs, lane_clusters, settings, allow_unentangled):
    """Each lane as its own earlier run_steps call, in lane order; the
    warnings name the lane when there is more than one."""
    named = len(inputs) > 1
    return [reference_run_steps(inp, clusters, lane_settings,
                                allow_unentangled=allow_unentangled,
                                lane=lane if named else None)
            for lane, (inp, clusters, lane_settings)
            in enumerate(zip(inputs, lane_clusters, settings))]


def random_pipeline(rng, n_lanes, steps):
    """Random inputs and settings per lane and a distinct random cluster per
    slot, two slots of which are unentangled: the last step of lane 0 and
    the first of the last lane."""
    inputs = [random_input(rng) for _ in range(n_lanes)]
    clusters = [random_cluster(rng) for _ in range(n_lanes * steps)]
    for lane, step in ((0, steps - 1), (n_lanes - 1, 0)):
        clusters[reference_lane_slot(lane, step, n_lanes)] = LOOSE
    settings = [[random_setting(rng) for _ in range(steps)] for _ in range(n_lanes)]
    return inputs, clusters, settings


def slot_clusters(clusters, n_lanes, steps):
    """The clusters of each lane's steps, by the slot rule."""
    return [[clusters[reference_lane_slot(lane, step, n_lanes)] for step in range(steps)]
            for lane in range(n_lanes)]


class TestPipelineLanesBitIdentical:
    """Every lane of one pipeline is its own run_steps chain on its slot
    clusters, bit for bit, with the warnings and the first error of the
    lanes run one by one in lane order."""

    @pytest.mark.parametrize("n_lanes,steps,ticks_per_gap", PIPELINE_SHAPES)
    def test_each_lane_is_its_own_chain(self, n_lanes, steps, ticks_per_gap):
        rng = np.random.default_rng([23, n_lanes, steps])
        for _ in range(3):
            inputs, clusters, settings = random_pipeline(rng, n_lanes, steps)
            expected = outcome(reference_lanes, inputs,
                               slot_clusters(clusters, n_lanes, steps), settings, True)
            got = outcome(simulate_pipeline, 5.0, 1.0, inputs, clusters, settings,
                          ticks_per_gap=ticks_per_gap, allow_unentangled=True)
            assert expected[0] == got[0] == "ok"
            assert len(expected[2]) >= 1 + (n_lanes > 1)
            assert got[2] == expected[2]  # the unentangled warnings
            assert len(got[1].outputs) == n_lanes
            for new, ref in zip(got[1].outputs, expected[1]):
                assert_outputs_equal(new, ref)

    @pytest.mark.parametrize("n_lanes,steps", [(2, 3), (16, 4)])
    def test_lane_output_covariance_is_the_dense_product(self, n_lanes, steps):
        # a lane's signal and noise come from the pass's stacked arrays; its
        # covariance must be the dense Q Sigma Q^T to the bit, and that of
        # the lane run alone
        rng = np.random.default_rng([23, n_lanes, steps, 2])
        inputs, clusters, settings = random_pipeline(rng, n_lanes, steps)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the unentangled slots
            outputs = simulate_pipeline(5.0, 1.0, inputs, clusters, settings,
                                        allow_unentangled=True).outputs
            alone = [run_steps(inp, lane, lane_settings, allow_unentangled=True)
                     for inp, lane, lane_settings
                     in zip(inputs, slot_clusters(clusters, n_lanes, steps), settings)]
        for out, single in zip(outputs, alone):
            a = rng.normal(size=(2, 2)) * 10.0 ** rng.uniform(-2.0, 2.0, 2)
            blocks = {out.input_mode: a @ a.T + 1e-3 * np.eye(2)}
            Q = np.hstack([out.signal_matrix, out.noise])
            cov = output_covariance(out, blocks)
            assert_bits_equal(cov, Q @ reference_column_cov(out, blocks) @ Q.T)
            assert_bits_equal(cov, output_covariance(single, blocks))

    @pytest.mark.parametrize("fault,allow_unentangled", [
        ("degenerate", True), ("degenerate", False), ("unentangled", False),
        ("symbols", True), ("symbols", False)])
    @pytest.mark.parametrize("n_lanes,steps,ticks_per_gap", PIPELINE_SHAPES)
    def test_first_bad_lane_raises_its_error(self, n_lanes, steps, ticks_per_gap, fault,
                                            allow_unentangled):
        # lane `bad` (> 0 where there are two lanes or more) is faulty at its
        # last step, or in its input; every later lane is degenerate at its
        # first step and unentangled at its last, and the last lane's input
        # is swapped.  Those later faults must not be what is reported.
        # Without allow_unentangled, the lanes up to `bad` run on entangled
        # clusters only.
        rng = np.random.default_rng([23, n_lanes, steps, 1])
        inputs, clusters, settings = random_pipeline(rng, n_lanes, steps)
        if not allow_unentangled:
            clusters = [c if c.vlf_sum() < VLF_GUARDED_BOUND else CLUSTER for c in clusters]
        bad = n_lanes // 2
        for lane in range(bad + 1, n_lanes):
            settings[lane][0] = FLAT
            clusters[reference_lane_slot(lane, steps - 1, n_lanes)] = LOOSE
        if bad < n_lanes - 1:
            inputs[-1] = (y_quad(0), x_quad(0))
        if fault == "degenerate":
            settings[bad][steps - 1] = FLAT
        elif fault == "unentangled":
            clusters[reference_lane_slot(bad, steps - 1, n_lanes)] = LOOSE
        else:
            inputs[bad] = (x_quad(0) + LinearQuadratureExpr(symbols={"i_in": 1.0}),
                           y_quad(0))
        lanes = slot_clusters(clusters, n_lanes, steps)
        expected = outcome(reference_lanes, inputs, lanes, settings, allow_unentangled)
        got = outcome(simulate_pipeline, 5.0, 1.0, inputs, clusters, settings,
                      ticks_per_gap=ticks_per_gap, allow_unentangled=allow_unentangled)
        assert expected[0] == "raised"
        # lane 0 warns at its last step before a later lane raises
        assert expected[3] or not (allow_unentangled and n_lanes > 1)
        assert got == expected
        # the error is the one run_steps raises for that lane alone
        alone = outcome(run_steps, inputs[bad], lanes[bad], settings[bad],
                        allow_unentangled=allow_unentangled)
        assert got[:3] == alone[:3]
