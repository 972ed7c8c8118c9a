"""Measurement-based Gaussian gates on two-node cluster resources.

One computation step mixes the input mode with the first node of a two-node
cluster on a symmetric beam splitter and homodynes both beam-splitter
outputs.  With local-oscillator phases theta_in and theta_1 the surviving
node carries

    (X_out, Y_out) = M(tp, tm) (x_in, y_in)
                     - sqrt(2) (y1, y2)
                     + (1 / (beta0 sqrt(2) sin tm)) C (i_in, i_1),

    M(tp, tm) = 1/sin(tm) [[cos tp + cos tm,  sin tp],
                           [-sin tp,          cos tp - cos tm]],
    C = [[cos theta_1, -cos theta_in], [-sin theta_1, sin theta_in]],

where tp = theta_in + theta_1, tm = theta_in - theta_1, (y1, y2) are the
squeezed source quadratures behind the cluster and i_in, i_1 the recorded
photocurrents.  The relation is an exact operator identity under the port
and detector conventions fixed below; feed-forward displacements remove the
photocurrent term entirely.

Port and detector conventions (fixed by requiring the identity to hold
exactly):

* the cluster is prepared from U = (1/sqrt 2)[[1, -i], [i, -1]] acting on
  the two squeezed sources;
* the mixing beam splitter sends the pair (input, node 1) to the difference
  port (node - input)/sqrt(2) and the sum port (node + input)/sqrt(2);
* the theta_in detector sits on the difference port, the theta_1 detector
  on the sum port, both measuring cos(theta) x + sin(theta) y;
* balanced detection yields i = 2 * beta0 * (measured quadrature).

:func:`run_steps` is the engine's one entry point, for one step or many.
Its input is the (x, y) pair of one mode m, with optional numeric offsets;
the sources of step j are modes m + 1 + 2j and m + 2 + 2j, so the column
layout is fixed by m and the step count.  Every step is affine in the
quadratures and currents, so the engine holds a chain of k steps as small
dense arrays (:class:`GateOutput`), built in one pass from the cluster-node
identities.  Step j homodynes its input against node 1 of cluster j, and
its input is node 2 of cluster j - 1 (the chain input for j = 0), so each
measured quadrature is a fixed row over the sources of two steps:

    ports_j = D_j (input_j) + diag(-1, 1) D_j (X1_j, Y1_j),
    D_j = [[-cos theta_in, -sin theta_in], [cos theta_1, sin theta_1]] / sqrt(2).

These rows R, and the offset D_0 (input offset) of the first step, hold
with every current replaced by its defining operator (current = 2 beta0
quadrature); they carry no current columns and need no solve.  The output
rows over the source quadratures and over the 2k currents come from the
suffix products M_k ... M_{j+1} of the 2x2 gates, so a chain costs O(k).
The output and photocurrent covariances are Q Sigma Q^T and R Sigma R^T,
so sampling factors one 2k x 2k matrix.  The expression view ``exprs``
is built from the arrays once per output.  The covariance oracle below
conditions dense symplectic states instead and shares none of this code:
one step builds the 6x6 joint state of the input, the two sources and the
mixing beam splitter, and conditions it on both homodyne results with one
eigendecomposition of the 2x2 measured block.

Two chained steps compose to M(tp', tm') M(tp, tm), which reaches every
determinant-one real 2x2 matrix; :func:`solve_phases` inverts that map in
closed form.  The two-mode entangling gate is obtained by sandwiching two
parallel single-mode gates between symmetric beam splitters
(:func:`cz_transform`).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .cluster import VLF_BOUND, ClusterGraph, _real_form, cluster_unitary, default_two_node_q
from .quadrature import (
    VACUUM_VARIANCE,
    GaussianState,
    LinearQuadratureExpr,
    embed,
    x_quad,
    y_quad,
)

_SQRT2 = math.sqrt(2.0)

#: Homodyne settings with |sin(theta_in - theta_1)| at or below this are degenerate.
DEGENERACY_TOL = 1e-9

#: Default local-oscillator amplitude (bright; only scales the classical term).
DEFAULT_BETA_0 = 1e6

#: Residual bound for the two-step phase solver.
PHASE_RESIDUAL_TOL = 1e-6


class DegenerateHomodynePhasesError(ValueError):
    """Raised when sin(theta_in - theta_1) vanishes and the gate is undefined."""


class PhaseSolveError(RuntimeError):
    """Raised when the two-step decomposition misses the residual target."""


@dataclass(frozen=True, slots=True)
class HomodyneSetting:
    """Local-oscillator phases and amplitude for one measurement step.

    Slotted: pipelines hold one per lane and step.
    """

    theta_in: float
    theta_1: float
    beta_0: float = DEFAULT_BETA_0

    def __post_init__(self):
        if self.beta_0 <= 0:
            raise ValueError("local-oscillator amplitude must be positive")

    @property
    def theta_plus(self) -> float:
        return self.theta_in + self.theta_1

    @property
    def theta_minus(self) -> float:
        return self.theta_in - self.theta_1


@dataclass(frozen=True)
class TwoNodeCluster:
    """Measurement resource: two squeezed sources entangled as a two-node cluster.

    Holds the source quadrature variances; x variances default to the
    minimum-uncertainty partner scaled by an excess-noise factor.
    """

    y_variances: tuple
    x_variances: tuple

    def __post_init__(self):
        vy = tuple(float(v) for v in self.y_variances)
        vx = tuple(float(v) for v in self.x_variances)
        if len(vy) != 2 or len(vx) != 2:
            raise ValueError("a two-node cluster has exactly two sources")
        if not all(0 < v < math.inf for v in vy + vx):
            raise ValueError("source variances must be positive and finite")
        object.__setattr__(self, "y_variances", vy)
        object.__setattr__(self, "x_variances", vx)

    @classmethod
    def from_y_variances(cls, v1: float, v2: float, excess: float = 1.0) -> "TwoNodeCluster":
        if not (v1 > 0 and v2 > 0):
            raise ValueError("source variances must be positive and finite")
        return cls((v1, v2), (excess / (16.0 * v1), excess / (16.0 * v2)))

    def vlf_sum(self) -> float:
        """Nullifier-variance sum of the generated cluster: 2 (v1 + v2)."""
        return 2.0 * (self.y_variances[0] + self.y_variances[1])

    @property
    def entangled(self) -> bool:
        return self.vlf_sum() < VLF_BOUND


def gate_matrix(theta_plus: float, theta_minus: float) -> np.ndarray:
    """Determinant-one gate matrix realized by one measurement step."""
    s = math.sin(theta_minus)
    if abs(s) <= DEGENERACY_TOL:
        raise DegenerateHomodynePhasesError(
            f"degenerate homodyne phases: |sin(theta_minus)| = {abs(s):.2e}")
    cp, cm, sp = math.cos(theta_plus), math.cos(theta_minus), math.sin(theta_plus)
    return np.array([[cp + cm, sp], [-sp, cp - cm]]) / s


def cluster_node_exprs(sources: tuple) -> tuple:
    """Cluster-node quadratures over the two squeezed source modes.

    Returns ((X1, Y1), (X2, Y2)) for sources (m1, m2) entangled through
    U = (1/sqrt 2)[[1, -i], [i, -1]].
    """
    m1, m2 = sources
    h = 1.0 / _SQRT2
    X1 = h * (x_quad(m1) + y_quad(m2))
    Y1 = h * (y_quad(m1) - x_quad(m2))
    X2 = (-h) * (x_quad(m2) + y_quad(m1))
    Y2 = h * (x_quad(m1) - y_quad(m2))
    return (X1, Y1), (X2, Y2)


@dataclass(frozen=True)
class GateOutput:
    """Output of one or more chained measurement steps, as dense arrays.

    Quadrature columns are the (x, y) pairs of the input mode m, then of the
    source modes m + 1 + 2j and m + 2 + 2j of each step j; array column c is
    covariance column 2m + c, so a k-step output spans columns 2m to
    2m + 4k + 1.  Current columns follow ``current_names``, two per step in
    time order.

    * ``signal_matrix`` - the net 2x2 gate M_k ... M_1 on the input pair,
      which is also the output pair over the input columns;
    * ``noise`` - the output pair over the source quadratures (the
      accumulated -sqrt(2) squeezed-quadrature terms);
    * ``classical`` and ``offset`` - the output pair over the recorded
      currents, and its numeric classical part;
    * ``measured_rows`` (R) and ``measured_offset`` (r0) - each recorded
      quadrature as R q + r0 over the quadrature columns q, one row per
      current.  Row pair j is the two ports of step j, taken from node 2 of
      cluster j - 1 (the input for j = 0) and node 1 of cluster j, so every
      row has at most 8 nonzero columns and carries no current.

    ``exprs`` is the (X_out, Y_out) expression view of the output rows,
    built once when the output is made; pass ``exprs=None`` to
    :func:`dataclasses.replace` to rebuild it from changed arrays.
    """

    signal_matrix: np.ndarray
    noise: np.ndarray
    classical: np.ndarray
    offset: np.ndarray
    measured_rows: np.ndarray
    measured_offset: np.ndarray
    current_names: tuple
    input_mode: int
    settings: tuple
    clusters: tuple
    exprs: tuple | None = None

    def __post_init__(self):
        if self.exprs is None:
            object.__setattr__(self, "exprs", _row_exprs(
                self.quadrature_rows(), 2 * self.input_mode, self.classical,
                self.current_names, self.offset))

    def quadrature_rows(self) -> np.ndarray:
        """Quantum part of the output pair over all quadrature columns."""
        return np.hstack([self.signal_matrix, self.noise])

    def source_variances(self) -> np.ndarray:
        """Variances of the source quadratures, in column order."""
        return np.array([v for c in self.clusters
                         for v in (c.x_variances[0], c.y_variances[0],
                                   c.x_variances[1], c.y_variances[1])])

    def column_cov(self, input_blocks: Mapping[int, np.ndarray]) -> np.ndarray:
        """Covariance of the quadrature columns: the input mode's block
        (vacuum when none is given) and the uncorrelated cluster sources."""
        block = np.asarray(input_blocks.get(self.input_mode, VACUUM_VARIANCE * np.eye(2)),
                           dtype=float)
        if block.shape != (2, 2):
            raise ValueError("the input covariance block must be 2x2")
        cov = np.diag(np.concatenate([np.zeros(2), self.source_variances()]))
        cov[:2, :2] = block
        return cov

    def noise_covariance(self) -> np.ndarray:
        """Covariance of the noise the steps add to the output pair."""
        return (self.noise * self.source_variances()) @ self.noise.T


def _row_exprs(quad_rows, first_column, current_rows, names, offsets) -> tuple:
    """Expression view of array rows; array column c is covariance column
    ``first_column`` + c."""
    cols = np.flatnonzero(np.any(quad_rows != 0.0, axis=0))
    keys = (cols + first_column).tolist()
    return tuple(LinearQuadratureExpr(dict(zip(keys, row)), dict(zip(names, cur)), off)
                 for row, cur, off in zip(quad_rows[:, cols].tolist(),
                                          current_rows.tolist(), offsets.tolist()))


def _input_mode(input_exprs: tuple) -> tuple:
    """Mode m and offsets (a, b) of an input pair (x_m + a, y_m + b)."""
    if any(e.symbols for e in input_exprs):
        raise ValueError("input expressions carry photocurrent symbols; feed forward "
                         "first, or run all steps in one run_steps call")
    mode = min((col for e in input_exprs for col in e.coeffs), default=0) // 2
    if [e.coeffs for e in input_exprs] != [x_quad(mode).coeffs, y_quad(mode).coeffs]:
        raise ValueError("the input must be the (x, y) pair of one mode m with "
                         "optional numeric offsets, (x_m + a, y_m + b)")
    return mode, np.array([e.offset for e in input_exprs])


#: sqrt(2) (X, Y) of node 1 and of node 2 over the cluster's sources
#: (x_m1, y_m1, x_m2, y_m2), as in :func:`cluster_node_exprs`.
_NODE_1 = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, -1.0, 0.0]])
_NODE_2 = np.array([[0.0, -1.0, -1.0, 0.0], [1.0, 0.0, 0.0, -1.0]])

#: The -sqrt(2) (y_m1, y_m2) term a step adds to its output pair.
_STEP_NOISE = np.array([[0.0, -_SQRT2, 0.0, 0.0], [0.0, 0.0, 0.0, -_SQRT2]])

#: diag(-1, 1) as a row-sign column: turns (cos, sin) rows into D sqrt(2).
_PORT_SIGN = np.array([[-1.0], [1.0]])


def run_steps(input_exprs: tuple, clusters: Sequence[TwoNodeCluster],
              settings: Sequence[HomodyneSetting], *,
              allow_unentangled: bool = False) -> GateOutput:
    """Chain measurement steps; the signal part becomes M_k ... M_2 M_1.

    ``input_exprs`` is the (x, y) pair of one mode m with optional numeric
    offsets, (x_m + a, y_m + b), free of photocurrent symbols; step j
    (from 0) takes the source modes m + 1 + 2j and m + 2 + 2j.  Noise of
    earlier steps is propagated through the later gate matrices, and the
    photocurrents are named in time order: ``i_in``, ``i_1`` for a single
    step, ``i_in[j]``, ``i_1[j]`` for step j = 1..k of a longer chain.

    With T_j the rows (cos, sin) of theta_in and theta_1 of step j and
    D_j = diag(-1, 1) T_j / sqrt(2), step j measures D_j on its input and
    T_j / sqrt(2) on node 1 of cluster j; its input is node 2 of cluster
    j - 1, or the chain input for j = 0.  The output carries each step's
    noise and current terms through the suffix product M_k ... M_{j+1}.
    """
    k = len(settings)
    if len(clusters) != k or not k:
        raise ValueError("need one cluster per setting, at least one step")
    input_mode, input_offset = _input_mode(input_exprs)
    labels = [""] if k == 1 else [f"[{j + 1}]" for j in range(k)]
    names, matrices, trig, gains = [], [], [], []
    for cluster, setting, label in zip(clusters, settings, labels):
        if cluster.vlf_sum() >= VLF_BOUND:
            if not allow_unentangled:
                raise ValueError(
                    "cluster resource is not entangled (nullifier sum "
                    f"{cluster.vlf_sum():g} >= {VLF_BOUND}); pass allow_unentangled=True to force")
            warnings.warn("running a measurement step on an unentangled cluster resource",
                          stacklevel=2)
        matrices.append(gate_matrix(setting.theta_plus, setting.theta_minus))  # validates phases
        names += [f"i_in{label}", f"i_1{label}"]
        cin, sin_ = math.cos(setting.theta_in), math.sin(setting.theta_in)
        c1, s1 = math.cos(setting.theta_1), math.sin(setting.theta_1)
        pref = 1.0 / (setting.beta_0 * _SQRT2 * math.sin(setting.theta_minus))
        trig.append(((cin, sin_), (c1, s1)))
        gains.append(((pref * c1, -pref * cin), (-pref * s1, pref * sin_)))
    trig = np.array(trig)

    # row pair j over (step, 4 sources): node 1 of cluster j on the diagonal,
    # node 2 of cluster j - 1 below it
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
    return GateOutput(
        signal_matrix=signal,
        noise=(suffix @ _STEP_NOISE).transpose(1, 0, 2).reshape(2, 4 * k),
        classical=(suffix @ np.array(gains)).transpose(1, 0, 2).reshape(2, 2 * k),
        offset=signal @ input_offset,
        measured_rows=measured_rows,
        measured_offset=measured_offset,
        current_names=tuple(names),
        input_mode=input_mode,
        settings=tuple(settings),
        clusters=tuple(clusters),
    )


def output_covariance(output: GateOutput,
                      input_blocks: Mapping[int, np.ndarray]) -> np.ndarray:
    """Quantum covariance Q Sigma Q^T of the output pair over the input and
    source modes (vacuum input when ``input_blocks`` has no block for it)."""
    Q = output.quadrature_rows()
    return Q @ output.column_cov(input_blocks) @ Q.T


def feed_forward(output: GateOutput, currents: Mapping[str, float] | None = None) -> GateOutput:
    """Displace away every classical term from the output expressions.

    After feed-forward both expressions carry a classical offset of exactly
    zero and no photocurrent symbols; the quantum parts are untouched.
    Applying it again is a no-op.
    """
    currents = dict(currents or {})
    for e in output.exprs:
        missing = [s for s in e.symbols if s not in currents]
        if missing:
            raise ValueError(f"missing measured currents for feed-forward: {missing}")
    cleaned = tuple(LinearQuadratureExpr(e.coeffs) for e in output.exprs)
    return replace(output, classical=np.zeros_like(output.classical),
                   offset=np.zeros(2), exprs=cleaned)


def sample_currents(output: GateOutput, input_blocks: Mapping[int, np.ndarray],
                    rng: np.random.Generator) -> dict:
    """Draw photocurrent records from their joint Gaussian law.

    The measured quadratures have mean r0 and covariance R Sigma R^T over
    the measured rows R; currents are scaled by 2 beta0.  numpy's check that
    the covariance is positive semidefinite uses an absolute tolerance of
    1e-8, so variances far from unit scale fail it (in a two-step chain,
    source variances of 1e8 or 1e-9); that raises ValueError rather than
    sampling.
    """
    R = output.measured_rows
    sigma = R @ output.column_cov(input_blocks) @ R.T
    try:
        draws = rng.multivariate_normal(output.measured_offset, sigma, method="svd",
                                        check_valid="raise")
    except ValueError:
        raise ValueError(
            "cannot sample the photocurrents: their covariance, with variances "
            f"up to {float(np.max(np.diag(sigma))):.3g}, fails numpy's "
            "positive-semidefinite check") from None
    two_beta = 2.0 * np.repeat([s.beta_0 for s in output.settings], 2)
    return dict(zip(output.current_names, (two_beta * draws).tolist()))


# ---------------------------------------------------------------------------
# Homodyne conditioning (Schur complement) and the covariance oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionedGaussian:
    """Result of conditioning a Gaussian state on homodyne outcomes.

    state: conditional state of the kept modes (mean uses the supplied
    outcomes, or the prior mean when none are given); bayes_gain maps
    measured-quadrature deviations to conditional-mean shifts of the kept
    quadratures; measured_cov is the covariance of the measured quadratures.
    """

    state: GaussianState
    kept_modes: tuple
    measured_modes: tuple
    bayes_gain: np.ndarray
    measured_cov: np.ndarray


#: Smallest eigenvalue of the measured covariance accepted by conditioning.
MEASURED_EIG_MIN = 1e-14

#: Inverse eigenvalues at or below this fraction of the largest are zeroed,
#: numpy's default ``pinv`` cutoff.
PINV_RCOND = 1e-15


def condition_homodyne(state: GaussianState, measured_angles: Mapping[int, float],
                       outcomes: Mapping[int, float] | None = None) -> ConditionedGaussian:
    """Condition a Gaussian state on homodyne results via the Schur complement.

    ``measured_angles`` maps mode -> local-oscillator angle; the measured
    quadrature of each mode is cos(angle) x + sin(angle) y.  Measured modes
    must be disjoint from the kept modes (every mode is either measured or
    kept).  The conditional covariance of the kept block is

        Sigma_kk - Sigma_km pinv(Sigma_mm) Sigma_km^T.

    One eigendecomposition Sigma_mm = V diag(w) V^T serves both the screen
    and the inverse: a smallest eigenvalue below 1e-14 is rejected as
    ill-conditioned, and pinv(Sigma_mm) = V diag(1/w) V^T with 1/w set to
    zero for w <= 1e-15 max(w), the cutoff of numpy's ``pinv``.  Built in
    pinv's order, this equals ``np.linalg.pinv(Sigma_mm, hermitian=True)``,
    which would decompose Sigma_mm a second time.  The kept rows and block
    are read from the covariance by index.
    """
    n = state.n_modes
    measured_modes = tuple(sorted(measured_angles))
    if not measured_modes:
        raise ValueError("no measured modes given")
    if any(not 0 <= m < n for m in measured_modes):
        raise ValueError("measured mode out of range")
    kept_modes = tuple(m for m in range(n) if m not in measured_angles)
    if not kept_modes:
        raise ValueError("no kept modes remain")

    P = np.zeros((len(measured_modes), 2 * n))
    for row, mode in enumerate(measured_modes):
        angle = float(measured_angles[mode])
        P[row, 2 * mode] = math.cos(angle)
        P[row, 2 * mode + 1] = math.sin(angle)
    kept_idx = [i for m in kept_modes for i in (2 * m, 2 * m + 1)]

    cov = state.cov
    sigma_mm = P @ cov @ P.T
    w, V = np.linalg.eigh(sigma_mm)  # ascending eigenvalues
    if w[0] < MEASURED_EIG_MIN:
        raise ValueError(f"ill-conditioned measured variance (< {MEASURED_EIG_MIN:g})")
    # descending and multiplied in pinv's order, so the inverse rounds as pinv's does
    w, V = w[::-1], V[:, ::-1]
    inv_w = 1.0 / w
    inv_w[w <= PINV_RCOND * w[0]] = 0.0
    cov_kept = cov.take(kept_idx, axis=0)
    sigma_km = cov_kept @ P.T
    gain = sigma_km @ (V @ (inv_w[:, None] * V.T))
    cov_cond = cov_kept.take(kept_idx, axis=1) - gain @ sigma_km.T
    cov_cond = 0.5 * (cov_cond + cov_cond.T)

    mean_kept = state.mean.take(kept_idx)
    if outcomes is not None:
        m_vals = np.array([float(outcomes[m]) for m in measured_modes])
        mean_kept = mean_kept + gain @ (m_vals - P @ state.mean)
    return ConditionedGaussian(GaussianState(mean_kept, cov_cond),
                               kept_modes, measured_modes, gain, sigma_mm)


@functools.cache
def _step_symplectic() -> np.ndarray:
    """The oracle's constant map on (input, source 1, source 2), built once.

    The two squeezed sources become the two-node cluster, then the mixing
    beam splitter sends (input, node 1) to the difference and sum ports,
    with the same mixing on x and y.  Built from the dense cluster code on
    first use rather than at import, so processes that never run the oracle
    do not load the LAPACK routines it needs.
    """
    S_cluster = embed(_real_form(
        cluster_unitary(ClusterGraph.two_node(), default_two_node_q())), (1, 2), 3)
    S_mix = np.kron(np.array([[-1.0, 1.0], [1.0, 1.0]]) / _SQRT2, np.eye(2))
    S = embed(S_mix, (0, 1), 3) @ S_cluster
    S.setflags(write=False)
    return S


#: Diagonal positions of the source quadratures (x1, y1, x2, y2) in the joint state.
_SOURCE_DIAG = np.arange(2, 6)


def step_joint_state(input_cov: np.ndarray, cluster: TwoNodeCluster) -> GaussianState:
    """Three-mode state after cluster generation and the mixing beam splitter.

    Mode 0 is the difference port, mode 1 the sum port, mode 2 the surviving
    cluster node.  Built entirely from symplectic matrix maps; this is the
    path independent of the gate engine's arrays.
    """
    input_cov = np.asarray(input_cov, dtype=float)
    if input_cov.shape != (2, 2):
        raise ValueError("input covariance must be 2x2")
    u1, u2 = cluster.x_variances
    v1, v2 = cluster.y_variances
    joint = np.zeros((6, 6))
    joint[:2, :2] = input_cov
    joint[_SOURCE_DIAG, _SOURCE_DIAG] = (u1, v1, u2, v2)
    S = _step_symplectic()
    return GaussianState(np.zeros(6), S @ joint @ S.T)


def protocol_gains(setting: HomodyneSetting) -> np.ndarray:
    """Feed-forward gains in measured-quadrature units (current = 2 beta0 q)."""
    sm = math.sin(setting.theta_minus)
    if abs(sm) <= DEGENERACY_TOL:
        raise DegenerateHomodynePhasesError("degenerate homodyne phases")
    cin, sin_ = math.cos(setting.theta_in), math.sin(setting.theta_in)
    c1, s1 = math.cos(setting.theta_1), math.sin(setting.theta_1)
    return (_SQRT2 / sm) * np.array([[c1, -cin], [-s1, sin_]])


def single_step_covariance_oracle(input_cov: np.ndarray, cluster: TwoNodeCluster,
                                  setting: HomodyneSetting) -> np.ndarray:
    """Output covariance of one step, via conditioning instead of gate algebra.

    Conditions the post-beam-splitter state on the two homodyne results
    (Schur complement), then restores the outcome scatter left by the fixed
    feed-forward gains (law of total covariance):

        Sigma_out = Sigma_cond + (G* - G) Sigma_mm (G* - G)^T

    with G* the conditional-mean gains and G the protocol gains.  Agrees
    with the gate engine to floating-point accuracy and is independent
    of the anti-squeezed variances.
    """
    joint = step_joint_state(input_cov, cluster)
    cond = condition_homodyne(joint, {0: setting.theta_in, 1: setting.theta_1})
    D = cond.bayes_gain - protocol_gains(setting)
    return cond.state.cov + D @ cond.measured_cov @ D.T


# ---------------------------------------------------------------------------
# Phase solving: invert the two-step composition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseSolution:
    """Two homodyne settings realizing a target determinant-one matrix."""

    setting_1: HomodyneSetting
    setting_2: HomodyneSetting
    residual: float
    matrix: np.ndarray


def _det_and_is_one(m: np.ndarray) -> tuple[float, bool]:
    """Determinant of the 2x2 matrix ``m`` and whether it is 1 up to rounding.

    The computed determinant of [[a, b], [c, d]] carries a rounding error of
    a few eps * (|a d| + |b c|), which outgrows any fixed tolerance on
    ill-conditioned matrices, so the tolerance scales with it.  This only
    screens out matrices that are clearly not determinant-one; the residual
    checks downstream (the phase solver's, the symplectic one) are the real
    gates.
    """
    det = float(np.linalg.det(m))
    scale = abs(m[0, 0] * m[1, 1]) + abs(m[0, 1] * m[1, 0])
    return det, abs(det - 1.0) <= 1e-9 + 8.0 * np.finfo(float).eps * scale


def _setting_from_half_sum_diff(theta_plus, theta_minus, beta_0):
    return HomodyneSetting((theta_plus + theta_minus) / 2.0,
                           (theta_plus - theta_minus) / 2.0, beta_0)


def solve_phases(target: np.ndarray, tol: float = PHASE_RESIDUAL_TOL,
                 beta_0: float = DEFAULT_BETA_0) -> PhaseSolution:
    """Find settings with gate(setting_2) @ gate(setting_1) = target.

    Uses the rotation form of the one-step gate,
    M(tp, tm) = R(-tp/2) diag(a, 1/a) R(-tp/2) with a = cot(tm/2): writing
    the target as R(A) diag(s, 1/s) R(B) (signed SVD, s the larger singular
    value), the pair

        step 1: tp = -2B, tm = 2*atan2(1, s)      (= R(B) diag(s,1/s) R(B))
        step 2: tp = B - A, tm = pi/2             (pure rotation R(A - B))

    solves the problem in closed form, to a residual of order eps * s
    (about 1e-10 at s = 1e5).  A residual above ``tol`` raises
    :class:`PhaseSolveError` carrying that residual rather than returning a
    wrong answer.
    """
    target = np.asarray(target, dtype=float)
    if target.shape != (2, 2):
        raise ValueError("target must be a 2x2 matrix")
    det, is_one = _det_and_is_one(target)
    if not is_one:
        raise ValueError(f"target determinant {det:.12g} is not 1")

    U, s, Vt = np.linalg.svd(target)
    if np.linalg.det(U) < 0:  # det(U) det(Vt) = +1, flip both
        U = U @ np.diag([1.0, -1.0])
        Vt = np.diag([1.0, -1.0]) @ Vt
    A = math.atan2(U[1, 0], U[0, 0])
    B = math.atan2(Vt[1, 0], Vt[0, 0])
    # det = 1 makes the small singular value 1/s[0]; the computed s[1]
    # carries the SVD's absolute error eps * s[0], relative eps * s[0]**2,
    # so deriving sigma from it would lose accuracy on ill-conditioned targets
    sigma = float(s[0])

    tp1, tm1 = -2.0 * B, 2.0 * math.atan2(1.0, sigma)
    tp2, tm2 = B - A, math.pi / 2.0
    q1 = _setting_from_half_sum_diff(tp1, tm1, beta_0)
    q2 = _setting_from_half_sum_diff(tp2, tm2, beta_0)
    M = gate_matrix(tp2, tm2) @ gate_matrix(tp1, tm1)
    residual = float(np.max(np.abs(M - target)))
    if residual > tol:
        raise PhaseSolveError(
            f"target not reached: residual {residual:.3e} exceeds {tol:g}")
    return PhaseSolution(q1, q2, residual, M)


# ---------------------------------------------------------------------------
# Two-mode entangling gate from parallel single-mode gates
# ---------------------------------------------------------------------------

# sqrt(2) times the two-mode symmetric beam splitter in (x1,y1,x2,y2) order;
# using it keeps integer coefficient choices exact: B G B = (B2 G B2) / 2.
_BS2 = np.array([
    [1.0, 0.0, 1.0, 0.0],
    [0.0, 1.0, 0.0, 1.0],
    [1.0, 0.0, -1.0, 0.0],
    [0.0, 1.0, 0.0, -1.0],
])

#: The two-mode entangling target: each mode's x feeds the partner's y.
CZ_MATRIX = np.array([
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 1.0, 1.0, 0.0],
    [0.0, 0.0, 1.0, 0.0],
    [1.0, 0.0, 0.0, 1.0],
])


@dataclass(frozen=True)
class TwoModeCoefficients:
    """The two single-mode gate blocks applied between the beam splitters."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if a.shape != (2, 2) or b.shape != (2, 2):
            raise ValueError("invalid blocks: both must be 2x2")
        for name, blk in (("a", a), ("b", b)):
            det, is_one = _det_and_is_one(blk)
            if not is_one:
                raise ValueError(
                    f"invalid blocks: det({name}) = {det:.12g}, a realizable "
                    "single-mode Gaussian gate needs determinant 1")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


def canonical_cz_coefficients() -> TwoModeCoefficients:
    """Block choice that turns the sandwich into the entangling gate exactly."""
    return TwoModeCoefficients(np.array([[1.0, 0.0], [1.0, 1.0]]),
                               np.array([[1.0, 0.0], [-1.0, 1.0]]))


def cz_transform(coeffs: TwoModeCoefficients) -> np.ndarray:
    """Sandwich blockdiag(a, b) between two symmetric beam splitters."""
    G = np.zeros((4, 4))
    G[:2, :2] = coeffs.a
    G[2:, 2:] = coeffs.b
    return (_BS2 @ G @ _BS2) / 2.0
