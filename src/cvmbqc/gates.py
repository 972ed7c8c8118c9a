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

:func:`run_steps` is the engine's entry point, for one step or many.  It
is the engine core with one lane: the core runs a stack of chains of one
length in one pass, on a leading lane axis, and
:func:`cvmbqc.multiplex.simulate_pipeline` runs all its lanes through it
at once.  A chain's input is the (x, y) pair of one mode m, with optional
numeric offsets; the sources of step j are modes m + 1 + 2j and
m + 2 + 2j, so the column layout is fixed by m and the step count.  Every
step is affine in the quadratures and currents, so the engine holds a
chain of k steps as small dense arrays (:class:`GateOutput`) built from the
cluster-node identities.  One pass builds the arrays every reader needs,
the signal and the noise; the measured rows, the current terms and the
current scales, which only sampling and feed-forward read, are built from
a record of that pass on the first read of any of them, for all its lanes
at once.  Step j homodynes its input against node 1 of cluster j, and its
input is node 2 of cluster j - 1 (the chain input for j = 0), so each
measured quadrature is a fixed row over the sources of two steps:

    ports_j = D_j (input_j) + diag(-1, 1) D_j (X1_j, Y1_j),
    D_j = [[-cos theta_in, -sin theta_in], [cos theta_1, sin theta_1]] / sqrt(2).

These rows R, and the offset D_0 (input offset) of the first step, hold
with every current replaced by its defining operator (current = 2 beta0
quadrature); they carry no current columns and need no solve.  With T_j
the trig rows (cos, sin) of theta_in and theta_1 of step j, R is
block-bidiagonal over the sources: row pair j holds T_j N_1 / 2 over
cluster j and diag(-1, 1) T_j N_2 / 2 over cluster j - 1, N_1 and N_2 the
node identities (``_NODE_1``, ``_NODE_2``), and D_0 over the chain input.
So R is built as those two block bands and one block.  The output rows
over the source quadratures and over the 2k currents come from the suffix
products M_k ... M_{j+1} of the 2x2 gates, so a chain costs O(k).  The
output covariance Q Sigma Q^T is formed from the only two nonzero blocks
of Q Sigma, the signal times the input block and the noise times the
source variances, so it too costs O(k).  Sampling draws the columns q themselves, the input pair
through the 2x2 Cholesky factor of its block (in Python floats, from the
pivots that check the block) and each independent source quadrature
through its standard deviation, and applies R, so the currents follow R
Sigma R^T without that 2k x 2k matrix being formed.  The expression view
``exprs`` is built from the arrays on first read, so an output never read
as expressions costs only its arrays.  The covariance oracle below
conditions dense symplectic covariances instead and shares none of this
code: one step builds the 6x6 joint covariance S J S^T of the input, the
two sources and the mixing beam splitter, and passes it straight to the
array-level Schur core, the package's one homodyne conditioning.  The core
conditions on both homodyne results with one eigendecomposition of the 2x2
measured block; no state object is built on the way.

The oracle and the per-output readers (:func:`output_covariance`,
:func:`sample_currents`, :meth:`GateOutput.noise_covariance`) form every
2-D product with ``ndarray.dot``, not ``@``.  On 2-D float arrays both make
the same BLAS gemm or gemv call on the same operands, so the results are
equal bit for bit, and ``.dot`` spends about half as long in numpy's
dispatch, which is most of the cost of a product of 2x2 to 6x6 arrays.
The engine core's stacked products, over a lane axis, keep ``@``.

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
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .cluster import (VLF_GUARDED_BOUND, ClusterGraph, _real_form, cluster_unitary,
                      default_two_node_q)
from .quadrature import (
    VACUUM_VARIANCE,
    LinearQuadratureExpr,
    _check_symmetric,
    _mode_column,
    _partner_variance,
    embed,
)

_SQRT2 = math.sqrt(2.0)

#: Homodyne settings with |sin(theta_in - theta_1)| at or below this are degenerate.
DEGENERACY_TOL = 1e-9

#: Default local-oscillator amplitude (bright; only scales the classical term).
DEFAULT_BETA_0 = 1e6

#: Residual bound for the two-step phase solver.
PHASE_RESIDUAL_TOL = 1e-6

#: The vacuum covariance block of an input mode with no block given.
_VACUUM_BLOCK = VACUUM_VARIANCE * np.eye(2)
_VACUUM_BLOCK.setflags(write=False)


class DegenerateHomodynePhasesError(ValueError):
    """Raised when sin(theta_in - theta_1) vanishes and the gate is undefined."""


class PhaseSolveError(RuntimeError):
    """Raised when the two-step decomposition misses the residual target."""


@dataclass(frozen=True, slots=True)
class HomodyneSetting:
    """Local-oscillator phases and amplitude for one measurement step.

    Slotted: pipelines hold one per lane and step.  Every field must be
    finite, and the amplitude positive.
    """

    theta_in: float
    theta_1: float
    beta_0: float = DEFAULT_BETA_0

    def __post_init__(self):
        for name in ("theta_in", "theta_1", "beta_0"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
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
    minimum-uncertainty partner scaled by an excess-noise factor of at
    least 1.
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
        return cls((v1, v2), (_partner_variance(v1, excess), _partner_variance(v2, excess)))

    def vlf_sum(self) -> float:
        """Nullifier-variance sum of the generated cluster: 2 (v1 + v2)."""
        return 2.0 * (self.y_variances[0] + self.y_variances[1])

    @property
    def entangled(self) -> bool:
        """The pair criterion of :func:`cluster.vlf_two_node_check`."""
        return self.vlf_sum() < VLF_GUARDED_BOUND


def _gate_entries(theta_plus: float, theta_minus: float) -> tuple:
    """sin(theta_minus) and the entries of M(theta_plus, theta_minus) in row
    order, in Python floats; degenerate phases raise."""
    s = math.sin(theta_minus)
    if abs(s) <= DEGENERACY_TOL:
        raise DegenerateHomodynePhasesError(
            f"degenerate homodyne phases: |sin(theta_minus)| = {abs(s):.2e}")
    cp, cm, sp = math.cos(theta_plus), math.cos(theta_minus), math.sin(theta_plus)
    return s, (cp + cm) / s, sp / s, -sp / s, (cp - cm) / s


def gate_matrix(theta_plus: float, theta_minus: float) -> np.ndarray:
    """Determinant-one gate matrix realized by one measurement step."""
    _, m00, m01, m10, m11 = _gate_entries(theta_plus, theta_minus)
    return np.array([[m00, m01], [m10, m11]])


#: The arrays an engine output builds from its :class:`_EnginePass` on the
#: first read of any of them, in :meth:`_EnginePass._stack` order.
_BUILT_ON_READ = ("classical", "offset", "measured_rows", "measured_offset",
                  "_current_scales")


@dataclass(frozen=True, eq=False)
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

    The output pair over all quadrature columns is
    ``[signal_matrix | noise]``.  An output of the engine core holds
    ``signal_matrix`` and ``noise`` when it is made; ``classical``,
    ``offset``, ``measured_rows``, ``measured_offset`` and the current
    scales 2 beta0 of sampling are built on the first read of any of them,
    for every lane of the engine pass at once (each lane's arrays are views
    into one stacked array), and then kept.  So a covariance or a rerun that
    reads only the signal and noise costs none of them.  ``exprs`` is the
    (X_out, Y_out) expression view of the output rows, built from the arrays
    on first read and then kept.  Both are built by :meth:`__getattr__`.  An
    output made through the constructor, or through
    :func:`dataclasses.replace`, holds every array, and a view passed as
    ``exprs``, as given; a view that an output built from its own arrays is
    not carried into a copy, which builds its own from its arrays on first
    read.  The column variances are kept once per output, on first use.
    Outputs compare and hash by identity, as ``ClusterGraph`` does.
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
        object.__setattr__(self, "_current_scales",
                           2.0 * np.repeat([s.beta_0 for s in self.settings], 2))
        if self.exprs is None or type(self.exprs) is _BuiltView:
            # __init__ stored None, or the view another output built from its
            # own arrays, in the instance dict, where it would hide the view
            # built from this output's arrays on first read
            del self.__dict__["exprs"]

    def __getattr__(self, name: str):
        """Build and keep what an output holds only once it is read.

        Python calls this only for names that neither the instance nor the
        class holds: the first read of any of ``_BUILT_ON_READ`` keeps all of
        the lane's arrays from its engine pass, and the first read of
        ``exprs`` keeps the expression view.  :func:`feed_forward` reads the
        arrays before it copies an output, so a read never replaces an array
        the output holds.
        """
        fields = self.__dict__
        if name in _BUILT_ON_READ and "_pass" in fields:
            fields.update(zip(_BUILT_ON_READ, fields["_pass"].lane(fields["_lane"])))
        elif name == "exprs":
            fields[name] = _row_exprs(
                np.concatenate((self.signal_matrix, self.noise), axis=1),
                2 * self.input_mode, self.classical, self.current_names, self.offset)
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return fields[name]

    @functools.cached_property
    def _column_variances(self) -> np.ndarray:
        """Diagonal of the column covariance with zeros for the input pair:
        read-only, and kept for the output's life."""
        variances = np.array([0.0, 0.0] + [v for c in self.clusters
                                           for v in (c.x_variances[0], c.y_variances[0],
                                                     c.x_variances[1], c.y_variances[1])])
        variances.setflags(write=False)
        return variances

    def _input_block(self, input_blocks: Mapping[int, np.ndarray]) -> tuple:
        """The input mode's 2x2 covariance block, vacuum when none is given,
        and its Cholesky factor L = [[l00, 0], [l10, l11]] as rows of Python
        floats.

        The block [[a, b], [c, d]] must be finite, symmetric and positive
        definite, which is checked through the pivots, taken in LAPACK's
        order: l00 = sqrt(a) with a > 0, l10 = b * (1 / l00), and
        l11 = sqrt(d - l10^2) with d - l10^2 > 0.  So L is
        ``np.linalg.cholesky(block)`` bit for bit.
        """
        block = np.asarray(input_blocks.get(self.input_mode, _VACUUM_BLOCK), dtype=float)
        if block.shape != (2, 2):
            raise ValueError("the input covariance block must be 2x2")
        (a, b), (c, d) = entries = block.tolist()
        l00 = math.sqrt(a) if 0.0 < a < math.inf else math.nan
        l10 = b * (1.0 / l00)
        pivot = d - l10 * l10
        if not (b == c and math.isfinite(b) and math.isfinite(d) and pivot > 0.0):
            raise ValueError(f"the input covariance block {entries} is not a finite, "
                             "symmetric positive-definite matrix")
        return block, ((l00, 0.0), (l10, math.sqrt(pivot)))

    def noise_covariance(self) -> np.ndarray:
        """Covariance of the noise the steps add to the output pair."""
        return (self.noise * self._column_variances[2:]).dot(self.noise.T)


# ``exprs`` stays an init field, so dataclasses.replace passes a view on or
# takes a new one; the class attribute that holds the field's default would
# hide the view that __getattr__ builds, so it goes once the class is made.
del GateOutput.exprs


class _BuiltView(tuple):
    """An expression view an output built from its own arrays, which a copy
    made by :func:`dataclasses.replace` does not carry."""


def _row_exprs(quad_rows, first_column, current_rows, names, offsets) -> _BuiltView:
    """Expression view of float array rows; array column c is covariance
    column ``first_column`` + c.  Zero entries are left out, as the
    expression constructor leaves them out."""
    first = int(first_column)  # Python-int keys whatever the input mode's type
    return _BuiltView(LinearQuadratureExpr._from_clean(
        {first + c: v for c, v in enumerate(row) if v},
        {name: v for name, v in zip(names, cur) if v}, off)
        for row, cur, off in zip(quad_rows.tolist(), current_rows.tolist(),
                                 offsets.tolist()))


def _input_mode(input_exprs: tuple) -> tuple:
    """Mode m and offsets [a, b] of an input pair (x_m + a, y_m + b)."""
    if any(e.symbols for e in input_exprs):
        raise ValueError("input expressions carry photocurrent symbols; feed forward "
                         "first, or run all steps in one run_steps call")
    mode = min((col for e in input_exprs for col in e.coeffs), default=0) // 2
    column = _mode_column(mode)
    if [e.coeffs for e in input_exprs] != [{column: 1.0}, {column + 1: 1.0}]:
        raise ValueError("the input must be the (x, y) pair of one mode m with "
                         "optional numeric offsets, (x_m + a, y_m + b)")
    return mode, [e.offset for e in input_exprs]


#: sqrt(2) (X, Y) of node 1 and of node 2 over the cluster's sources
#: (x_m1, y_m1, x_m2, y_m2), entangled through U = (1/sqrt 2)[[1, -i], [i, -1]]:
#: sqrt(2) X1 = x_m1 + y_m2, sqrt(2) Y1 = y_m1 - x_m2,
#: sqrt(2) X2 = -(x_m2 + y_m1), sqrt(2) Y2 = x_m1 - y_m2.
_NODE_1 = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, -1.0, 0.0]])
_NODE_2 = np.array([[0.0, -1.0, -1.0, 0.0], [1.0, 0.0, 0.0, -1.0]])

#: The -sqrt(2) (y_m1, y_m2) term a step adds to its output pair.
_STEP_NOISE = np.array([[0.0, -_SQRT2, 0.0, 0.0], [0.0, 0.0, 0.0, -_SQRT2]])

#: The empty product of gate matrices.
_IDENTITY = np.eye(2)
_IDENTITY.setflags(write=False)

#: diag(-1, 1) as a row-sign column: turns (cos, sin) rows into D sqrt(2).
_PORT_SIGN = np.array([[-1.0], [1.0]])

#: Each step's values in the engine core's flat ``values``: the four gate
#: entries, the trig rows (cos, sin) of theta_in and theta_1, the four
#: current gains, then from ``_BETA_AT`` beta0 once for each of the step's
#: two currents.
_STEP_VALUES, _BETA_AT = 14, 12


@functools.lru_cache(maxsize=64)
def _current_names(k: int) -> tuple:
    """Photocurrent names of a k-step program, in time order."""
    if k == 1:
        return ("i_in", "i_1")
    return tuple(name for j in range(1, k + 1) for name in (f"i_in[{j}]", f"i_1[{j}]"))


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
    This is the engine core :func:`_run_lanes` with one lane.
    """
    k = len(settings)
    if len(clusters) != k or not k:
        raise ValueError("need one cluster per setting, at least one step")
    return _run_lanes((input_exprs,), (clusters,), (settings,), allow_unentangled)[0]


def _run_lanes(inputs: Sequence[tuple], clusters: Sequence[Sequence[TwoNodeCluster]],
               settings: Sequence[Sequence[HomodyneSetting]],
               allow_unentangled: bool) -> list:
    """The engine core: lane l chains ``settings[l]`` on ``clusters[l]``
    from ``inputs[l]``, all lanes in one pass; one :class:`GateOutput` per
    lane.  Every lane has the same step count k >= 1, one cluster a step.

    The lanes are screened in order, and each lane's input and then its
    steps in order, evaluating every step in Python floats; so the first bad
    lane raises what :func:`run_steps` raises for it, after the warnings of
    the lanes and steps before it.  An unentangled-cluster warning names the
    step j, from 1 as in ``i_in[j]``, and the lane l (from 0) when more than
    one lane runs; it points at the caller of :func:`run_steps` or of
    :func:`cvmbqc.multiplex.simulate_pipeline`.  The arrays are then built
    over a leading lane axis, once for all lanes: each lane takes the same
    float operations on the same values as it would alone, so every lane's
    output is bit-identical to its own run_steps call.  The pass builds only
    what every reader needs, ``signal_matrix`` and ``noise``; the outputs
    share an :class:`_EnginePass` record, from which the first read of a
    sampling or feed-forward array builds those arrays of every lane.
    """
    n, k = len(settings), len(settings[0])
    modes, offsets, values = [], [], []
    cos, sin = math.cos, math.sin
    for lane, (lane_input, lane_clusters, lane_settings) in enumerate(
            zip(inputs, clusters, settings)):
        mode, offset = _input_mode(lane_input)
        modes.append(mode)
        offsets += offset
        for step, (cluster, setting) in enumerate(zip(lane_clusters, lane_settings), 1):
            if not cluster.entangled:
                if not allow_unentangled:
                    raise ValueError(
                        f"cluster resource is not entangled (nullifier sum "
                        f"{cluster.vlf_sum()!r} >= VLF_GUARDED_BOUND = "
                        f"{VLF_GUARDED_BOUND!r}); pass allow_unentangled=True to force")
                where = f"step {step} of lane {lane}" if n > 1 else f"step {step}"
                warnings.warn(f"running measurement {where} on an unentangled cluster "
                              "resource", stacklevel=3)
            theta_in, theta_1 = setting.theta_in, setting.theta_1
            s, m00, m01, m10, m11 = _gate_entries(theta_in + theta_1, theta_in - theta_1)
            cin, sin_, c1, s1 = cos(theta_in), sin(theta_in), cos(theta_1), sin(theta_1)
            pref = 1.0 / (setting.beta_0 * _SQRT2 * s)
            values += (m00, m01, m10, m11, cin, sin_, c1, s1,
                       pref * c1, -pref * cin, -pref * s1, pref * sin_,
                       setting.beta_0, setting.beta_0)
    # step j's gate matrix M_j in lane l, (k, n, 2, 2)
    values = np.array(values)
    matrices = _step_arrays(values, n, k)[0]

    suffix = np.empty((k, n, 2, 2))
    suffix[k - 1] = _IDENTITY
    for j in range(k - 1, 0, -1):
        np.matmul(suffix[j], matrices[j], out=suffix[j - 1])
    signal = suffix[0] @ matrices[0]
    noise = (suffix @ _STEP_NOISE).transpose(1, 2, 0, 3).reshape(n, 2, 4 * k)
    names = _current_names(k)
    record = _EnginePass(values, offsets, suffix, signal)
    return [_made_output({
        "signal_matrix": signal[lane], "noise": noise[lane], "current_names": names,
        "input_mode": modes[lane], "settings": tuple(settings[lane]),
        "clusters": tuple(clusters[lane]), "_pass": record, "_lane": lane})
        for lane in range(n)]


def _step_arrays(values: np.ndarray, n: int, k: int) -> tuple:
    """Step j's gate matrix M_j, trig rows T_j and current gains in lane l,
    each (k, n, 2, 2), as views of the engine core's flat ``values``."""
    steps = values.reshape(n, k, _STEP_VALUES)
    return steps[..., :_BETA_AT].reshape(n, k, 3, 2, 2).transpose(2, 1, 0, 3, 4)


class _EnginePass:
    """What one engine pass keeps for the arrays its outputs build on read.

    The pass's flat per-step ``values``, its input offsets (one Python
    float pair per lane), the suffix products M_k ... M_{j+1} of every lane
    and the signal matrices.  The first call of :meth:`lane` builds
    ``classical``, ``offset``, ``measured_rows``, ``measured_offset`` and
    the current scales of every lane at once, with the float operations the
    engine once ran eagerly (the measured rows as every step's node blocks,
    written on two block bands); each lane's arrays are views into those
    stacked arrays.
    """

    __slots__ = ("values", "offsets", "suffix", "signal", "_lanes")

    def __init__(self, values, offsets, suffix, signal):
        self.values, self.offsets, self.suffix, self.signal = values, offsets, suffix, signal
        self._lanes = None

    def _stack(self) -> tuple:
        """The built arrays of every lane, each with a leading lane axis."""
        n, k = self.signal.shape[0], self.suffix.shape[0]
        values = self.values
        _, trig, gains = _step_arrays(values, n, k)
        offsets = np.array(self.offsets).reshape(n, 2, 1)
        # row pair j over (step, 4 sources): node 1 of cluster j on the
        # diagonal, node 2 of cluster j - 1 below it and D_0 over the input.
        # A node block's matmul gives +0.0 where it gives zero (sin theta is
        # 0 only where cos theta is 1); + 0.0 undoes the port sign's -0.0.
        measured_rows = np.zeros((n, 2 * k, 2 + 4 * k))
        blocks = measured_rows[:, :, 2:].reshape(n, k, 2, k, 4)
        steps = np.arange(k)
        blocks[:, steps, :, steps] = trig @ _NODE_1 / 2
        blocks[:, steps[1:], :, steps[:-1]] = _PORT_SIGN * (trig[1:] @ _NODE_2) / 2 + 0.0
        measured_rows[:, :2, :2] = _PORT_SIGN * trig[0] / _SQRT2
        measured_offset = np.zeros((n, 2 * k))
        measured_offset[:, :2] = ((_PORT_SIGN * trig[0]) @ offsets)[..., 0] / _SQRT2
        classical = (self.suffix @ gains).transpose(1, 2, 0, 3).reshape(n, 2, 2 * k)
        offset = (self.signal @ offsets)[..., 0]
        scales = 2.0 * values.reshape(n, k, _STEP_VALUES)[..., _BETA_AT:].reshape(n, 2 * k)
        return classical, offset, measured_rows, measured_offset, scales

    def lane(self, lane: int) -> tuple:
        """Lane ``lane``'s built arrays in ``_BUILT_ON_READ`` order; the
        first call builds those of every lane."""
        if self._lanes is None:
            self._lanes = list(zip(*self._stack()))
        return self._lanes[lane]


def _made_output(fields: dict) -> GateOutput:
    """A :class:`GateOutput` holding ``fields``, made without ``__init__``:
    the engine core's outputs hold views into its stacked arrays, and
    :func:`feed_forward` copies an output's fields."""
    output = object.__new__(GateOutput)
    output.__dict__.update(fields)
    return output


def output_covariance(output: GateOutput,
                      input_blocks: Mapping[int, np.ndarray]) -> np.ndarray:
    """Quantum covariance Q Sigma Q^T of the output pair over the input and
    source modes (vacuum input when ``input_blocks`` has no block for it).

    Q is ``[signal_matrix | noise]``, and Sigma is diagonal outside the input
    pair's 2x2 block B, with the source variances v on the diagonal.  So
    Q Sigma is ``[signal_matrix B | noise diag(v)]``, formed from those two
    blocks without Sigma; every other term of the dense product is an exact
    zero, so the result is the dense Q Sigma Q^T bit for bit.
    """
    signal, noise = output.signal_matrix, output.noise
    block = output._input_block(input_blocks)[0]
    return np.concatenate((signal.dot(block), noise * output._column_variances[2:]),
                          axis=1).dot(np.concatenate((signal, noise), axis=1).T)


def feed_forward(output: GateOutput, currents: Mapping[str, float] | None = None) -> GateOutput:
    """Displace away every classical term from the output expressions.

    After feed-forward both expressions carry a classical offset of exactly
    zero and no photocurrent symbols; the quantum parts are untouched.
    Applying it again is a no-op.  The currents needed are those whose
    ``classical`` column is nonzero; a missing one raises, naming each
    missing current once, in ``current_names`` order.  The corrected output
    shares every other field, and the arrays and variances kept with it, with
    ``output``: it is copied field by field, not rebuilt through
    ``GateOutput.__init__``.  It drops any kept expression view, so its view
    is built from the zeroed arrays on first read.
    """
    currents = currents or {}
    missing = [name for name, used in zip(output.current_names,
                                          output.classical.any(axis=0).tolist())
               if used and name not in currents]
    if missing:
        raise ValueError(f"missing measured currents for feed-forward: {missing}")
    fields = {**output.__dict__, "classical": np.zeros_like(output.classical),
              "offset": np.zeros(2)}
    fields.pop("exprs", None)
    return _made_output(fields)


def sample_currents(output: GateOutput, input_blocks: Mapping[int, np.ndarray],
                    rng: np.random.Generator) -> dict:
    """Draw photocurrent records from their joint Gaussian law.

    The measured quadratures are R q + r0 over the quadrature columns q,
    which are independent apart from the input pair.  So one draw takes
    2 + 4k standard normals z and sets q to L z over the input pair, L the
    Cholesky factor of its block, and to the source standard deviations
    times z over the rest; R q + r0 then has covariance R Sigma R^T by
    construction.  Currents are 2 beta0 times the measured quadratures.
    An input block that is not finite, symmetric and positive definite
    raises ValueError, as it does in :func:`output_covariance`.
    """
    L = np.array(output._input_block(input_blocks)[1])
    variances = output._column_variances
    z = rng.standard_normal(variances.size)
    q = np.concatenate([L.dot(z[:2]), np.sqrt(variances[2:]) * z[2:]])
    measured = output.measured_offset + output.measured_rows.dot(q)
    return dict(zip(output.current_names, (output._current_scales * measured).tolist()))


# ---------------------------------------------------------------------------
# Homodyne conditioning (Schur complement) and the covariance oracle
# ---------------------------------------------------------------------------

#: Smallest eigenvalue of the measured covariance accepted by conditioning.
MEASURED_EIG_MIN = 1e-14

#: Inverse eigenvalues at or below this fraction of the largest are zeroed,
#: numpy's default ``pinv`` cutoff.
PINV_RCOND = 1e-15


def _schur_condition(cov: np.ndarray, P: np.ndarray, kept_idx) -> tuple:
    """Condition a covariance on homodyne results (Schur complement).

    ``P`` holds one measured quadrature per row over the columns of
    ``cov``, and ``kept_idx`` the kept columns.  Returns the gain
    Sigma_km pinv(Sigma_mm), the symmetrised conditioned block
    Sigma_kk - gain Sigma_km^T and Sigma_mm = P cov P^T.  Given outcomes,
    the kept mean moves by gain (outcomes - P mean).

    One eigendecomposition Sigma_mm = V diag(w) V^T serves both the screen
    and the inverse: a smallest eigenvalue below ``MEASURED_EIG_MIN`` is
    rejected as ill-conditioned, and pinv(Sigma_mm) = V diag(1/w) V^T with
    1/w set to zero for w <= ``PINV_RCOND`` max(w), the cutoff of numpy's
    ``pinv``.  Built in pinv's order, this equals
    ``np.linalg.pinv(Sigma_mm, hermitian=True)``, which would decompose
    Sigma_mm a second time.  The kept rows and block are read by basic
    indexing, ``cov[kept_idx]`` and ``[:, kept_idx]``: the oracle's slice
    gives views, an index array gives copies.  Every product is
    ``ndarray.dot``, the same BLAS call as ``@`` with less dispatch.
    """
    sigma_mm = P.dot(cov).dot(P.T)
    w, V = np.linalg.eigh(sigma_mm)  # ascending eigenvalues
    if w[0] < MEASURED_EIG_MIN:
        raise ValueError(f"ill-conditioned measured variance (< {MEASURED_EIG_MIN:g})")
    # descending and multiplied in pinv's order, so the inverse rounds as pinv's does
    w, V = w[::-1], V[:, ::-1]
    inv_w = 1.0 / w
    inv_w[w <= PINV_RCOND * w[0]] = 0.0
    cov_kept = cov[kept_idx]
    sigma_km = cov_kept.dot(P.T)
    gain = sigma_km.dot(V.dot(inv_w[:, None] * V.T))
    cov_cond = cov_kept[:, kept_idx] - gain.dot(sigma_km.T)
    return gain, 0.5 * (cov_cond + cov_cond.T), sigma_mm


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


#: Columns of the surviving cluster node (mode 2) in the joint state.
_KEPT_NODE = slice(4, 6)


def _joint_cov(input_cov: np.ndarray, cluster: TwoNodeCluster) -> np.ndarray:
    """Covariance S J S^T of the three modes after cluster generation and
    the mixing beam splitter, checked as a state's is.

    Mode 0 is the difference port, mode 1 the sum port, mode 2 the surviving
    cluster node.  J holds the 2x2 input block and the uncorrelated source
    variances; S is built entirely from symplectic matrix maps, so this is
    the path independent of the gate engine's arrays.  The result must pass
    the relative symmetry check of :class:`GaussianState`.
    """
    input_cov = np.asarray(input_cov, dtype=float)
    if input_cov.shape != (2, 2):
        raise ValueError("input covariance must be 2x2")
    u1, u2 = cluster.x_variances
    v1, v2 = cluster.y_variances
    joint = np.zeros((6, 6))
    joint[:2, :2] = input_cov
    joint[2, 2], joint[3, 3], joint[4, 4], joint[5, 5] = u1, v1, u2, v2
    S = _step_symplectic()
    cov = S.dot(joint).dot(S.T)
    _check_symmetric(cov)
    return cov


def _gains(setting: HomodyneSetting, cin: float, sin_: float, c1: float,
           s1: float) -> np.ndarray:
    """Feed-forward gains in measured-quadrature units (current = 2 beta0 q),
    from cos and sin of theta_in and theta_1, which the oracle has computed
    once for its measured rows."""
    sm = math.sin(setting.theta_minus)
    if abs(sm) <= DEGENERACY_TOL:
        raise DegenerateHomodynePhasesError("degenerate homodyne phases")
    return (_SQRT2 / sm) * np.array([[c1, -cin], [-s1, sin_]])


def single_step_covariance_oracle(input_cov: np.ndarray, cluster: TwoNodeCluster,
                                  setting: HomodyneSetting) -> np.ndarray:
    """Output covariance of one step, via conditioning instead of gate algebra.

    Conditions the joint covariance of :func:`_joint_cov` on the two
    homodyne results (Schur complement), then restores the outcome scatter
    left by the fixed feed-forward gains (law of total covariance):

        Sigma_out = Sigma_cond + (G* - G) Sigma_mm (G* - G)^T

    with G* the conditional-mean gains and G the protocol gains.  Works on
    the arrays alone: the measured rows read theta_in on the difference
    port and theta_1 on the sum port, and the kept columns are the
    surviving node's.  Agrees with the gate engine to floating-point
    accuracy.  In exact arithmetic the result does not depend on the
    anti-squeezed (x) source variances, but in floating point the
    conditioning cancels them, and the residual against the engine grows
    with them: for theta_in = 0.9, theta_1 = 0.2 and y variances 0.05 the
    CLI's ``oracle_agreement`` reads 1.8e-13 at ``excess_factor`` 1e3,
    4.1e-10 at 1e6, 6.1e-8 at 1e8 (above ``STEP_ORACLE_TOL``) and 2.1e4 at
    1e20.  ROADMAP item 8 holds the scaled bound.
    """
    joint = _joint_cov(input_cov, cluster)
    trig = (math.cos(setting.theta_in), math.sin(setting.theta_in),
            math.cos(setting.theta_1), math.sin(setting.theta_1))
    P = np.zeros((2, 6))
    P[0, 0], P[0, 1], P[1, 2], P[1, 3] = trig
    gain, cov_cond, sigma_mm = _schur_condition(joint, P, _KEPT_NODE)
    D = gain - _gains(setting, *trig)
    return cov_cond + D.dot(sigma_mm).dot(D.T)


# ---------------------------------------------------------------------------
# Phase solving: invert the two-step composition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseSolution:
    """Two homodyne settings realizing a target determinant-one matrix."""

    setting_1: HomodyneSetting
    setting_2: HomodyneSetting
    residual: float


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


def solve_phases(target: np.ndarray, *, beta_0: float = DEFAULT_BETA_0) -> PhaseSolution:
    """Find settings with gate(setting_2) @ gate(setting_1) = target.

    Uses the rotation form of the one-step gate,
    M(tp, tm) = R(-tp/2) diag(a, 1/a) R(-tp/2) with a = cot(tm/2): writing
    the target as R(A) diag(s, 1/s) R(B) (signed SVD, s the larger singular
    value), the pair

        step 1: tp = -2B, tm = 2*atan2(1, s)      (= R(B) diag(s,1/s) R(B))
        step 2: tp = B - A, tm = pi/2             (pure rotation R(A - B))

    solves the problem in closed form, to a residual of order eps * s
    (about 1e-10 at s = 1e5).  A residual above ``PHASE_RESIDUAL_TOL`` raises
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
    if residual > PHASE_RESIDUAL_TOL:
        raise PhaseSolveError(f"target not reached: residual {residual:.3e} "
                              f"exceeds {PHASE_RESIDUAL_TOL:g}")
    return PhaseSolution(q1, q2, residual)


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
