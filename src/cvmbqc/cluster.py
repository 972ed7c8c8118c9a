"""Cluster-state construction and entanglement criteria for graph states.

A cluster topology is a simple graph with adjacency matrix A.  The
entangling unitary U = (I + iA)(I + A^2)^(-1/2) Q maps a vector of
squeezed-mode amplitudes x_j + i*y_j onto cluster-mode amplitudes
X_j + i*Y_j; Q is an arbitrary orthogonal matrix that changes the
preparation circuit but not the nullifier statistics when the sources are
squeezed equally.  Cluster quality is measured through the nullifiers
N_j = Y_j - sum_i A_ji X_i, and two-node inseparability through the
criterion  var(N_1) + var(N_2) < 1/2  (strict).

Everything here works on the adjacency and covariance arrays: edges and
degrees come from the adjacency matrix, the cluster covariance
S diag(d) S^T is one symmetric product B B^T with B = S diag(sqrt(d)), and
the two-node check reads six entries of the two nodes' 4x4 block.
Nullifiers are returned as ``LinearQuadratureExpr`` objects, each built
from a single coefficient map keyed by covariance column (x_i is 2i, y_j is
2j + 1), without expression arithmetic.

A graph is immutable: its adjacency is a read-only copy of the caller's
array.  So the parts that depend on the graph alone, the Q-free map
(I + iA)(I + A^2)^(-1/2), the nullifier tuple, the edge tuple and the
minimum edge threshold, are computed once per graph object, on first use,
and kept: the map is returned as a read-only array, the nullifiers as the
kept tuple, the edges as a new list on each call.  An edgeless graph keeps
no threshold; asking for it raises on every call.  A sweep over source
variances on one graph pays for them once; what depends on the variances
or on a given Q is computed on every call.

Q = None means the identity, and the product with it is skipped.  The
output bits are fixed by a few operations, kept as they are: the
eigendecomposition of I + A^2, the real product (V / sqrt(w)) V^T, the
complex product (I + iA) @ (I + A^2)^(-1/2), the product with a given Q,
the column scaling B = S * sqrt(d), the symmetric product B @ B^T (one
triangle formed and mirrored, so the covariance is exactly symmetric), and
the order in which the two-node check subtracts its six entries.  Skipping
the product with I changes no covariance bit; it can change only the sign
of a zero in U.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .quadrature import GaussianState, LinearQuadratureExpr, _partner_variance

#: Two-node inseparability bound: the nullifier-variance sum must be below 1/2.
VLF_BOUND = 0.5

#: Classification guard absorbing matrix-product rounding (~1 ulp of the sum):
#: sums within this distance below the bound classify as boundary cases, i.e.
#: not entangled, keeping the inequality strict for states generated exactly
#: on the threshold.
VLF_GUARD = 1e-12

#: The bound a two-node nullifier sum must stay strictly below to count as
#: entangled: VLF_BOUND less VLF_GUARD.
VLF_GUARDED_BOUND = VLF_BOUND - VLF_GUARD

_UNITARY_TOL = 1e-12
_ORTHOGONAL_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class ClusterGraph:
    """Simple graph given by a symmetric 0/1 adjacency matrix, zero diagonal.

    The adjacency is stored as a read-only integer copy, so the graph cannot
    change after it is built and what is derived from it can be kept.
    Graphs compare and hash by identity, as their per-object caches do.
    """

    adjacency: np.ndarray

    def __post_init__(self):
        adj = np.asarray(self.adjacency)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1] or adj.shape[0] < 1:
            raise ValueError("adjacency must be a square matrix with n >= 1")
        if not np.array_equal(adj, adj.astype(bool).astype(adj.dtype)):
            raise ValueError("adjacency entries must be 0 or 1")
        if np.any(np.diag(adj) != 0):
            raise ValueError("adjacency diagonal must be zero")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        adj = adj.astype(int)
        adj.flags.writeable = False
        object.__setattr__(self, "adjacency", adj)

    @property
    def n_nodes(self) -> int:
        return self.adjacency.shape[0]

    def degree(self, node: int) -> int:
        return int(self.adjacency[node].sum())

    def edges(self):
        """Edges (i, j) with i < j as Python ints, in row-major order.

        The edges are kept per graph; each call returns a new list of them.
        """
        return list(self._edges)

    @cached_property
    def _edges(self) -> tuple:
        rows, cols = np.nonzero(np.triu(self.adjacency, 1))
        return tuple(zip(rows.tolist(), cols.tolist()))

    @cached_property
    def _min_squeezing_threshold(self) -> float:
        """Kept once computed; an edgeless graph raises and keeps nothing."""
        if not self._edges:
            raise ValueError("threshold undefined: the graph has no edges")
        rows, cols = np.array(self._edges).T
        deg = self.adjacency.sum(axis=1)
        return float(np.min(1.0 / (2 + deg[rows] + deg[cols])))

    @cached_property
    def _entangling_map(self) -> np.ndarray:
        """The checked Q-free map (I + iA)(I + A^2)^(-1/2), read-only.

        Filled on first use; a fill that raises keeps nothing.
        """
        n = self.n_nodes
        adj = self.adjacency.astype(float)
        w, V = np.linalg.eigh(np.eye(n) + adj @ adj)
        inv_sqrt = (V * (1.0 / np.sqrt(w))) @ V.T
        U = (np.eye(n) + 1j * adj) @ inv_sqrt
        _check_unitary(U)
        U.flags.writeable = False
        return U

    @cached_property
    def _nullifiers(self) -> tuple:
        """The nullifier expressions, built on first use (see :func:`nullifiers`)."""
        out = []
        for j, row in enumerate(self.adjacency):
            coeffs = {2 * j + 1: 1.0}
            for i in np.flatnonzero(row).tolist():
                coeffs[2 * i] = -1.0
            out.append(LinearQuadratureExpr(coeffs))
        return tuple(out)

    @classmethod
    def from_text(cls, text: str) -> "ClusterGraph":
        """Parse a dense adjacency matrix: rows of whitespace-separated 0/1.

        Rows are separated by newlines or semicolons.
        """
        rows = [r.strip() for r in text.replace(";", "\n").splitlines() if r.strip()]
        if not rows:
            raise ValueError("empty adjacency text")
        try:
            adj = [[int(tok) for tok in row.split()] for row in rows]
        except ValueError:
            raise ValueError("adjacency entries must be the integers 0 or 1") from None
        if len({len(row) for row in adj}) > 1:
            raise ValueError("adjacency rows have unequal length")
        return cls(np.array(adj))

    @classmethod
    def two_node(cls) -> "ClusterGraph":
        return cls(np.array([[0, 1], [1, 0]]))

    @classmethod
    def chain(cls, n: int) -> "ClusterGraph":
        adj = np.zeros((n, n), dtype=int)
        for i in range(n - 1):
            adj[i, i + 1] = adj[i + 1, i] = 1
        return cls(adj)

    @classmethod
    def star(cls, n: int) -> "ClusterGraph":
        adj = np.zeros((n, n), dtype=int)
        adj[0, 1:] = adj[1:, 0] = 1
        return cls(adj)


def _check_orthogonal(q: np.ndarray, n: int) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.shape != (n, n):
        raise ValueError("orthogonal matrix dimension does not match the graph")
    if np.max(np.abs(q.T @ q - np.eye(n))) > _ORTHOGONAL_TOL:
        raise ValueError("Q is not orthogonal within tolerance")
    return q


def _check_unitary(U: np.ndarray) -> None:
    if np.max(np.abs(U @ U.conj().T - np.eye(U.shape[0]))) > _UNITARY_TOL:
        raise ValueError("constructed matrix failed the unitarity check")


def default_two_node_q() -> np.ndarray:
    """Orthogonal freedom matching the two-source experimental layout."""
    return np.diag([1.0, -1.0])


def cluster_unitary(graph: ClusterGraph, q: np.ndarray | None = None) -> np.ndarray:
    """Entangling unitary U = (I + iA)(I + A^2)^(-1/2) Q.

    The inverse square root is taken by eigendecomposition of the symmetric
    positive-definite matrix I + A^2 (its spectrum is bounded below by 1,
    so the construction is always well conditioned), as (V / sqrt(w)) V^T.
    The output bits are fixed by the eigendecomposition, the real product
    (V / sqrt(w)) V^T, the complex product (I + iA) @ inv_sqrt and the
    product with Q; U is checked to be unitary.  The covariance that
    :func:`generate_cluster` builds on U takes its bits from these and from
    its own symmetric product B @ B^T.

    ``q=None`` means Q = I: the product with it is skipped, and the Q-free
    map, computed and checked once per graph, is returned shared and
    read-only.  A given Q must be orthogonal; it multiplies that map from
    the right on every call, and the product, a new array, is checked again.
    """
    if q is None:
        return graph._entangling_map
    q = _check_orthogonal(q, graph.n_nodes)
    U = graph._entangling_map @ q
    _check_unitary(U)
    return U


def _real_form(U: np.ndarray) -> np.ndarray:
    """Real 2n x 2n form of a mode unitary acting on x_j + i*y_j.

    X' = Re(U) X - Im(U) Y and Y' = Im(U) X + Re(U) Y; for a unitary U the
    result is both symplectic and orthogonal.  U is not checked here: its
    callers hold U from :func:`cluster_unitary`, which has checked it.
    """
    n = U.shape[0]
    S = np.empty((2 * n, 2 * n))
    S[0::2, 0::2] = U.real
    S[0::2, 1::2] = -U.imag
    S[1::2, 0::2] = U.imag
    S[1::2, 1::2] = U.real
    return S


def nullifiers(graph: ClusterGraph) -> tuple:
    """Nullifier expressions N_j = Y_j - sum_i A_ji X_i over cluster modes.

    Each expression is built from one coefficient map read off the
    adjacency row: +1 on column 2j + 1 (y_j) and -1 on column 2i (x_i) for
    every neighbour i.  The tuple is built once per graph and returned
    shared; its expressions are immutable by convention.
    """
    return graph._nullifiers


def min_squeezing_threshold(graph: ClusterGraph) -> float:
    """Largest admissible source y variance: min over edges of 1/(2 + deg_i + deg_j).

    The value is kept per graph.  A graph without edges has no threshold:
    every call raises ValueError.
    """
    return graph._min_squeezing_threshold


def generate_cluster(source_y_variances: Sequence[float],
                     graph: ClusterGraph,
                     q: np.ndarray | None = None,
                     source_x_variances: Sequence[float] | None = None) -> GaussianState:
    """Cluster state from independently squeezed sources.

    One y variance per node; x variances default to the minimum-uncertainty
    partner 1/(16 * v_y).  For the two-node graph Q defaults to diag(1, -1),
    matching the beam-splitter-and-phase-shifter preparation; otherwise Q
    defaults to the identity.

    The covariance S diag(d) S^T, with S the real form of U and d the
    interleaved source variances, is formed as B @ B^T with
    B = S * sqrt(d).  That symmetric product fixes the output bits: one
    triangle is computed and mirrored, so the covariance is exactly
    symmetric, and it differs from the general product (S * d) @ S^T only
    by rounding, a few ulps of its largest entry.
    """
    n = graph.n_nodes
    vy = [float(v) for v in source_y_variances]
    if len(vy) != n:
        raise ValueError("need one source y variance per node")
    if any(v <= 0 for v in vy):
        raise ValueError("source variances must be positive")
    if source_x_variances is None:
        vx = [_partner_variance(v) for v in vy]
    else:
        vx = [float(v) for v in source_x_variances]
        if len(vx) != n or any(v <= 0 for v in vx):
            raise ValueError("invalid source x variances")
    # interleaved source variances (vx_0, vy_0, vx_1, ...); the partner
    # 1 / (16 vy) is inf for a subnormal vy and 0 once 16 vy overflows
    d = np.empty(2 * n)
    d[0::2] = vx
    d[1::2] = vy
    if not np.all((d > 0) & (d < np.inf)):
        raise ValueError("quadrature variances must be positive and finite")
    if q is None and n == 2:
        q = default_two_node_q()
    # scaled in place, so one 2n x 2n array is live; numpy hands the
    # product of a C-contiguous array with its own transpose to BLAS syrk:
    # half the flops of a general product
    B = _real_form(cluster_unitary(graph, q))
    B *= np.sqrt(d)
    return GaussianState(np.zeros(2 * n), B @ B.T)


@dataclass(frozen=True, slots=True)
class VlfResult:
    """Two-node inseparability check: nullifier-variance sum and verdict."""

    nullifier_sum: float
    entangled: bool


def vlf_two_node_check(state: GaussianState, node_pair=(0, 1)) -> VlfResult:
    """Pairwise inseparability: var(Y_i - X_j) + var(Y_j - X_i) < 1/2, strict.

    Boundary values classify as not entangled; sums within VLF_GUARD of the
    bound count as boundary so that rounding in the state construction cannot
    flip the strict verdict.  Node indices must be integers (numpy integers
    included).
    """
    i, j = node_pair
    try:
        i, j = operator.index(i), operator.index(j)
    except TypeError:
        raise ValueError("invalid node pair") from None
    n = state.cov.shape[0] // 2
    if not (0 <= i < n and 0 <= j < n) or i == j:
        raise ValueError("invalid node pair")
    # the two nullifier variances from six covariance entries, each summed
    # in the order of the rows (0, 1, -1, 0) and (-1, 0, 0, 1) applied to
    # the (x_i, y_i, x_j, y_j) block from both sides
    xi, yi, xj, yj = 2 * i, 2 * i + 1, 2 * j, 2 * j + 1
    c = state.cov.item
    total = (((c(yi, yi) - c(xj, yi)) - (c(yi, xj) - c(xj, xj)))
             + ((c(yj, yj) - c(xi, yj)) - (c(yj, xi) - c(xi, xi))))
    return VlfResult(total, total < VLF_GUARDED_BOUND)
