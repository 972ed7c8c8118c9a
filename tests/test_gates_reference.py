"""Bit-identity of the covariance oracle against its earlier per-object form.

The references below are the earlier code, kept verbatim: the oracle as
``step_joint_state`` -> ``condition_homodyne`` -> ``protocol_gains`` over
``GaussianState`` objects, with its own copy of ``protocol_gains`` (since
removed), so a fault in the library's gains, ``gates._gains``, cannot move
both sides alike.  The earlier ``condition_homodyne`` is
``test_gates.reference_condition_eigh``, which checks the array-level
``gates._schur_condition`` bit for bit too.  The oracle now builds the joint
covariance and conditions it through one array-level Schur core, with the
same float operations in the same order, so every output must be equal bit
for bit, and every error must keep its type and message.
"""

import math

import numpy as np
import pytest

from cvmbqc import gates
from cvmbqc.gates import (
    DEGENERACY_TOL,
    DegenerateHomodynePhasesError,
    HomodyneSetting,
    TwoNodeCluster,
    single_step_covariance_oracle,
)
from cvmbqc.quadrature import GaussianState
from test_gates import joint_state, reference_condition_eigh


# ---------------------------------------------------------------------------
# References: the earlier code
# ---------------------------------------------------------------------------

def reference_joint_state(input_cov, cluster):
    """``step_joint_state`` (since removed) before the shared covariance builder."""
    input_cov = np.asarray(input_cov, dtype=float)
    if input_cov.shape != (2, 2):
        raise ValueError("input covariance must be 2x2")
    u1, u2 = cluster.x_variances
    v1, v2 = cluster.y_variances
    joint = np.zeros((6, 6))
    joint[:2, :2] = input_cov
    diag = np.arange(2, 6)
    joint[diag, diag] = (u1, v1, u2, v2)
    S = gates._step_symplectic()
    return GaussianState(np.zeros(6), S @ joint @ S.T)


_SQRT2 = math.sqrt(2.0)


def reference_protocol_gains(setting):
    """``protocol_gains`` before the oracle shared its cos and sin with it."""
    sm = math.sin(setting.theta_minus)
    if abs(sm) <= DEGENERACY_TOL:
        raise DegenerateHomodynePhasesError("degenerate homodyne phases")
    cin, sin_ = math.cos(setting.theta_in), math.sin(setting.theta_in)
    c1, s1 = math.cos(setting.theta_1), math.sin(setting.theta_1)
    return (_SQRT2 / sm) * np.array([[c1, -cin], [-s1, sin_]])


def library_gains(setting):
    """``gates._gains`` from the setting's cos and sin, as the oracle calls it."""
    return gates._gains(setting, math.cos(setting.theta_in), math.sin(setting.theta_in),
                        math.cos(setting.theta_1), math.sin(setting.theta_1))


def reference_oracle(input_cov, cluster, setting):
    """``single_step_covariance_oracle`` through the state objects."""
    joint = reference_joint_state(input_cov, cluster)
    state, _, _, gain, sigma_mm = reference_condition_eigh(
        joint, {0: setting.theta_in, 1: setting.theta_1})
    D = gain - reference_protocol_gains(setting)
    return state.cov + D @ sigma_mm @ D.T


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

#: theta- ranges: pi/2 +- 0.3 as in realistic programs, then wider ones
#: where long chains grow their covariance entries past 1e18 and the
#: oracle can reject an ill-conditioned measured block.
THETA_MINUS = {"realistic": (math.pi / 2 - 0.3, math.pi / 2 + 0.3),
               "wide": (0.3, 2.8),
               "wider": (0.1, math.pi - 0.1)}


def chain_settings(rng, k, family):
    """theta+ ~ U(-pi, pi), theta- uniform over ``THETA_MINUS[family]``,
    beta_0 log-uniform over 1e-3..1e9 per step."""
    tp = rng.uniform(-math.pi, math.pi, k)
    tm = rng.uniform(*THETA_MINUS[family], k)
    betas = 10.0 ** rng.uniform(-3.0, 9.0, k)
    return [HomodyneSetting((p + m) / 2, (p - m) / 2, b) for p, m, b in zip(tp, tm, betas)]


def random_clusters(rng, k):
    return [TwoNodeCluster.from_y_variances(*rng.uniform(0.01, 0.12, 2),
                                            rng.uniform(1.0, 20.0))
            for _ in range(k)]


def random_input_cov(rng):
    a, b = rng.uniform(0.1, 2.0, size=2)
    c = rng.uniform(-0.9, 0.9) * math.sqrt(a * b)
    return np.array([[a, c], [c, b]])


def outcome(fn, *args, **kwargs):
    """("ok", result) or ("raised", exception type, message)."""
    try:
        return ("ok", fn(*args, **kwargs))
    except Exception as exc:  # the type and message are what is compared
        return ("raised", type(exc), str(exc))


CHAIN_CASES = [(k, family, seed) for k in (1, 2, 8, 16, 32, 48)
               for family in THETA_MINUS for seed in range(3)]


def chain_rng(k, family, seed):
    return np.random.default_rng([k, list(THETA_MINUS).index(family), seed])


# ---------------------------------------------------------------------------
# The oracle and its conditioning core
# ---------------------------------------------------------------------------

class TestOracleBitIdentical:
    @pytest.mark.parametrize("k,family,seed", CHAIN_CASES)
    def test_chained_oracle(self, k, family, seed):
        # the chain feeds each output to the next step, so equal outputs
        # keep the two sides on equal inputs; wide chains can leave the
        # range where the oracle is defined, and then both must raise alike
        rng = chain_rng(k, family, seed)
        settings = chain_settings(rng, k, family)
        clusters = random_clusters(rng, k)
        ref = new = random_input_cov(rng)
        for cluster, setting in zip(clusters, settings):
            expected = outcome(reference_oracle, ref, cluster, setting)
            got = outcome(single_step_covariance_oracle, new, cluster, setting)
            if expected[0] == "raised":
                assert got == expected
                return
            assert got[0] == "ok" and np.array_equal(got[1], expected[1])
            ref, new = expected[1], got[1]

    def test_wide_chains_reach_the_raising_range(self):
        # without a raising chain the comparison of errors above shows nothing
        raised = 0
        for k, family, seed in CHAIN_CASES:
            rng = chain_rng(k, family, seed)
            settings = chain_settings(rng, k, family)
            clusters = random_clusters(rng, k)
            cov = random_input_cov(rng)
            try:
                for cluster, setting in zip(clusters, settings):
                    cov = reference_oracle(cov, cluster, setting)
            except ValueError:
                raised += 1
        assert raised >= 1

    @pytest.mark.parametrize("seed", range(4))
    def test_joint_state(self, seed):
        rng = np.random.default_rng(seed)
        for cluster in random_clusters(rng, 20):
            cov = random_input_cov(rng)
            ref, new = reference_joint_state(cov, cluster), joint_state(cov, cluster)
            assert np.array_equal(new.cov, ref.cov) and np.array_equal(new.mean, ref.mean)

    TINY = TwoNodeCluster((1e-16, 1e-16), (1e-16, 1e-16))
    CLUSTER = TwoNodeCluster.from_y_variances(0.05, 0.05, 10.0)

    @pytest.mark.parametrize("input_cov,cluster,setting,error,message", [
        (np.eye(3), CLUSTER, HomodyneSetting(0.9, 0.2), ValueError,
         "input covariance must be 2x2"),
        (np.eye(2).ravel(), CLUSTER, HomodyneSetting(0.9, 0.2), ValueError,
         "input covariance must be 2x2"),
        (np.array([[1.0, 0.5], [0.2, 1.0]]), CLUSTER, HomodyneSetting(0.9, 0.2),
         ValueError, "covariance must be symmetric"),
        # a zero input and sources of 1e-16 leave Sigma_mm near zero
        (np.zeros((2, 2)), TINY, HomodyneSetting(0.9, 0.2), ValueError,
         "ill-conditioned measured variance (< 1e-14)"),
        # a zero input at theta_in = theta_1 measures one quadrature twice:
        # the singular block is reported before the degenerate phases
        (np.zeros((2, 2)), CLUSTER, HomodyneSetting(0.7, 0.7), ValueError,
         "ill-conditioned measured variance (< 1e-14)"),
        # a vacuum input keeps Sigma_mm regular at theta_in = theta_1, so
        # the degenerate gains are what raise
        (0.25 * np.eye(2), CLUSTER, HomodyneSetting(0.7, 0.7),
         DegenerateHomodynePhasesError, "degenerate homodyne phases"),
        (0.25 * np.eye(2), CLUSTER, HomodyneSetting(0.7, 0.7 + math.pi),
         DegenerateHomodynePhasesError, "degenerate homodyne phases"),
    ], ids=["3x3", "flat", "asymmetric", "ill-conditioned", "singular-and-degenerate",
            "degenerate", "degenerate-pi"])
    def test_error_paths(self, input_cov, cluster, setting, error, message):
        expected = outcome(reference_oracle, input_cov, cluster, setting)
        assert expected == ("raised", error, message)
        assert outcome(single_step_covariance_oracle, input_cov, cluster, setting) == expected


class TestProtocolGainsBitIdentical:
    #: |sin(theta_minus)| at 0, at pi, just inside and just outside DEGENERACY_TOL
    EDGES = [HomodyneSetting(0.7, 0.7), HomodyneSetting(0.7, 0.7 + math.pi),
             HomodyneSetting(0.3 + 5e-10, 0.3), HomodyneSetting(0.3 + 2e-9, 0.3)]

    @pytest.mark.parametrize("k,family,seed", CHAIN_CASES)
    def test_chain_settings(self, k, family, seed):
        # bytes, so the signs of zeros count too
        for setting in chain_settings(chain_rng(k, family, seed), k, family):
            expected = reference_protocol_gains(setting)
            assert library_gains(setting).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("setting,raises", zip(EDGES, (True, True, True, False)),
                             ids=["zero", "pi", "inside-tol", "outside-tol"])
    def test_degeneracy_edges(self, setting, raises):
        expected = outcome(reference_protocol_gains, setting)
        assert (expected[0] == "raised") is raises
        got = outcome(library_gains, setting)
        if raises:
            assert got == expected == ("raised", DegenerateHomodynePhasesError,
                                       "degenerate homodyne phases")
        else:
            assert got[0] == "ok" and got[1].tobytes() == expected[1].tobytes()
