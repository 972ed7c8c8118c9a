"""Gaussian one-way quantum computation on two-node cluster ensembles.

The package models the full chain from pulsed amplitude-squeezed lasers to
universal single-mode Gaussian gates and a two-mode entangling gate:

* :mod:`cvmbqc.quadrature` - quadrature algebra, symplectic maps, Gaussian
  states, uncertainty checks;
* :mod:`cvmbqc.cluster` - graph cluster states, nullifiers, squeezing
  thresholds, the two-node inseparability criterion;
* :mod:`cvmbqc.laser` - pulse-train correlation functions and spectral
  variances of the squeezed light;
* :mod:`cvmbqc.gates` - homodyne measurement steps, feed-forward, phase
  solving, and the beam-splitter-sandwich entangling gate;
* :mod:`cvmbqc.multiplex` - delay lines, the loop switch, parallel lanes;
* :mod:`cvmbqc.runner` - the config-driven command line.
"""

from .quadrature import (
    GaussianState,
    LinearQuadratureExpr,
    UncertaintyReport,
    VACUUM_VARIANCE,
    check_uncertainty,
    db_to_variance,
    embed,
    expr_covariance,
    omega_matrix,
    variance_to_db,
    x_quad,
    y_quad,
)
from .cluster import (
    ClusterGraph,
    VLF_BOUND,
    VlfResult,
    cluster_unitary,
    default_two_node_q,
    generate_cluster,
    min_squeezing_threshold,
    nullifiers,
    vlf_two_node_check,
)
from .laser import (
    DivergentAntisqueezingError,
    PulseTrain,
    x_spectral_variance,
    y_correlation,
    y_spectral_variance,
    y_spectral_variance_oracle,
)
from .gates import (
    CZ_MATRIX,
    DegenerateHomodynePhasesError,
    GateOutput,
    HomodyneSetting,
    PhaseSolveError,
    PhaseSolution,
    TwoModeCoefficients,
    TwoNodeCluster,
    canonical_cz_coefficients,
    cz_transform,
    feed_forward,
    gate_matrix,
    output_covariance,
    run_steps,
    sample_currents,
    single_step_covariance_oracle,
    solve_phases,
)
from .multiplex import (
    DelayedVlf,
    LaneCollisionError,
    PipelineResult,
    admissible_frequencies,
    delayed_vlf,
    simulate_pipeline,
)

__version__ = "0.1.0"
