"""Confidence-width uncertainty functionals for joint position-momentum
measurements on a discretized line."""

from .grids import (
    GridMeasure,
    GridSpec,
    Interval,
    centered_width,
    convolve,
    gaussian_measure,
    mass,
    overall_width,
    point_mass,
    reflect,
    uniform_measure,
)
from .states import (
    MixedState,
    WaveFunction,
    box_state,
    gaussian_state,
    momentum_box_state,
    momentum_distribution,
    momentum_grid,
    momentum_point_state,
    parity,
    point_state,
    position_distribution,
    superpose,
    weyl_displace,
)
from .observables import (
    Kernel,
    PhaseSpaceObservable,
    PiecewiseLinearMap,
    WarpMap,
    covariance_residual,
    joint_distribution,
    marginal_measures,
)
from .metrology import (
    CalibrationConfig,
    ConfidencePair,
    WidthReport,
    bound_simple,
    bound_uffink,
    verify_joint_ur,
    werner_distance_covariant,
    werner_distance_lower_bound,
)

__version__ = "0.1.0"
