"""Confidence-width uncertainty functionals for joint position-momentum
measurements on a discretized line."""

from . import grids, states, observables, metrology

__version__ = "0.1.0"
