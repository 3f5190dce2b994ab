"""Every value type of the package is a frozen dataclass: no field can be
reassigned, and the types that hold arrays compare by identity."""

import inspect
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from uncert import cli, grids, metrology, observables, states
from uncert.grids import GridMeasure, GridSpec, Interval, point_mass
from uncert.metrology import CalibrationConfig, ConfidencePair, WidthReport
from uncert.observables import (
    JointDistribution,
    Kernel,
    PhaseSpaceObservable,
    PiecewiseLinearMap,
    WarpMap,
)
from uncert.states import MixedState, WaveFunction, gaussian_state, momentum_grid

GRID = GridSpec.symmetric(12.8, 256)
PGRID = momentum_grid(GRID, 1.0)
IDENTITY = PiecewiseLinearMap((0.0, 1.0), (0.0, 1.0))

# one builder per value type; each call builds a new value from the same inputs
BUILDERS = {
    GridSpec: lambda: GridSpec.symmetric(12.8, 256),
    Interval: lambda: Interval(0.0, 1.0),
    GridMeasure: lambda: point_mass(0.0, GRID),
    WaveFunction: lambda: gaussian_state(0.0, 0.0, 1.0, GRID),
    MixedState: lambda: MixedState.pure(gaussian_state(0.0, 0.0, 1.0, GRID)),
    ConfidencePair: lambda: ConfidencePair(0.1, 0.2),
    CalibrationConfig: lambda: CalibrationConfig((0.4, 0.2), (0.0,), GRID),
    WidthReport: lambda: WidthReport(*(0.0 for _ in fields(WidthReport))),
    Kernel: lambda: Kernel("q", point_mass(0.0, GRID)),
    PiecewiseLinearMap: lambda: PiecewiseLinearMap((0.0, 1.0), (0.0, 1.0)),
    WarpMap: lambda: WarpMap(IDENTITY, IDENTITY),
    PhaseSpaceObservable: lambda: PhaseSpaceObservable(
        MixedState.pure(gaussian_state(0.0, 0.0, 1.0, GRID)), GRID, PGRID),
    JointDistribution: lambda: JointDistribution(GRID, PGRID, np.zeros((2, 2))),
}


def test_every_value_type_is_built_here():
    defined = {cls for mod in (cli, grids, metrology, observables, states)
               for cls in vars(mod).values()
               if inspect.isclass(cls) and is_dataclass(cls) and cls.__module__ == mod.__name__}
    assert defined == set(BUILDERS)


@pytest.mark.parametrize("cls", BUILDERS, ids=lambda cls: cls.__name__)
def test_value_types_are_immutable(cls):
    a, b = BUILDERS[cls](), BUILDERS[cls]()
    for f in fields(a):
        with pytest.raises(AttributeError):  # dataclasses.FrozenInstanceError is one
            setattr(a, f.name, getattr(b, f.name))
    if cls in (GridMeasure, WaveFunction, MixedState):
        # equal arrays, yet two values: Kernel's hash and verify's kernel
        # dedupe key on the measure, so equality and hashing are by identity
        assert a != b and hash(a) != hash(b)
