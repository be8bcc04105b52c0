"""Designed, light-induced decoherence on a microwave-driven hyperfine qubit."""

__version__ = "0.1.0"

from .model import (
    TWO_PI_KHZ,
    EffectiveRates,
    PhysicalParams,
    ScatteringRates,
    effective_rates,
    excited_population,
    lorentzian,
    saturation_probability,
    scattering_rates,
    steady_state,
)
from .dynamics import (
    SystemState,
    TimeSeries,
    generator,
    integrate,
)
from .protocol import (
    AccumulatedCurve,
    DetectionModel,
    ProtocolConfig,
    TrajectoryBatch,
    accumulate,
    replay,
    run_trajectories,
)
from .fitting import NutationFit, effective_from_fit, fit_nutation, invert_saturation
from .design import DesignTarget, design_decoherence, verify_design
from .config import RunConfig
