"""Semi-analytic simulator of Schrodinger-Newton self-gravity acting on a
spin-1/2 mesoscopic sphere inside a Humpty-Dumpty Stern-Gerlach
interferometer, validated against an independent grid solver."""

__version__ = "0.1.0"

from .params import (Branch, ConstantsSet, ExperimentConfig, InitialState,
                     Protocol, SphereParams, SpinWeights, baseline_config,
                     get_constants, load_config, omega_s, separation_time,
                     short_protocol_config, validate)
from .phase import (PhaseBreakdown, PhasePipeline, naive_estimate,
                    phase_curve, radius_sweep)

__all__ = [
    "Branch", "ConstantsSet", "ExperimentConfig", "InitialState", "Protocol",
    "SphereParams", "SpinWeights", "baseline_config", "get_constants",
    "load_config", "omega_s", "separation_time", "short_protocol_config",
    "validate", "PhaseBreakdown", "PhasePipeline", "naive_estimate",
    "phase_curve", "radius_sweep", "__version__",
]
