"""Pseudo-spectral simulator for coupled pairs of 2D incompressible flows.

Two copies of the periodic-box Navier-Stokes system evolve side by side
with a pluggable low-mode coupling: synchronization-style couplings
exchange projected nonlinear terms, nudging-style couplings relax
projected states. The package provides the spectral toolbox, the
integrating-factor time stepper, deterministic band forcing,
closed-form synchronization thresholds, and a batch experiment harness
with a CLI (``twinflow --help``).
"""

__version__ = "0.1.0"

from .coupling import (
    IntertwinementSpec,
    threshold_degenerate_sync,
    threshold_mutual_nudge,
    threshold_mutual_sync,
    threshold_symmetric_nudge,
)
from .experiment import ErrorRecord, RateFit, fit_decay_rate, run_experiment, sweep
from .forcing import ForcingSpec, absorbing_radii, grashof, make_band_forcing, shape_factor
from .spectral import (
    SpectralField,
    SpectralGrid,
    energy_spectrum,
    norm_hn,
    project_low,
    to_physical,
)
from .stepping import (
    PairState,
    decorrelate,
    load_checkpoint,
    save_checkpoint,
    spin_up,
)

__all__ = [
    "__version__",
    "SpectralGrid",
    "SpectralField",
    "to_physical",
    "project_low",
    "norm_hn",
    "energy_spectrum",
    "ForcingSpec",
    "make_band_forcing",
    "grashof",
    "shape_factor",
    "absorbing_radii",
    "IntertwinementSpec",
    "threshold_mutual_sync",
    "threshold_degenerate_sync",
    "threshold_mutual_nudge",
    "threshold_symmetric_nudge",
    "PairState",
    "spin_up",
    "decorrelate",
    "save_checkpoint",
    "load_checkpoint",
    "ErrorRecord",
    "RateFit",
    "run_experiment",
    "fit_decay_rate",
    "sweep",
]
