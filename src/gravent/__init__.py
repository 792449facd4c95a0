"""Entanglement between a two-level test particle and a qubit mediated by
a squeezed mechanical oscillator.

The mediator couples to the test particle gravitationally and to the
qubit magnetically; a Coulomb-driven two-phonon term squeezes it, which
boosts both couplings exponentially.  The package provides the closed-form
branch dynamics with phenomenological dephasing, an independent banded
Fock-space oracle, SI feasibility arithmetic, parameter sweeps, and a CLI.
"""

from .config import RunConfig, load_config, parse_config, serialize_config, \
    config_hash
from .dynamics import (MediatorInit, BranchState, branch_state,
                       dephasing_mask, displaced_overlap,
                       partial_transpose_matrix, en_at_decoupling,
                       en_timeseries)
from .errors import (GraventError, ConfigError, NegativeSquaredFrequency,
                     UnstableFrame, DimensionMismatch, NonHermitianInput,
                     CutoffTooSmall, EigenFailure, NoConvergence)
from .negativity import (partial_transpose, partial_trace, log_negativity,
                         log_negativity_from_partial_transpose,
                         en_bipartition, trace_norm_hermitian)
from .params import (PhysicalSetup, ModelParams, SqueezedFrame, Check,
                     Report, derive_model_params,
                     derive_squeezed_frame, regime_report)
from .presets import PRESET_NAMES, SEC5_GOLDEN, load_preset
from .sweep import (AxisSpec, TimeRule, DynamicsSection, SweepSection,
                    RateSection, SweepResult, run_sweep, entanglement_rate,
                    timeseries_figure)
from .validate import run_validation

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "RunConfig", "load_config", "parse_config", "serialize_config",
    "config_hash",
    "MediatorInit", "BranchState", "branch_state", "displaced_overlap",
    "partial_transpose_matrix", "dephasing_mask", "en_at_decoupling",
    "en_timeseries",
    "GraventError", "ConfigError", "NegativeSquaredFrequency",
    "UnstableFrame", "DimensionMismatch", "NonHermitianInput",
    "CutoffTooSmall", "EigenFailure", "NoConvergence",
    "partial_transpose", "partial_trace", "log_negativity",
    "log_negativity_from_partial_transpose", "en_bipartition",
    "trace_norm_hermitian",
    "PhysicalSetup", "ModelParams", "SqueezedFrame", "Check", "Report",
    "derive_model_params", "derive_squeezed_frame", "regime_report",
    "PRESET_NAMES", "SEC5_GOLDEN", "load_preset",
    "AxisSpec", "TimeRule", "DynamicsSection", "SweepSection",
    "RateSection", "SweepResult", "run_sweep", "entanglement_rate",
    "timeseries_figure",
    "run_validation",
]
