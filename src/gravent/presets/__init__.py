"""Shipped run presets and the reference values they are checked against."""

from __future__ import annotations

import json
from importlib import resources

from ..config import RunConfig, parse_config
from ..errors import ConfigError
from ..params import Check

PRESET_NAMES = ("fig2", "fig3a", "fig3b", "fig4", "fig5", "fig6",
                "sec5-feasibility")

# Reference values for the sec5-feasibility preset, keyed by the derived
# table's names: published rates (relative tolerance) and the
# entanglement window at the first decoupling time (absolute tolerance,
# half a unit of the last quoted digit for the dephased end).  Sign
# conventions make g_a and hence g_a_s and g_eff negative, so magnitudes
# are compared.
SEC5_GOLDEN = {
    "g_a": (2.9907e-15, "rel", 1e-3),
    "g_b": (673.4614, "rel", 1e-3),
    "s": (6.9649, "rel", 1e-3),
    "omega_s": (0.0112, "rel", 1e-3),
    "g_a_s": (3.1665e-12, "rel", 1e-3),
    "g_b_s": (7.1304e5, "rel", 1e-3),
    "g_eff": (4.0283e-4, "rel", 1e-3),
    "delta_x": (5.7318e-10, "rel", 1e-3),
    "en_gamma_lo": (0.5224, "abs", 1e-3),
    "en_gamma_hi": (0.001, "abs", 5e-4),
}
ROUNDED = {"omega_s": "the paper quotes three figures"}


def golden_check(key: str, value: float) -> Check:
    """The magnitude of a derived value against its reference."""
    target, kind, tol = SEC5_GOLDEN[key]
    dev = abs(abs(value) - target)
    note = (f"{kind}. deviation of {abs(value):.6e} from reference "
            f"{target:.6e}")
    if key in ROUNDED:
        note += f"; {ROUNDED[key]}"
    return Check.bound(key, dev / target if kind == "rel" else dev, tol,
                       note)


def load_preset(name: str) -> RunConfig:
    if name not in PRESET_NAMES:
        raise ConfigError(f"preset:{name}",
                          f"unknown preset; available: {PRESET_NAMES}")
    path = resources.files("gravent.presets").joinpath(f"{name}.json")
    data = json.loads(path.read_text())
    return parse_config(data, source=f"preset:{name}")


__all__ = ["PRESET_NAMES", "SEC5_GOLDEN", "golden_check", "load_preset"]
