"""Parameter sweeps, entanglement-rate extraction, and time-series tables.

Grids are specified in units of the modified mediator frequency
(omega_tilde = 1).  Axes may move the drive itself; cells that land at or
beyond the instability are marked invalid rather than zeroed, and the
sweep keeps going.  Cells that share the drive and the initial state are
resolved once, as a group, for one closed-form kernel call; the Fock
backend takes one row per cell from those groups into one oracle batch
and one EN call, and marks invalid a cell that does not fit its cutoff.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import fock
from .dynamics import (DephasingBlock, MediatorInit, dephasing_mask,
                       en_timeseries, partial_transpose_matrix)
from .errors import ConfigError, UnstableFrame
from .negativity import log_negativity_from_partial_transpose
from .params import DRIVE_KEYS, ModelParams, derive_squeezed_frame

AXIS_NAMES = ("F", "delta", "g_a", "g_b", "gamma", "s", "t", "alpha0")
# axes that leave s, omega_s and xi alone: the kernel broadcasts over them
BROADCAST_AXES = ("g_a", "g_b", "gamma", "t")
BACKENDS = ("analytic", "fock", "both")

# cell parameters understood by the fixed dict / variant overrides
_CELL_DEFAULTS = {
    "g_a": None, "g_b": None, **dict.fromkeys(DRIVE_KEYS),
    "gamma": 0.0, "gamma_tp": 0.0, "alpha0": 1.0 + 0.0j, "xi_mag": None,
    "theta": math.pi, "epsilon": 0.0, "omega_a": 0.0, "omega_b": 0.0,
    "t": None,
}


# a label names output files and table columns: no path, no comma
_LABEL = re.compile(r"(?!\.\.?$)[A-Za-z0-9._=+-]+")


def check_fields(block) -> None:
    """ConfigError naming the first field of dataclass block, or item of a
    tuple field, that breaks a rule of its metadata: "choices", the values
    it may take, the bounds "min" and "max", or "label", a name safe in
    file names and CSV headers (of a variant, its first item).  None
    breaks no rule; NaN breaks every bound."""
    for f in (f for f in fields(block) if f.metadata):
        rule, value = f.metadata, getattr(block, f.name)
        many = isinstance(value, tuple)
        for i, v in enumerate(value if many else (value,)):
            where = f"{f.name}[{i}]" if many else f.name
            if v is None:
                continue
            if "label" in rule and not _LABEL.fullmatch(
                    v if isinstance(v, str) else v[0]):
                raise ConfigError(where, "a label takes only letters, "
                                  "digits and ._=+- and is not . or ..")
            if "choices" in rule and v not in rule["choices"]:
                raise ConfigError(where, f"must be one of {rule['choices']}")
            if "min" in rule and not v >= rule["min"]:
                raise ConfigError(where, f"must be at least {rule['min']}")
            if "max" in rule and not v <= rule["max"]:
                raise ConfigError(where, f"must be at most {rule['max']}")


@dataclass(frozen=True)
class AxisSpec:
    name: str = field(metadata={"choices": AXIS_NAMES})
    start: float
    stop: float
    count: int = field(metadata={"min": 2})
    scale: str = field(default="linear",
                       metadata={"choices": ("linear", "log")})

    def __post_init__(self):
        check_fields(self)
        for name in ("start", "stop"):
            if self.scale == "log" and getattr(self, name) <= 0:
                raise ConfigError(name, "must be positive on a log axis")

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.start, self.stop, self.count)
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class TimeRule:
    """When to evaluate EN in each cell: at the absolute time t when the
    rule gives one, else at t = cycles * 2 pi / omega_s (one period when
    cycles is None), re-derived per cell so the sweep tracks the
    decoupling comb as the frame shifts.  A rule gives one of the two."""

    cycles: float | None = field(default=None, metadata={"min": 0.0})
    t: float | None = field(default=None, metadata={"min": 0.0})

    def __post_init__(self):
        check_fields(self)
        if self.cycles is not None and self.t is not None:
            raise ConfigError("t", "a rule gives cycles or t, not both")


Variants = tuple[tuple[str, dict[str, float | None]], ...]


@dataclass(frozen=True)
class DynamicsSection:
    t_stop: float = field(metadata={"min": 0.0})
    points: int = field(metadata={"min": 2})
    t_start: float = field(default=0.0, metadata={"min": 0.0})
    backend: str = field(default="analytic", metadata={"choices": BACKENDS})
    hamiltonian: str = field(default="squeezed",
                             metadata={"choices": ("squeezed", "lab")})
    fock_n: int = field(default=64, metadata={"min": 1, "max": 1024})
    bipartitions: tuple[str, ...] = field(
        default=("tp_qubit",),
        metadata={"choices": tuple(fock.BIPARTITIONS)})
    variants: Variants = field(default=(), metadata={"label": True})

    def __post_init__(self):
        check_fields(self)
        if self.backend == "analytic":  # the closed form's TP-qubit EN
            if self.hamiltonian != "squeezed":
                raise ConfigError("hamiltonian", "'lab' needs a Fock backend")
            if not set(self.bipartitions) <= {"tp_qubit"}:
                raise ConfigError("bipartitions", "a mediator cut needs a "
                                  "Fock backend")
        for i, (_, overrides) in enumerate(self.variants):
            if "t" in overrides:
                raise ConfigError(f"variants[{i}]", "the time grid sets t")


@dataclass(frozen=True)
class SweepSection:
    axes: tuple[AxisSpec, ...]
    time: TimeRule = TimeRule()
    backend: str = field(default="analytic", metadata={"choices": BACKENDS})
    fock_n: int = field(default=64, metadata={"min": 1, "max": 1024})

    def __post_init__(self):
        check_fields(self)
        names = [ax.name for ax in self.axes]
        if not 1 <= len(set(names)) == len(names) <= 2:
            raise ConfigError("axes", "expected a non-empty list of one or "
                              f"two distinct axes, got {names}")
        if len(set(names) & set(DRIVE_KEYS)) > 1:
            raise ConfigError("axes", "at most one drive axis among "
                              f"F/delta/s, got {names}")


@dataclass(frozen=True)
class RateSection:
    """dEN/d<which> along the coupling axis of the same name."""

    which: str = field(metadata={"choices": ("g_a", "g_b")})
    axis: AxisSpec
    time: TimeRule = TimeRule()
    variants: Variants = field(default=(), metadata={"label": True})

    def __post_init__(self):
        check_fields(self)
        if self.axis.name != self.which:
            raise ConfigError("axis", f"a rate along {self.which} needs the "
                              f"axis {self.which}, got {self.axis.name!r}")
        if self.axis.count < 3:
            raise ConfigError("axis", "rate extraction needs >= 3 points")
        if self.axis.start == self.axis.stop:
            raise ConfigError("axis", "rate extraction needs start != stop")


def merge_cell(base: dict, overrides: dict) -> dict:
    """Overlay variant or axis overrides on a fixed-parameter dict.

    An override that names a drive key (F, delta, s) first evicts the
    base's drive, so a variant or an axis may give the drive another way.
    """
    cell = dict(base)
    if not set(DRIVE_KEYS).isdisjoint(overrides):
        for k in DRIVE_KEYS:
            cell.pop(k, None)
    cell.update(overrides)
    return cell


def check_fock_cuts(spec: DynamicsSection, fixed: dict) -> None:
    """The Fock mediator cuts are of the undamped pure state, so they
    refuse a variant with gamma or gamma_tp set."""
    if set(spec.bipartitions) <= {"tp_qubit"}:
        return
    for label, overrides in spec.variants or (("base", {}),):
        cell = merge_cell(fixed, overrides)
        if cell.get("gamma") or cell.get("gamma_tp"):
            raise ConfigError("bipartitions", "Fock mediator cuts ignore "
                              f"the dephasing of {label!r}")


def resolve_cell(cell: dict, time_rule: TimeRule | None = None):
    """Cell dict -> (params, frame, init, gamma, gamma_tp, t).

    Null values take the defaults.  g_a, g_b, gamma, gamma_tp and t may be
    arrays that broadcast together, for cells sharing s, omega_s and xi;
    t is the cell's, else time_rule's, else None.  An unknown key, a
    missing coupling, a negative t or an overflowing phase time raises
    ConfigError naming the key or cycles; another value outside the
    model's domain, in any cell, ValueError, a drive at or past the
    instability UnstableFrame.
    """
    for key in cell:
        if key not in _CELL_DEFAULTS:
            raise ConfigError(key, "unknown cell parameter")
    p = dict(_CELL_DEFAULTS)
    p.update((k, v) for k, v in cell.items() if v is not None)
    for key in ("g_a", "g_b"):
        if p[key] is None:
            raise ConfigError(key, "g_a and g_b must be set by the fixed "
                              "dict or an axis")
    deph = DephasingBlock(p["gamma"], p["gamma_tp"])
    init = MediatorInit(alpha0=complex(p["alpha0"]), xi_mag=p["xi_mag"],
                        theta=p["theta"])
    params = ModelParams.dimensionless(
        p["g_a"], p["g_b"], **{k: p[k] for k in DRIVE_KEYS},
        omega_a=p["omega_a"], omega_b=p["omega_b"], epsilon=p["epsilon"])
    frame = derive_squeezed_frame(params)

    if p["t"] is not None:
        t = p["t"]
        if np.less(t, 0.0).any():
            raise ConfigError("t", f"must be non-negative, got {np.min(t)}")
    elif time_rule is None:
        t = None
    elif time_rule.t is not None:  # TimeRule keeps its t and cycles >= 0
        t = float(time_rule.t)
    else:
        t = phase_time(1.0 if time_rule.cycles is None else time_rule.cycles,
                       frame)
    return params, frame, init, deph.gamma, deph.gamma_tp, t


def phase_time(cycles: float, frame):
    """frame.decoupling_time(cycles); ConfigError naming cycles where that
    time or the conditional phase g_eff t it gives is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        t = frame.decoupling_time(cycles)
        if np.isfinite(t * frame.g_eff).all():
            return t
    raise ConfigError("cycles", f"{cycles:g} periods take t or the phase "
                      "g_eff t past the largest float")


def _fock_tp_qubit_en(states, n: int, ts, gamma, gamma_tp) -> np.ndarray:
    """Dephased TP-qubit EN of each Fock state at its time and rates."""
    return log_negativity_from_partial_transpose(
        fock.cut_pt(states, n, "tp_qubit")
        * dephasing_mask(ts, gamma, gamma_tp))


@dataclass
class SweepResult:
    spec: SweepSection
    axis_values: tuple[np.ndarray, ...]
    en: np.ndarray
    valid: np.ndarray
    extras: dict[str, np.ndarray]
    invalid_cells: list[tuple[tuple[int, ...], str]]


def _groups(axes: tuple[AxisSpec, ...], axes_vals):
    """(index, overrides) per group of cells that differ only along
    BROADCAST_AXES: their overrides are open grids, the other axes'
    overrides one value each."""
    wide = [ax.name in BROADCAST_AXES for ax in axes]
    keep = tuple(slice(None) if w else 0 for w in wide)
    grids = [g[keep] for g in np.meshgrid(*axes_vals, indexing="ij",
                                          sparse=True)]
    for idx in np.ndindex(*(1 if w else len(v)
                            for w, v in zip(wide, axes_vals))):
        sel = tuple(slice(None) if w else i for w, i in zip(wide, idx))
        yield sel, {ax.name: grids[k] if w else float(axes_vals[k][i])
                    for k, (ax, w, i) in enumerate(zip(axes, wide, sel))}


def run_sweep(spec: SweepSection, fixed: dict) -> SweepResult:
    """Evaluate EN over the grid; deterministic for fixed inputs.

    fixed holds the cell parameters the axes do not set; a drive axis
    evicts its drive.  One resolve and one kernel call per group of cells
    that differ only along BROADCAST_AXES give EN and the frame extras;
    the Fock backend splits those groups into a row per cell, for one
    `fock.trajectories` batch and one EN call, and marks a cell invalid
    once its state holds more than `fock.TAIL_TOL` in its top two levels.
    """
    axes_vals = tuple(ax.values() for ax in spec.axes)
    shape = tuple(len(v) for v in axes_vals)
    en = np.full(shape, np.nan)
    notes = np.full(shape, "", object)
    extra_names = ("s", "omega_s", "g_a_s", "g_b_s", "g_eff", "t_eval")
    extras = {name: np.full(shape, np.nan) for name in extra_names}
    if spec.backend == "both":
        extras["en_fock"] = np.full(shape, np.nan)
    flat = np.arange(en.size).reshape(shape)
    rows, cols = [], []  # per cell its Fock row, per group its columns
    for sel, overrides in _groups(spec.axes, axes_vals):
        try:
            params, frame, init, gamma, gamma_tp, t = resolve_cell(
                merge_cell(fixed, overrides), spec.time)
        except UnstableFrame as exc:
            notes[sel] = str(exc)
            continue
        for name in extra_names:
            extras[name][sel] = t if name == "t_eval" else getattr(frame, name)
        if spec.backend != "fock":
            en[sel] = log_negativity_from_partial_transpose(
                partial_transpose_matrix(frame, init, t, gamma, gamma_tp))
        if spec.backend != "analytic":  # a Fock row per cell of the group
            cols.append([np.ravel(c) for c in np.broadcast_arrays(
                flat[sel], params.g_a, params.g_b, gamma, gamma_tp, t)])
            rows += [(replace(params, g_a=a, g_b=b), init, [u], "squeezed")
                     for _, a, b, _, _, u in zip(*cols[-1])]
    if rows:  # one oracle batch, and one reduction of its accepted cells
        runs, why = fock.trajectories(rows, spec.fock_n, (), fock.TAIL_TOL)
        k, _, _, gamma, gamma_tp, t = map(np.concatenate, zip(*cols))
        notes.flat[k] = [f"Fock backend: {e}" if e else "" for e in why]
        ok = notes.flat[k] == ""
        extras.get("en_fock", en).flat[k[ok]] = _fock_tp_qubit_en(
            np.array([run["states"][0] for run in runs if run]),
            spec.fock_n, t[ok], gamma[ok], gamma_tp[ok])
    valid = notes == ""
    for values in (en, *extras.values()):
        values[~valid] = np.nan
    invalid = [(idx, notes[idx]) for idx in np.ndindex(*shape) if notes[idx]]
    return SweepResult(spec=spec, axis_values=axes_vals, en=en, valid=valid,
                       extras=extras, invalid_cells=invalid)


@dataclass
class RateResult:
    g_values: np.ndarray
    en: np.ndarray
    eta: np.ndarray
    zero_crossings: list[float]


def entanglement_rate(spec: RateSection, fixed: dict) -> RateResult:
    """eta = dEN/dg along a coupling axis, central differences.

    Interior points are O(h^2) central stencils, endpoints one-sided.
    Sign changes of eta are bracketed and reported as linear-interpolation
    zeros; they mark the turning points of EN against the coupling.
    """
    res = run_sweep(SweepSection((spec.axis,), spec.time), fixed)
    g = res.axis_values[0]
    en = res.en
    if not res.valid.all():
        raise UnstableFrame("rate sweep crossed the instability; shrink "
                            "the axis range")
    eta = np.gradient(en, g)
    return RateResult(g_values=g, en=en, eta=eta,
                      zero_crossings=_sign_changes(g, eta))


def _sign_changes(g: np.ndarray, eta: np.ndarray) -> list[float]:
    """Points of g where eta changes sign across its non-zero values.

    Neighbours of opposite sign give the linear-interpolation zero; a run
    of exact zeros between opposite signs is reported once, at its
    middle.  A zero that eta only touches is no turning point.
    """
    nonzero = np.flatnonzero(eta)
    zeros = []
    for j, k in zip(nonzero[:-1], nonzero[1:]):
        if (eta[j] > 0) == (eta[k] > 0):
            continue
        if k == j + 1:
            frac = eta[j] / (eta[j] - eta[k])
            zeros.append(float(g[j] + frac * (g[k] - g[j])))
        else:
            zeros.append(float(0.5 * (g[j + 1] + g[k - 1])))
    return zeros


@dataclass
class TimeseriesResult:
    t: np.ndarray
    curves: dict[str, np.ndarray]


def timeseries_figure(spec: DynamicsSection, fixed: dict) -> TimeseriesResult:
    """EN(t) table for one or more parameter variants of fixed.

    The analytic backend contributes a TP-qubit column per variant; the
    Fock backend adds the requested bipartitions (mediator cuts only for
    undamped variants) in one oracle batch, or raises the first rejected
    variant's CutoffTooSmall at `fock.TAIL_TOL`; TP-qubit columns are dephased.
    Columns, variant by variant: "<label>:<bipartition>:<backend>".
    """
    check_fock_cuts(spec, fixed)
    ts = np.linspace(spec.t_start, spec.t_stop, spec.points)
    curves: dict[str, np.ndarray] = {}

    variants = [(label, *resolve_cell(merge_cell(fixed, overrides)))
                for label, overrides in spec.variants or (("base", {}),)]
    runs = [None] * len(variants)
    if spec.backend != "analytic":
        runs, why = fock.trajectories(
            [(params, init, ts, spec.hamiltonian)
             for _, params, _, init, *_ in variants], spec.fock_n,
            tuple(name for name in spec.bipartitions if name != "tp_qubit"),
            fock.TAIL_TOL)
        why = list(dict.fromkeys(filter(None, why)))  # a shared one once
        if why:
            raise why.pop(0)  # not held in a cycle by this frame
    for (label, _, frame, init, gamma, gamma_tp, _), data in zip(variants,
                                                                runs):
        if spec.backend != "fock":
            curves[f"{label}:tp_qubit:analytic"] = en_timeseries(
                frame, init, ts, gamma, gamma_tp)
        if data is not None:
            data["tp_qubit"] = _fock_tp_qubit_en(
                data["states"], spec.fock_n, ts, gamma, gamma_tp)
            for name in spec.bipartitions:
                curves[f"{label}:{name}:fock"] = data[name]
    return TimeseriesResult(t=ts, curves=curves)


__all__ = [
    "AXIS_NAMES", "BACKENDS", "BROADCAST_AXES", "AxisSpec", "TimeRule",
    "DynamicsSection", "SweepSection", "RateSection", "SweepResult",
    "RateResult", "TimeseriesResult", "merge_cell", "check_fields",
    "check_fock_cuts", "resolve_cell", "phase_time", "run_sweep",
    "entanglement_rate", "timeseries_figure"]
