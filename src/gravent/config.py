"""JSON run configuration: schema, validation, canonical hashing.

One JSON file describes a system (dimensionless or SI) plus optional
command sections (dynamics, sweep, rate, feasibility); each CLI command
reads the sections it needs.  The dataclasses are the schema,
walked through their field annotations; the SI block is
`params.PhysicalSetup` itself.  Parsing is strict: unknown keys, type
errors, non-finite numbers and values a block's own rules reject (a
drive outside its domain among them, or a gap so small that one mediator
cycle takes t or g_eff t past the largest float) raise ConfigError with
the dotted field path, and parse(serialize(cfg)) == cfg holds exactly.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import sys
import typing
from dataclasses import dataclass, field

from .dynamics import DephasingBlock, MediatorInit
from .errors import ConfigError, GraventError, UnstableFrame
from .params import (ModelParams, PhysicalSetup, derive_model_params,
                     derive_squeezed_frame)
from .sweep import (DynamicsSection, RateSection, SweepSection, TimeRule,
                    check_fields, check_fock_cuts, merge_cell, phase_time,
                    resolve_cell)


@dataclass(frozen=True)
class DimensionlessSystem:
    """Couplings in units of the modified mediator frequency."""

    g_a: float
    g_b: float
    F: float | None = None
    delta: float | None = None
    omega_a: float = 0.0
    omega_b: float = 0.0
    epsilon: float = 0.0

    def __post_init__(self):
        ModelParams.dimensionless(**dataclasses.asdict(self))


@dataclass(frozen=True)
class FeasibilitySection:
    gamma_window: tuple[float, float] = field(default=(0.0, 0.0),
                                              metadata={"min": 0.0})
    cycles: float = field(default=1.0, metadata={"min": 0.0})

    __post_init__ = check_fields


@dataclass(frozen=True)
class RunConfig:
    label: str = field(metadata={"label": True})
    mode: str = field(metadata={"choices": ("dimensionless", "si")})
    system: DimensionlessSystem | None = None
    si_system: PhysicalSetup | None = None
    mediator: MediatorInit = field(default_factory=MediatorInit)
    dephasing: DephasingBlock = field(default_factory=DephasingBlock)
    dynamics: DynamicsSection | None = None
    sweep: SweepSection | None = None
    rate: RateSection | None = None
    feasibility: FeasibilitySection | None = None

    def __post_init__(self):
        check_fields(self)
        if (self.mode == "dimensionless") != (self.system is not None) or \
                (self.mode == "si") != (self.si_system is not None):
            raise ConfigError("mode", "dimensionless mode requires the "
                              "'system' block, si mode the 'si_system' "
                              "block, never both")
        if self.system is not None:
            _check_cells(self)
            return
        # one cycle rejects a gap too small for float64
        cycles = {"si_system": 1.0}
        if self.feasibility is not None:
            cycles["feasibility.cycles"] = self.feasibility.cycles
        frame = resolve_si(self)[2]
        for path, n in cycles.items():
            try:
                phase_time(n, frame)
            except ConfigError as exc:
                raise ConfigError(path, exc.message) from None


def _check_cells(cfg: RunConfig) -> None:
    """Resolve the base cell, each variant cell, axis endpoint and corner
    of a multi-axis sweep as the commands will, time rule included (one
    cycle for the base and a dynamics variant), and check the Fock cuts
    against the dephasing; only an axis cell past the instability is left
    to the sweep."""
    base = base_cell(cfg)
    cells = [("system." + ("F" if "F" in base else "delta"), {}, False)]
    cells += [(f"{name}.variants[{i}]", o, False)
              for name in ("dynamics", "rate") if getattr(cfg, name)
              for i, (_, o) in enumerate(getattr(cfg, name).variants)]
    sweep = cfg.sweep.axes if cfg.sweep else ()
    axes = [(f"sweep.axes[{i}]", ax) for i, ax in enumerate(sweep)]
    axes += [("rate.axis", cfg.rate.axis)] if cfg.rate else []
    cells += [(path, {ax.name: v}, True)
              for path, ax in axes for v in (ax.start, ax.stop)]
    if len(sweep) > 1:
        cells += [("sweep.axes", dict(zip((ax.name for ax in sweep), c)),
                   True) for c in itertools.product(
                       *((ax.start, ax.stop) for ax in sweep))]
    for path, overrides, on_axis in cells:
        section = getattr(cfg, path.split(".")[0])
        try:
            resolve_cell(merge_cell(base, overrides),
                         getattr(section, "time", TimeRule()))
        except (ValueError, GraventError) as exc:
            if not (on_axis and isinstance(exc, UnstableFrame)):
                raise ConfigError(path, str(exc)) from None
    if cfg.dynamics:
        try:
            check_fock_cuts(cfg.dynamics, base)
        except ConfigError as exc:
            raise ConfigError(f"dynamics.{exc.path}", exc.message) from None


_hints = functools.cache(typing.get_type_hints)


def _real(v) -> float | None:
    """v as a finite float, or None when it is anything else."""
    if isinstance(v, (int, float)) and not isinstance(v, bool) \
            and abs(v) <= sys.float_info.max:
        return float(v)
    return None


def _leaf(hint, v, path: str):
    if hint is float:
        x = _real(v)
        if x is None:
            raise ConfigError(path, f"expected a finite number, got {v!r}")
        return x
    if hint is complex:
        re, im = v if isinstance(v, list) and len(v) == 2 else (v, 0.0)
        re, im = _real(re), _real(im)
        if re is None or im is None:
            raise ConfigError(path, "expected a finite number or a "
                              "[re, im] pair")
        return complex(re, im)
    if hint is int and (isinstance(v, bool) or not isinstance(v, int)):
        raise ConfigError(path, f"expected an integer, got {v!r}")
    if hint is str and not isinstance(v, str):
        raise ConfigError(path, f"expected a string, got {v!r}")
    return v


def _value(hint, v, path: str):
    """One JSON value -> the Python value its annotation asks for."""
    args = typing.get_args(hint)
    if type(None) in args:
        if v is None:
            return None
        (hint,) = (a for a in args if a is not type(None))
        args = typing.get_args(hint)
    if v is None:
        raise ConfigError(path, "null not allowed here")
    if dataclasses.is_dataclass(hint):
        return _build(hint, v, path)
    origin = typing.get_origin(hint)
    if origin is tuple:
        if not isinstance(v, list):
            raise ConfigError(path, f"expected a list, got {v!r}")
        if args[-1] is Ellipsis:
            args = args[:1] * len(v)
        elif len(v) != len(args):
            raise ConfigError(path, f"expected a list of {len(args)} items")
        return tuple(_value(a, x, f"{path}[{i}]")
                     for i, (a, x) in enumerate(zip(args, v)))
    if origin is dict:
        if not isinstance(v, dict):
            raise ConfigError(path, f"expected an object, got {v!r}")
        return {k: _value(args[1], x, f"{path}.{k}")
                for k, x in v.items()}
    return _leaf(hint, v, path)


def _build(cls, raw, path: str):
    """Build dataclass cls from a JSON object, field by field.

    Missing optional keys take the dataclass defaults.  A ConfigError
    from the block's __post_init__ names a field relative to the block,
    any other ValueError, GraventError or float overflow is reported
    against the block.
    """
    if not isinstance(raw, dict):
        raise ConfigError(path, f"expected an object, got "
                          f"{type(raw).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    for key in raw:
        if key not in fields:
            raise ConfigError(f"{path}.{key}", "unknown key")
    hints = _hints(cls)
    kwargs = {}
    for name, f in fields.items():
        if name in raw:
            kwargs[name] = _value(hints[name], raw[name], f"{path}.{name}")
        elif (f.default is dataclasses.MISSING
              and f.default_factory is dataclasses.MISSING):
            raise ConfigError(f"{path}.{name}", "missing required key")
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{path}.{exc.path}", exc.message) from None
    except (ValueError, ArithmeticError, GraventError) as exc:
        raise ConfigError(path, str(exc)) from None


def parse_config(data: dict, source: str = "<config>") -> RunConfig:
    """Validate a raw JSON object and build the typed configuration."""
    return _build(RunConfig, data, source)


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read: {exc}") from exc
    except ValueError as exc:  # bad JSON, bad encoding, oversized integer
        raise ConfigError(str(path), f"invalid JSON: {exc}") from exc
    return parse_config(data, source=str(path))


def _dump(obj):
    """Typed value -> JSON value."""
    if dataclasses.is_dataclass(obj):
        return {f.name: _dump(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, tuple):
        return [_dump(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _dump(x) for k, x in obj.items()}
    return obj


def serialize_config(cfg: RunConfig) -> dict:
    """Canonical JSON form; parse(serialize(cfg)) == cfg.

    Sections the configuration does not have are left out.
    """
    return {k: v for k, v in _dump(cfg).items() if v is not None}


def config_hash(cfg: RunConfig) -> str:
    """16-hex-char SHA-256 digest of the canonical serialized form, by
    CPython's own SHA-256 module; hashlib's, which loads OpenSSL (3.6 MB
    resident), serves only a build without it."""
    try:
        if sys.version_info >= (3, 12):  # no failed import on every call
            from _sha2 import sha256
        else:
            from _sha256 import sha256
    except ImportError:
        from hashlib import sha256
    blob = json.dumps(serialize_config(cfg), sort_keys=True,
                      separators=(",", ":"))
    return sha256(blob.encode()).hexdigest()[:16]


def _system(cfg: RunConfig) -> DimensionlessSystem:
    if cfg.system is None:
        raise ConfigError(f"{cfg.label}.system",
                          "this command needs a dimensionless system block")
    return cfg.system


def base_cell(cfg: RunConfig) -> dict:
    """Fixed-parameter dict for the sweep engine (dimensionless mode)."""
    cell = {}
    for block in (_system(cfg), cfg.dephasing, cfg.mediator):
        cell.update(dataclasses.asdict(block))
    del cell["delta" if cfg.system.F is not None else "F"]
    return cell


def resolve_si(cfg: RunConfig):
    """SI block -> (PhysicalSetup, ModelParams, SqueezedFrame)."""
    if cfg.si_system is None:
        raise ConfigError(f"{cfg.label}.si_system",
                          "this command needs an SI system block")
    params = derive_model_params(cfg.si_system)
    return cfg.si_system, params, derive_squeezed_frame(params)


def resolve_dimensionless(cfg: RunConfig) -> ModelParams:
    return ModelParams.dimensionless(**dataclasses.asdict(_system(cfg)))


__all__ = [
    "DephasingBlock", "DimensionlessSystem",
    "DynamicsSection", "SweepSection", "RateSection", "FeasibilitySection",
    "RunConfig", "parse_config",
    "load_config", "serialize_config", "config_hash", "base_cell",
    "resolve_si", "resolve_dimensionless",
]
