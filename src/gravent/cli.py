"""Command-line entry point.

Subcommands: feasibility (SI pipeline, derived-rate table, regime report,
optional reference comparison), dynamics (EN time series), sweep (1D/2D
EN grids), rate (dEN/dg along a coupling axis), validate (analytic vs
oracle cross-checks).  Each takes a run configuration from --config
<path> or a shipped --preset <name>, writes its tables under --out, and
exits 0 only on full success.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import io
from .config import (FeasibilitySection, RunConfig, base_cell, load_config,
                     resolve_si)
from .dynamics import partial_transpose_matrix
from .errors import ConfigError, GraventError
from .negativity import log_negativity_from_partial_transpose
from .params import Report, regime_report
from .presets import PRESET_NAMES, SEC5_GOLDEN, golden_check, load_preset
from .sweep import (entanglement_rate, merge_cell, phase_time, run_sweep,
                    timeseries_figure)
from .validate import run_validation


def print_checks(checks) -> None:
    for c in checks:
        mark = "SKIP" if c.skipped else ("PASS" if c.passed else "FAIL")
        dev = "" if c.max_dev is None else \
            f" max dev {c.max_dev:.3e} (tol {c.tol:.1e})"
        note = f" - {c.note}" if c.note else ""
        print(f"[{mark}] {c.name}{dev}{note}")


def cmd_feasibility(cfg: RunConfig, args) -> int:
    setup, params, frame = resolve_si(cfg)
    fz = cfg.feasibility if cfg.feasibility is not None \
        else FeasibilitySection()
    regime = regime_report(setup, frame)
    t_eval = phase_time(fz.cycles, frame)
    en_lo, en_hi = log_negativity_from_partial_transpose(
        partial_transpose_matrix(frame, cfg.mediator, t_eval,
                                 fz.gamma_window)).tolist()
    derived = {
        "omega_tilde": params.omega_tilde, "omega_a": params.omega_a,
        "F": params.F, "delta": params.delta, "epsilon": params.epsilon,
        "r0": setup.tip_distance, "g_a": params.g_a, "g_b": params.g_b,
        "s": frame.s, "omega_s": frame.omega_s, "g_a_s": frame.g_a_s,
        "g_b_s": frame.g_b_s, "g_eff": frame.g_eff,
        "delta_x": regime.base["delta_x"], "t_eval": t_eval,
        "en_gamma_lo": en_lo, "en_gamma_hi": en_hi,
    }
    units = {"s": "", "delta_x": "m", "r0": "m", "t_eval": "s",
             "en_gamma_lo": "", "en_gamma_hi": ""}
    print(f"derived parameters ({cfg.label}):")
    for name, value in derived.items():
        if value is None:
            continue
        unit = units.get(name, "rad/s")
        print(f"  {name:<12} {value: .10e} {unit}")
    print("regime checks:")
    print_checks(regime.checks)

    info = io.provenance(cfg, command="feasibility")
    payload = {"derived": derived, "regime": regime.as_dict(),
               "gamma_window": list(fz.gamma_window)}
    golden_ok = True
    if args.golden:
        golden = Report(tuple(golden_check(key, derived[key])
                              for key in SEC5_GOLDEN))
        print("reference comparison:")
        print_checks(golden.checks)
        payload["golden"] = golden.as_dict()
        golden_ok = golden.all_pass
    path = io.write_json(Path(args.out) / f"{cfg.label}_feasibility.json",
                         info, payload)
    print(f"wrote {path}")
    return 0 if golden_ok else 1


def cmd_dynamics(cfg: RunConfig, args) -> int:
    d = cfg.dynamics
    result = timeseries_figure(d, base_cell(cfg))
    cutoff = {} if d.backend == "analytic" else {"fock_n": d.fock_n}
    info = io.provenance(cfg, command="dynamics", hamiltonian=d.hamiltonian,
                         backend=d.backend, **cutoff)
    paths = io.write_timeseries(Path(args.out), f"{cfg.label}_dynamics",
                                result, info)
    print(f"{len(result.curves)} curves over {len(result.t)} times")
    for p in paths:
        print(f"wrote {p}")
    return 0


def cmd_sweep(cfg: RunConfig, args) -> int:
    sw = cfg.sweep
    result = run_sweep(sw, base_cell(cfg))
    cutoff = {} if sw.backend == "analytic" else {"fock_n": sw.fock_n}
    info = io.provenance(cfg, command="sweep", backend=sw.backend, **cutoff)
    paths = io.write_sweep(Path(args.out), f"{cfg.label}_sweep", result,
                           info)
    valid = result.valid.sum()
    print(f"grid {result.en.shape}, {valid} valid cells, "
          f"{len(result.invalid_cells)} invalid")
    if valid:
        import numpy as np
        print(f"EN range [{np.nanmin(result.en[result.valid]):.6g}, "
              f"{np.nanmax(result.en[result.valid]):.6g}]")
    for p in paths:
        print(f"wrote {p}")
    return 0


def cmd_rate(cfg: RunConfig, args) -> int:
    r = cfg.rate
    base = base_cell(cfg)
    results = {}
    for label, overrides in (r.variants or (("base", {}),)):
        results[label] = entanglement_rate(r, merge_cell(base, overrides))
        zeros = ", ".join(f"{z:.6g}" for z in results[label].zero_crossings)
        print(f"{label}: rate sign changes at {r.which} = [{zeros}]")
    info = io.provenance(cfg, command="rate", axis=r.which)
    paths = io.write_rate(Path(args.out), f"{cfg.label}_rate", results, info)
    for p in paths:
        print(f"wrote {p}")
    return 0


def cmd_validate(cfg: RunConfig, args) -> int:
    report = run_validation(cfg)
    print_checks(report.checks)
    info = io.provenance(cfg, command="validate")
    path = io.write_json(Path(args.out) / f"{cfg.label}_validate.json",
                         info, report.as_dict())
    print(f"wrote {path}")
    return 0 if report.all_pass else 1


# each command with its help text and the config section it needs, if any
_COMMANDS = {
    "feasibility": (cmd_feasibility,
                    "derive SI rates, regime checks, EN window", None),
    "dynamics": (cmd_dynamics, "EN time series per bipartition", "dynamics"),
    "sweep": (cmd_sweep, "EN over a 1D/2D parameter grid", "sweep"),
    "rate": (cmd_rate, "entanglement generation rate dEN/dg", "rate"),
    "validate": (cmd_validate, "closed form vs Fock oracle cross-checks",
                 None),
}


@functools.cache  # one parser per process: each leaves reference cycles
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gravent",
        description="Entanglement between a two-level test particle and a "
                    "qubit mediated by a squeezed mechanical oscillator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", type=Path,
                        help="path to a JSON run configuration")
        sp.add_argument("--preset", choices=PRESET_NAMES,
                        help="name of a shipped configuration")
        sp.add_argument("--out", type=Path, default=Path("out"),
                        help="output directory (default: ./out)")
        if name == "feasibility":
            sp.add_argument("--golden", action="store_true",
                            help="compare derived values against "
                                 "published references")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if (args.config is None) == (args.preset is None):
        parser.error("give exactly one of --config or --preset")
    try:
        cfg = load_config(args.config) if args.config \
            else load_preset(args.preset)
        command, _, section = _COMMANDS[args.command]
        if section and getattr(cfg, section) is None:
            raise ConfigError(f"{cfg.label}.{section}",
                              f"this command needs a {section} section")
        return command(cfg, args)
    except GraventError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
