"""Output checks for the benchmark's workloads.

Every check compares gravent's files against something the benchmark
computes itself or against a property the method must have, never
against a saved copy of earlier output.  Files are read by column and
key name, and unknown columns and keys are ignored.  A check returns a
list of problems; an empty list means the output passed.

The independent closed form: at a decoupling time t_n every branch of
the mediator has closed its orbit, so the TP-qubit state is
(1/2) sum_ab e^{i phi sigma_a sigma_b} |a, b> with phi = g_eff t_n,
g_eff = 2 g_a g_b e^{2s} / omega_s, s = ln(1 / (1 - 4F)) / 4 and
omega_s = sqrt(1 - 4F) (omega_tilde = 1).  Dephasing damps each
coherence between different qubit (TP) states by e^{-gamma t}
(e^{-gamma_tp t}).  `en_at_decoupling` builds that 4x4 matrix, partially
transposes the qubit and sums the absolute eigenvalues.

Away from t_n (`en_closed_form`) the phase is phi = g_eff (t - sin(omega_s
t)/omega_s), and each branch leaves the mediator displaced by
a = -(sigma_a g_a_s + sigma_b g_b_s) conj(alpha_t) with alpha_t =
(e^{-i omega_s t} - 1)/omega_s and g_x_s = g_x e^s.  The coherence between
two branches is scaled by the modulus of the mediator overlap,
exp(-|b'|^2/2) with b = a_j - a_i pushed through the squeeze xi = r e^{i
theta}: b' = b cosh r + conj(b) e^{i theta} sinh r.  The overlap's phase
is a product of one phase per spin, so it cannot change EN and is left
out.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

EN_TOL = 1e-9          # closed-form pipeline vs the benchmark's 4x4 matrix
ORACLE_TOL = 1e-3      # Fock oracle vs closed form, and between oracles
SLACK = 1e-12          # rounding allowed on bounds and monotonicity

VALIDATE_CHECKS = ("overlap_closed_form_vs_fock", "pt_matrix_vs_fock",
                   "en_timeseries_analytic_vs_fock",
                   "mediator_decoupling_at_tn", "closed_form_at_tn",
                   "epsilon_irrelevance", "frame_equivalence")

_SIGMA_A = np.array([-1.0, -1.0, 1.0, 1.0])    # slots R0, R1, L0, L1
_SIGMA_B = np.array([-1.0, 1.0, -1.0, 1.0])
_SIGMA_AB = _SIGMA_A * _SIGMA_B
_TP = np.array([0, 0, 1, 1])
_QUBIT = np.array([0, 1, 0, 1])


# --- reading ---------------------------------------------------------------

def read_table(path: Path) -> dict[str, np.ndarray]:
    """CSV after its '#' provenance block, as column name -> floats."""
    lines = [ln for ln in Path(path).read_text().splitlines()
             if ln and not ln.startswith("#")]
    names = lines[0].split(",")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    rows = rows.reshape(len(lines) - 1, len(names))
    return {name: rows[:, k] for k, name in enumerate(names)}


def read_json(path: Path) -> dict:
    return json.loads(Path(path).read_text())


# --- the benchmark's own closed form ---------------------------------------

def drive_F(cell: dict) -> float:
    """Two-phonon drive F from whichever of F, delta, s a cell names."""
    if cell.get("s") is not None:
        return 0.25 * (1.0 - math.exp(-4.0 * cell["s"]))
    if cell.get("delta") is not None:
        return 0.25 * (1.0 - cell["delta"])
    return cell["F"]


def g_eff(F, g_a, g_b):
    """2 g_a g_b e^{2s} / omega_s with s = ln(1/(1-4F))/4."""
    gap = 1.0 - 4.0 * np.asarray(F, float)
    s = 0.25 * np.log(1.0 / gap)
    omega_s = np.sqrt(gap)
    return 2.0 * g_a * g_b * np.exp(2.0 * s) / omega_s


def first_decoupling(F, cycles=1.0):
    return cycles * 2.0 * np.pi / np.sqrt(1.0 - 4.0 * np.asarray(F, float))


def en_at_decoupling(phi, t, gamma=0.0, gamma_tp=0.0) -> np.ndarray:
    """EN of the dephased TP-qubit state at decoupling, batched."""
    return _en_tp_qubit(phi, t, gamma, gamma_tp, 1.0)


def en_closed_form(F, g_a, g_b, t, gamma=0.0, gamma_tp=0.0,
                   xi_mag=None, theta=math.pi) -> np.ndarray:
    """EN of the TP-qubit state at any t, batched over t.

    xi_mag None squeezes the mediator by the frame's own s.
    """
    t = np.asarray(t, float)
    gap = 1.0 - 4.0 * F
    s = 0.25 * math.log(1.0 / gap)
    omega_s = math.sqrt(gap)
    r = s if xi_mag is None else xi_mag
    alpha_t = (np.exp(-1j * omega_s * t) - 1.0) / omega_s
    phi = g_eff(F, g_a, g_b) * (t - np.sin(omega_s * t) / omega_s)
    lam = math.exp(s) * (g_a * _SIGMA_A + g_b * _SIGMA_B)
    a = -lam * alpha_t.conj()[..., None]
    b = a[..., None, :] - a[..., :, None]
    b = b * math.cosh(r) + b.conj() * np.exp(1j * theta) * math.sinh(r)
    return _en_tp_qubit(phi, t, gamma, gamma_tp, np.exp(-0.5 * np.abs(b) ** 2))


def _en_tp_qubit(phi, t, gamma, gamma_tp, overlap) -> np.ndarray:
    phi, t, gamma, gamma_tp = np.broadcast_arrays(
        *(np.asarray(x, float) for x in (phi, t, gamma, gamma_tp)))
    amp = np.exp(1j * phi[..., None] * _SIGMA_AB) / 2.0
    rho = amp[..., :, None] * amp[..., None, :].conj() * overlap
    damp_q = np.exp(-gamma * t)[..., None, None]
    damp_tp = np.exp(-gamma_tp * t)[..., None, None]
    rho = rho * np.where(_QUBIT[:, None] != _QUBIT[None, :], damp_q, 1.0)
    rho = rho * np.where(_TP[:, None] != _TP[None, :], damp_tp, 1.0)
    # transpose the qubit: rho[(A1,B1),(A2,B2)] -> rho[(A1,B2),(A2,B1)]
    pt = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2)).swapaxes(-3, -1)
    pt = pt.reshape(rho.shape)
    norm = np.abs(np.linalg.eigvalsh(pt)).sum(axis=-1)
    return np.maximum(0.0, np.log2(norm))


def en_pure_decoupled(g, t):
    """log2(1 + |sin(2 g_eff t)|), the undamped decoupling formula."""
    return np.log2(1.0 + np.abs(np.sin(2.0 * np.asarray(g) * t)))


# --- pure checks on arrays ---------------------------------------------------

def check_range(name: str, en) -> list[str]:
    en = np.asarray(en, float)
    if not np.all(np.isfinite(en)):
        return [f"{name}: non-finite EN"]
    if en.min() < -SLACK or en.max() > 1.0 + SLACK:
        return [f"{name}: EN outside [0, 1]: "
                f"[{en.min():.6g}, {en.max():.6g}]"]
    return []


def check_close(name: str, got, want, tol: float) -> list[str]:
    got, want = np.asarray(got, float), np.asarray(want, float)
    if got.shape != want.shape or got.size == 0:
        return [f"{name}: shape {got.shape} vs expected {want.shape}"]
    dev = float(np.max(np.abs(got - want)))
    if not dev <= tol:
        return [f"{name}: max deviation {dev:.3e} > {tol:.1e}"]
    return []


def check_phase_rule(name: str, cells: dict, en, cycles: float) -> list[str]:
    """EN at the first decoupling time against the 4x4 construction.

    cells: arrays F, g_a, g_b, gamma, gamma_tp, one entry per cell.
    Undamped cells are also held to the one-line formula.
    """
    F = np.asarray(cells["F"], float)
    g = g_eff(F, cells["g_a"], cells["g_b"])
    t = first_decoupling(F, cycles)
    want = en_at_decoupling(g * t, t, cells["gamma"], cells["gamma_tp"])
    problems = check_close(f"{name} vs 4x4 matrix", en, want, EN_TOL)
    clean = (np.asarray(cells["gamma"]) == 0) & \
        (np.asarray(cells["gamma_tp"]) == 0)
    clean = np.broadcast_to(clean, np.shape(en))
    if clean.any():
        problems += check_close(f"{name} vs decoupling formula",
                                np.asarray(en)[clean],
                                en_pure_decoupled(g, t)[clean], EN_TOL)
    return problems


def check_gamma_monotone(name: str, en_by_gamma) -> list[str]:
    """EN must not rise with gamma; axis 0 runs over increasing gamma."""
    en = np.asarray(en_by_gamma, float)
    rise = float(np.max(np.diff(en, axis=0), initial=-np.inf))
    if rise > SLACK:
        return [f"{name}: EN rises by {rise:.3e} as gamma grows"]
    return []


def check_turning_points(name: str, zeros, expected) -> list[str]:
    """expected: None for no turning point, else (g_b, grid step)."""
    zeros = list(zeros)
    if expected is None:
        return [f"{name}: unexpected turning points {zeros}"] if zeros else []
    where, step = expected
    if len(zeros) != 1 or abs(zeros[0] - where) > step:
        return [f"{name}: turning points {zeros}, expected one within "
                f"{step:g} of {where:.6g}"]
    return []


def check_validate_report(report: dict) -> list[str]:
    checks = {c.get("name"): c for c in report.get("checks", [])}
    problems = [f"validate: check {n} missing" for n in VALIDATE_CHECKS
                if n not in checks]
    for name in VALIDATE_CHECKS:
        c = checks.get(name)
        if c is None:
            continue
        if c.get("skipped"):
            problems.append(f"validate: {name} skipped")
        dev, tol = c.get("max_dev"), c.get("tol")
        if not c.get("passed") or dev is None or tol is None \
                or not dev <= tol:
            problems.append(f"validate: {name} failed "
                            f"(max_dev {dev}, tol {tol})")
    return problems


# --- per-command checks on files ----------------------------------------------

def _preset_cell(preset: dict, overrides: dict | None = None) -> dict:
    system = preset["system"]
    dephasing = preset.get("dephasing", {})
    cell = {"g_a": system["g_a"], "g_b": system["g_b"],
            "gamma": dephasing.get("gamma", 0.0),
            "gamma_tp": dephasing.get("gamma_tp", 0.0)}
    drive = dict(system)
    if overrides:
        if {"F", "delta", "s"} & set(overrides):
            for key in ("F", "delta", "s"):
                drive.pop(key, None)
        drive.update(overrides)
        cell.update({k: v for k, v in overrides.items() if k in cell})
    cell["F"] = drive_F(drive)
    return cell


def _phase_cycles(time_rule: dict) -> float | None:
    if time_rule.get("kind", "phase") != "phase":
        return None
    return float(time_rule.get("cycles", 1.0))


def check_sweep(out: Path, preset: dict) -> list[str]:
    label = preset["label"]
    table = read_table(out / f"{label}_sweep.csv")
    axes = preset["sweep"]["axes"]
    base = _preset_cell(preset)
    n = len(table["en"])
    cells = {k: np.full(n, float(v)) for k, v in base.items()}
    for ax in axes:
        col = table[ax["name"]]
        if ax["name"] in ("F", "delta", "s"):
            cells["F"] = np.array([drive_F({ax["name"]: v}) for v in col])
        else:
            cells[ax["name"]] = col
    want_valid = cells["F"] < 0.25
    problems = []
    if not np.array_equal(table["valid"] == 1.0, want_valid):
        problems.append(f"{label} sweep: validity differs from F < 1/4")
    valid = want_valid & (table["valid"] == 1.0)
    en = table["en"][valid]
    problems += check_range(f"{label} sweep", en)
    cycles = _phase_cycles(preset["sweep"].get("time", {}))
    if cycles is not None:
        problems += check_phase_rule(
            f"{label} sweep", {k: v[valid] for k, v in cells.items()}, en,
            cycles)
    names = [ax["name"] for ax in axes]
    if "gamma" in names and len(axes) == 2 and valid.all():
        shape = tuple(ax["count"] for ax in axes)
        grid = table["en"].reshape(shape)
        if names.index("gamma") == 1:
            grid = grid.T
        problems += check_gamma_monotone(f"{label} sweep", grid)
    return problems


def check_rate(out: Path, preset: dict) -> list[str]:
    label = preset["label"]
    rate = preset["rate"]
    table = read_table(out / f"{label}_rate.csv")
    zeros = read_json(out / f"{label}_rate.json")["zero_crossings"]
    g = table["g"]
    cycles = _phase_cycles(rate.get("time", {}))
    problems = []
    for name, overrides in rate.get("variants") or [["base", {}]]:
        cell = _preset_cell(preset, overrides)
        cells = dict(cell, **{rate["which"]: g})
        en = table[f"en_{name}"]
        problems += check_range(f"{label} rate {name}", en)
        if cycles is None:
            continue
        problems += check_phase_rule(f"{label} rate {name}", cells, en,
                                     cycles)
        # EN turns where sin(2 g_eff t_1) first peaks; g_eff is linear in
        # the rate coupling, so that coupling is pi/2 over the slope
        other = cell["g_a"] if rate["which"] == "g_b" else cell["g_b"]
        slope = 2.0 * g_eff(cell["F"], other, 1.0) * \
            first_decoupling(cell["F"], cycles)
        peak = (math.pi / 2.0) / slope
        step = float(g[1] - g[0])
        inside = g[0] < peak < g[-1]
        problems += check_turning_points(
            f"{label} rate {name}", zeros.get(name, []),
            (peak, step) if inside else None)
    return problems


def check_timeseries_files(out: Path, label: str, table: dict) -> list[str]:
    """Each curve also lands in a .dat file, and a .gp script plots them."""
    stem = f"{label}_dynamics"
    problems = []
    for curve in (k for k in table if k != "t"):
        dat = out / f"{stem}_{curve.replace(':', '_')}.dat"
        if not dat.exists():
            problems.append(f"{label} dynamics: {dat.name} missing")
            continue
        problems += check_close(f"{dat.name}", read_table(dat)[curve],
                                table[curve], 0.0)
    if not (out / f"{stem}.gp").exists():
        problems.append(f"{label} dynamics: {stem}.gp missing")
    return problems


def decoupling_rows(t, F) -> np.ndarray:
    """Mask of grid times that fall on t_n = 2 pi n / omega_s, n >= 1."""
    period = first_decoupling(F)
    n = np.rint(t / period)
    return (n >= 1) & (np.abs(t - n * period) <= 1e-12 * np.maximum(t, 1.0))


def check_at_decoupling(name: str, table: dict, cell: dict,
                        column: str, tol: float) -> list[str]:
    t = table["t"]
    on = decoupling_rows(t, cell["F"])
    if not on.any():
        return [f"{name}: no grid time on a decoupling time"]
    g = g_eff(cell["F"], cell["g_a"], cell["g_b"])
    want = en_at_decoupling(g * t[on], t[on], cell["gamma"],
                            cell["gamma_tp"])
    return check_close(f"{name} at decoupling", table[column][on], want, tol)


def check_closed_form_series(name: str, table: dict, cell: dict,
                             column: str, preset: dict) -> list[str]:
    """A closed-form curve against `en_closed_form` at every grid time."""
    mediator = preset.get("mediator", {})
    want = en_closed_form(cell["F"], cell["g_a"], cell["g_b"], table["t"],
                          cell["gamma"], cell["gamma_tp"],
                          mediator.get("xi_mag"),
                          mediator.get("theta", math.pi))
    return check_close(f"{name} vs closed form", table[column], want, EN_TOL)


def check_dynamics_closed_form(out: Path, preset: dict) -> list[str]:
    label = preset["label"]
    table = read_table(out / f"{label}_dynamics.csv")
    variants = preset["dynamics"].get("variants") or [["base", {}]]
    problems = check_timeseries_files(out, label, table)
    series = []
    for name, overrides in variants:
        column = f"{name}:tp_qubit:analytic"
        if column not in table:
            problems.append(f"{label} dynamics: column {column} missing")
            continue
        problems += check_range(f"{label} dynamics {name}", table[column])
        cell = _preset_cell(preset, overrides)
        problems += check_closed_form_series(f"{label} dynamics {name}",
                                             table, cell, column, preset)
        series.append((cell["gamma"], cell, table[column]))
    # across variants that differ only in gamma, EN falls as gamma grows
    drives = {(c["F"], c["g_a"], c["g_b"], c["gamma_tp"])
              for _, c, _ in series}
    if len(series) > 1 and len(drives) == 1:
        series.sort(key=lambda s: s[0])
        problems += check_gamma_monotone(f"{label} dynamics",
                                         [en for _, _, en in series])
    return problems


def check_oracle_dynamics(out: Path, preset: dict) -> list[str]:
    """fig3a-style runs: oracle vs closed form, mediator cuts at t_n."""
    label = preset["label"]
    table = read_table(out / f"{label}_dynamics.csv")
    problems = check_timeseries_files(out, label, table)
    for name, overrides in preset["dynamics"].get("variants") or \
            [["base", {}]]:
        cell = _preset_cell(preset, overrides)
        ana = f"{name}:tp_qubit:analytic"
        fock = f"{name}:tp_qubit:fock"
        if ana not in table or fock not in table:
            problems.append(f"{label} dynamics {name}: tp_qubit columns "
                            "missing")
            continue
        for col in (ana, fock):
            problems += check_range(f"{label} {col}", table[col])
        problems += check_close(f"{label} {name} fock vs analytic",
                                table[fock], table[ana], ORACLE_TOL)
        problems += check_closed_form_series(f"{label} {ana}", table, cell,
                                             ana, preset)
        problems += check_at_decoupling(f"{label} {ana}", table, cell, ana,
                                        EN_TOL)
        problems += check_at_decoupling(f"{label} {fock}", table, cell,
                                        fock, ORACLE_TOL)
        on = decoupling_rows(table["t"], cell["F"])
        for cut in ("tp_mediator", "qubit_mediator"):
            col = table.get(f"{name}:{cut}:fock")
            if col is None:
                problems.append(f"{label} dynamics: {cut} column missing")
                continue
            problems += check_range(f"{label} {name} {cut}", col)
            problems += check_close(f"{label} {name} {cut} at decoupling",
                                    col[on], np.zeros(on.sum()), ORACLE_TOL)
    return problems


def check_oracle_variants(out: Path, preset: dict) -> list[str]:
    """fig6-style runs: every variant's TP-qubit oracle curve coincides."""
    label = preset["label"]
    table = read_table(out / f"{label}_dynamics.csv")
    problems = check_timeseries_files(out, label, table)
    names = [name for name, _ in preset["dynamics"]["variants"]]
    curves = []
    for name in names:
        col = table.get(f"{name}:tp_qubit:fock")
        if col is None:
            problems.append(f"{label}: column {name}:tp_qubit:fock missing")
            continue
        problems += check_range(f"{label} {name}", col)
        curves.append((name, col))
    for name, col in curves[1:]:
        problems += check_close(f"{label} {name} vs {curves[0][0]}", col,
                                curves[0][1], ORACLE_TOL)
    return problems


def check_feasibility(out: Path, preset: dict) -> list[str]:
    report = read_json(out / f"{preset['label']}_feasibility.json")
    golden = report.get("golden", {})
    if golden.get("all_pass") is not True:
        return ["feasibility: published values not matched"]
    return []


def check_validate(out: Path, preset: dict) -> list[str]:
    return check_validate_report(
        read_json(out / f"{preset['label']}_validate.json"))
