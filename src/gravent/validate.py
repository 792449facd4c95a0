"""Cross-validation of the closed-form dynamics against the Fock oracle.

Seven independent checks, each comparing quantities computed through two
code paths that share no dynamical formulas: displaced-squeezed overlaps,
the full 4x4 partial-transpose matrix, EN time series, mediator
decoupling, the decoupling-time closed form, linear-drive irrelevance,
and lab-vs-squeezed frame agreement.  Every oracle cutoff comes from the
one bounded search `fock.search_cutoff`: it starts at a given N, which
it always tries, and doubles it up to a ceiling, 512 for EN curves and 1024 for overlaps and
the partial-transpose matrix, then raises NoConvergence with the history
of every N tried.  Each check reports that as a failed check whose note
is the search's message, never as a crash; checks that need the
lab-frame oracle are skipped with a note once the squeezing parameter
puts lab occupations out of reach.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import fock
from .config import RunConfig, ValidateSection
from .dynamics import (MediatorInit, displaced_overlap, en_at_decoupling,
                       en_timeseries, partial_transpose_matrix)
from .errors import NoConvergence
from .negativity import log_negativity_from_partial_transpose
from .params import ModelParams, derive_squeezed_frame

# Lab-frame state preparation costs an extra squeeze on top of the frame
# transformation, so occupations scale like e^{4s}; past this value the
# lab oracle cannot represent the initial state at any sane cutoff.
LAB_FRAME_S_MAX = 1.0


@dataclass
class CheckResult:
    name: str
    passed: bool
    skipped: bool = False
    max_dev: float | None = None
    tol: float | None = None
    note: str = ""

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class ValidationReport:
    checks: list[CheckResult] = field(default_factory=list)
    base: dict = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(c.passed or c.skipped for c in self.checks)

    def as_dict(self) -> dict:
        return {"all_pass": self.all_pass, "base": self.base,
                "checks": [c.as_dict() for c in self.checks]}


def _base_params(cfg: RunConfig) -> ModelParams:
    """Dimensionless parameters for the dynamic checks.

    SI systems are rescaled by omega_tilde; the dynamics is covariant
    under this, so the comparison loses nothing.
    """
    from .config import resolve_dimensionless, resolve_si
    if cfg.mode == "dimensionless":
        return resolve_dimensionless(cfg)
    _, p, _ = resolve_si(cfg)
    w = p.omega_tilde
    return ModelParams(**{k: v / w for k, v in asdict(p).items()})


def check_overlap_closed_form(v: ValidateSection) -> CheckResult:
    """Closed-form displaced-squeezed overlap vs brute-force truncation."""
    rng = np.random.default_rng(v.seed)
    worst = 0.0
    for _ in range(v.overlap_samples):
        a_i = complex(rng.normal(0, 1.0), rng.normal(0, 1.0))
        a_j = complex(rng.normal(0, 1.0), rng.normal(0, 1.0))
        alpha0 = complex(rng.normal(0, 0.7), rng.normal(0, 0.7))
        init = MediatorInit(alpha0=alpha0, xi_mag=rng.uniform(0.0, 1.0),
                            theta=rng.uniform(0.0, 2.0 * math.pi))
        ana = displaced_overlap(a_i, a_j, init)
        try:
            orc = fock.fock_overlap(a_i, a_j, init, tail_tol=1e-10)
        except NoConvergence as exc:
            return CheckResult("overlap_closed_form_vs_fock", False,
                               note=str(exc))
        worst = max(worst, abs(ana - orc))
    return CheckResult("overlap_closed_form_vs_fock", worst <= v.overlap_tol,
                       max_dev=worst, tol=v.overlap_tol,
                       note=f"{v.overlap_samples} randomized tuples")


def check_pt_matrix(v: ValidateSection) -> CheckResult:
    """Entrywise analytic vs oracle partial-transpose matrix, gamma = 0."""
    rng = np.random.default_rng(v.seed + 1)
    worst = 0.0
    for _ in range(v.pt_samples):
        s = rng.uniform(0.0, 0.5)
        params = ModelParams.dimensionless(
            g_a=rng.uniform(0.005, 0.05), g_b=rng.uniform(0.3, 1.2), s=s)
        frame = derive_squeezed_frame(params)
        init = MediatorInit(alpha0=complex(rng.normal(0, 0.7),
                                           rng.normal(0, 0.7)))
        t = rng.uniform(0.1, 1.9) * frame.t_period
        ana = partial_transpose_matrix(frame, init, t)

        def oracle(n: int) -> np.ndarray:
            # the entrywise truncation error grows like the square root of
            # the tail occupation, so the tail must sit well below pt_tol^2
            states = fock.trajectory(params, frame, init, [t], n, cuts=(),
                                     tail_tol=1e-14)["states"]
            return fock.cut_pt(states, n, "tp_qubit")[0]

        try:
            orc, _ = fock.search_cutoff(oracle, v.fock_n, 1024)
        except NoConvergence as exc:
            return CheckResult("pt_matrix_vs_fock", False, note=str(exc))
        worst = max(worst, float(np.max(np.abs(ana - orc))))
    return CheckResult("pt_matrix_vs_fock", worst <= v.pt_tol,
                       max_dev=worst, tol=v.pt_tol,
                       note=f"{v.pt_samples} random frames, s <= 0.5")


def check_en_timeseries(params: ModelParams, init: MediatorInit,
                        v: ValidateSection, fock_tail: float,
                        en_convergence: float) -> CheckResult:
    frame = derive_squeezed_frame(params)
    t_grid = np.linspace(0.0, 2.0 * frame.t_period, v.t_points)
    try:
        rep = fock.converge_cutoff(params, init, t_grid,
                                   en_tol=en_convergence, tail_tol=fock_tail)
    except NoConvergence as exc:
        return CheckResult("en_timeseries_analytic_vs_fock", False,
                           note=str(exc))
    ana = en_timeseries(frame, init, t_grid)
    dev = float(np.max(np.abs(ana - rep.curves["tp_qubit"])))
    return CheckResult("en_timeseries_analytic_vs_fock", dev <= v.en_tol,
                       max_dev=dev, tol=v.en_tol,
                       note=f"N = {rep.n}, {v.t_points} times over two "
                            "mediator periods")


def check_decoupling(params: ModelParams, init: MediatorInit,
                     v: ValidateSection, fock_tail: float) -> CheckResult:
    """Mediator EN vanishes at t_n in the oracle (both mediator cuts)."""
    frame = derive_squeezed_frame(params)
    t_n = [frame.decoupling_time(1), frame.decoupling_time(2)]
    try:
        rep = fock.converge_cutoff(params, init, t_n, tail_tol=fock_tail)
    except NoConvergence as exc:
        return CheckResult("mediator_decoupling_at_tn", False, note=str(exc))
    dev = max(float(np.max(log_negativity_from_partial_transpose(
        fock.cut_pt(rep.curves["states"], rep.n, cut))))
        for cut in ("tp_mediator", "qubit_mediator"))
    return CheckResult("mediator_decoupling_at_tn", dev <= v.en_tol,
                       max_dev=dev, tol=v.en_tol,
                       note=f"N = {rep.n}, first two decoupling times")


def check_closed_form_at_tn(params: ModelParams,
                            init: MediatorInit) -> CheckResult:
    """Full matrix pipeline vs the one-line decoupling formula.

    At strong squeezing the ratio g_s/omega_s amplifies the rounding of
    omega_s * t_n into visible residual branch displacements, so the
    tolerance carries a self-measured rounding floor: EN is re-evaluated
    a few ulps of t_n away and the observed spread bounds what floating
    point alone can move.
    """
    frame = derive_squeezed_frame(params)
    t_n = np.array([frame.decoupling_time(k) for k in (1, 2, 3)])
    ulps = 4 * np.spacing(t_n)
    en = log_negativity_from_partial_transpose(partial_transpose_matrix(
        frame, init, np.stack([t_n, t_n + ulps, t_n - ulps])))
    worst = max(abs(float(e) - en_at_decoupling(frame.g_eff, t))
                for e, t in zip(en[0], t_n))
    floor = float(np.max(np.abs(en[1:] - en[0])))
    tol = max(1e-10, 8.0 * floor)
    note = "first three decoupling times"
    if tol > 1e-10:
        note += f", rounding floor {floor:.1e} from ulp jitter in t_n"
    return CheckResult("closed_form_at_tn", worst <= tol, max_dev=worst,
                       tol=tol, note=note)


def check_epsilon_irrelevance(params: ModelParams, init: MediatorInit,
                              v: ValidateSection,
                              fock_tail: float) -> CheckResult:
    """A common linear drive must not move the TP-qubit EN curve."""
    frame = derive_squeezed_frame(params)
    if frame.s > LAB_FRAME_S_MAX:
        return CheckResult("epsilon_irrelevance", True, skipped=True,
                           note=f"s = {frame.s:.4g} > {LAB_FRAME_S_MAX}: "
                                "lab-frame oracle out of reach, check "
                                "skipped (frame restriction)")
    t_grid = np.linspace(0.0, 2.0 * 2.0 * math.pi / params.omega_tilde,
                         v.t_points)
    curves = []
    for eps in (0.0, 0.1 * params.omega_tilde, params.omega_tilde):
        try:
            rep = fock.converge_cutoff(replace(params, epsilon=eps), init,
                                       t_grid, "lab", None, fock_tail,
                                       max(v.fock_n, 96))
        except NoConvergence as exc:
            return CheckResult("epsilon_irrelevance", False, note=str(exc))
        curves.append(rep.curves["tp_qubit"])
    dev = float(np.max(np.abs(np.array(curves[1:]) - curves[0])))
    return CheckResult("epsilon_irrelevance", dev <= v.en_tol, max_dev=dev,
                       tol=v.en_tol,
                       note=f"N = {rep.n}, lab-frame drive 0, 0.1, 1 in "
                            "mediator units")


def check_frame_equivalence(params: ModelParams, init: MediatorInit,
                            v: ValidateSection,
                            fock_tail: float) -> CheckResult:
    """Lab-frame and squeezed-frame oracles agree on EN(t)."""
    frame = derive_squeezed_frame(params)
    if frame.s > 0.5:
        return CheckResult("frame_equivalence", True, skipped=True,
                           note=f"s = {frame.s:.4g} > 0.5: lab-frame "
                                "preparation out of reach, check skipped "
                                "(frame restriction)")
    t_grid = np.linspace(0.0, 2.0 * frame.t_period, v.t_points)
    try:
        lab = fock.converge_cutoff(params, init, t_grid, "lab", None,
                                   fock_tail, max(v.fock_n, 128))
        sq = fock.converge_cutoff(params, init, t_grid, "squeezed", None,
                                  fock_tail, v.fock_n)
    except NoConvergence as exc:
        return CheckResult("frame_equivalence", False, note=str(exc))
    dev = float(np.max(np.abs(lab.curves["tp_qubit"]
                              - sq.curves["tp_qubit"])))
    return CheckResult("frame_equivalence", dev <= v.en_tol, max_dev=dev,
                       tol=v.en_tol, note=f"N = {lab.n} lab, {sq.n} squeezed")


def run_validation(cfg: RunConfig) -> ValidationReport:
    """Run the whole suite against the configured base system."""
    v = cfg.validate if cfg.validate is not None else ValidateSection()
    params = _base_params(cfg)
    init = cfg.mediator
    frame = derive_squeezed_frame(params)
    report = ValidationReport(base={
        "g_a": params.g_a, "g_b": params.g_b, "F": params.F,
        "s": frame.s, "omega_s": frame.omega_s, "seed": v.seed})
    report.checks.append(check_overlap_closed_form(v))
    report.checks.append(check_pt_matrix(v))
    report.checks.append(check_en_timeseries(
        params, init, v, cfg.tolerances.fock_tail,
        cfg.tolerances.en_convergence))
    report.checks.append(check_decoupling(params, init, v,
                                          cfg.tolerances.fock_tail))
    report.checks.append(check_closed_form_at_tn(params, init))
    report.checks.append(check_epsilon_irrelevance(
        params, init, v, cfg.tolerances.fock_tail))
    report.checks.append(check_frame_equivalence(
        params, init, v, cfg.tolerances.fock_tail))
    return report


__all__ = [
    "LAB_FRAME_S_MAX", "CheckResult", "ValidationReport",
    "check_overlap_closed_form", "check_pt_matrix", "check_en_timeseries",
    "check_decoupling", "check_closed_form_at_tn",
    "check_epsilon_irrelevance", "check_frame_equivalence",
    "run_validation",
]
