"""Cross-validation of the closed-form dynamics against the Fock oracle.

Seven independent checks, each comparing quantities computed through two
code paths that share no dynamical formulas: displaced-squeezed overlaps,
the full 4x4 partial-transpose matrix, EN time series, mediator
decoupling, the decoupling-time closed form, linear-drive irrelevance,
and lab-vs-squeezed frame agreement.  Each returns a `params.Check`, a
deviation of at most a tolerance, and `run_validation` gathers them in a
`params.Report` over the base system.  The constants below, and the
oracle's `fock.TAIL_TOL` and `fock.EN_CONVERGENCE`, fix the policy.

Every oracle cutoff comes from the one bounded row search
`fock.search_cutoff`: it starts at a given N, which it always tries, and
doubles it up to a ceiling, 512 for EN curves and 1024 for overlaps and
the partial-transpose matrix, then raises NoConvergence with the history
of every N tried.  Each check reports that as a failed check whose note
is the search's message, never as a crash; checks that need the
lab-frame oracle are skipped with a note once the squeezing parameter
puts lab occupations out of reach.  Apart from the overlap tuples, every
row is a `fock.converge_cutoff` trajectory; the partial-transpose frames
share one search, and so do the three linear drives.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, replace

import numpy as np

from . import fock
from .config import RunConfig
from .dynamics import (MediatorInit, displaced_overlap, en_at_decoupling,
                       en_timeseries, partial_transpose_matrix)
from .errors import NoConvergence
from .negativity import log_negativity_from_partial_transpose
from .params import Check, ModelParams, Report, derive_squeezed_frame

# Lab-frame state preparation costs an extra squeeze on top of the frame
# transformation, so occupations scale like e^{4s}; past this value the
# lab oracle cannot represent the initial state at any sane cutoff.
LAB_FRAME_S_MAX = 1.0
FRAME_EQUIVALENCE_S_MAX = 0.5  # the same bound, tighter, of frame_equivalence
PT_TAIL = 1e-14  # Fock tail tolerance of check_pt_matrix
OVERLAP_TAIL = 1e-10  # Fock tail tolerance of check_overlap_closed_form
# Seed and sample counts of the base-independent checks, start N of the
# pt-matrix and squeezed frame-equivalence searches, times per EN curve
# and the tolerances; PT_TOL is 1,000 times the 9.4e-13 every base reads
SEED = 20240811
OVERLAP_SAMPLES = 200
PT_SAMPLES = 20
FOCK_N = 64
T_POINTS = 25
OVERLAP_TOL = 1e-8
PT_TOL = 1e-9
EN_TOL = 1e-3


def _check(name: str):
    """Make the check `name` of a measurement that returns (max_dev, tol,
    note), or a note when the point is out of the oracle's reach.

    A cutoff search that finds no cutoff makes a failed check whose note
    is the search's message.
    """
    def wrap(measure):
        @functools.wraps(measure)
        def check(*args, **kwargs) -> Check:
            try:
                result = measure(*args, **kwargs)
            except NoConvergence as exc:
                return Check(name, False, note=str(exc))
            if isinstance(result, str):
                return Check(name, True, skipped=True, note=result)
            return Check.bound(name, *result)
        return check
    return wrap


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


@_check("overlap_closed_form_vs_fock")
def check_overlap_closed_form() -> Check:
    """Closed-form displaced-squeezed overlap vs brute-force truncation."""
    rng = np.random.default_rng(SEED)
    tuples = []
    for _ in range(OVERLAP_SAMPLES):
        a_i = complex(rng.normal(0, 1.0), rng.normal(0, 1.0))
        a_j = complex(rng.normal(0, 1.0), rng.normal(0, 1.0))
        alpha0 = complex(rng.normal(0, 0.7), rng.normal(0, 0.7))
        tuples.append((a_i, a_j, MediatorInit(
            alpha0=alpha0, xi_mag=rng.uniform(0.0, 1.0),
            theta=rng.uniform(0.0, 2.0 * math.pi))))
    ana = [displaced_overlap(*t) for t in tuples]
    orc = fock.fock_overlap(*zip(*tuples), tail_tol=OVERLAP_TAIL)
    worst = float(np.max(np.abs(np.subtract(ana, orc))))
    return worst, OVERLAP_TOL, f"{OVERLAP_SAMPLES} randomized tuples"


@_check("pt_matrix_vs_fock")
def check_pt_matrix() -> Check:
    """Entrywise analytic vs oracle partial-transpose matrix, gamma = 0.

    The entrywise truncation error is bounded by about the square root
    of the tail occupation, 1e-7 at PT_TAIL, but reads 9.4e-13 at the
    cutoffs the search accepts; PT_TOL is set against that reading."""
    rng = np.random.default_rng(SEED + 1)
    rows, ana = [], []
    for _ in range(PT_SAMPLES):
        s = rng.uniform(0.0, 0.5)
        params = ModelParams.dimensionless(
            g_a=rng.uniform(0.005, 0.05), g_b=rng.uniform(0.3, 1.2), s=s)
        frame = derive_squeezed_frame(params)
        init = MediatorInit(alpha0=complex(rng.normal(0, 0.7),
                                           rng.normal(0, 0.7)))
        t = rng.uniform(0.1, 1.9) * frame.t_period
        rows.append((params, init, [t], "squeezed"))
        ana.append(partial_transpose_matrix(frame, init, t))
    curves, rep = fock.converge_cutoff(rows, PT_TAIL, FOCK_N, 1024, cuts=())
    orc = [fock.cut_pt(c["states"], n, "tp_qubit")[0]
           for c, n in zip(curves, rep.n)]
    worst = float(np.max(np.abs(np.subtract(ana, orc))))
    return worst, PT_TOL, f"{PT_SAMPLES} random frames, s <= 0.5"


@_check("en_timeseries_analytic_vs_fock")
def check_en_timeseries(params: ModelParams, init: MediatorInit) -> Check:
    frame = derive_squeezed_frame(params)
    t_grid = np.linspace(0.0, 2.0 * frame.t_period, T_POINTS)
    [curves], rep = fock.converge_cutoff(
        [(params, init, t_grid, "squeezed")], fock.TAIL_TOL, 2, 512,
        fock.EN_CONVERGENCE)
    ana = en_timeseries(frame, init, t_grid)
    dev = float(np.max(np.abs(ana - curves["tp_qubit"])))
    return dev, EN_TOL, (f"N = {rep.n[0]}, {T_POINTS} times over two "
                         "mediator periods")


@_check("mediator_decoupling_at_tn")
def check_decoupling(params: ModelParams, init: MediatorInit) -> Check:
    """Mediator EN vanishes at t_n in the oracle (both mediator cuts, of
    the states at the cutoff the TP-qubit search accepts)."""
    frame = derive_squeezed_frame(params)
    t_n = [frame.decoupling_time(1), frame.decoupling_time(2)]
    [curves], rep = fock.converge_cutoff(
        [(params, init, t_n, "squeezed")], fock.TAIL_TOL, 2, 512,
        fock.EN_CONVERGENCE)
    dev = float(np.max([log_negativity_from_partial_transpose(
        fock.cut_pt(curves["states"], rep.n[0], cut))
        for cut in ("tp_mediator", "qubit_mediator")]))
    return dev, EN_TOL, f"N = {rep.n[0]}, first two decoupling times"


@_check("closed_form_at_tn")
def check_closed_form_at_tn(params: ModelParams, init: MediatorInit) -> Check:
    """Full matrix pipeline vs the one-line decoupling formula."""
    frame = derive_squeezed_frame(params)
    t_n = [frame.decoupling_time(k) for k in (1, 2, 3)]
    en = log_negativity_from_partial_transpose(
        partial_transpose_matrix(frame, init, t_n))
    worst = max(abs(float(e) - en_at_decoupling(frame.g_eff, t))
                for e, t in zip(en, t_n))
    return worst, 1e-10, "first three decoupling times"


@_check("epsilon_irrelevance")
def check_epsilon_irrelevance(params: ModelParams,
                              init: MediatorInit) -> Check:
    """A common linear drive must not move the TP-qubit EN curve."""
    frame = derive_squeezed_frame(params)
    if frame.s > LAB_FRAME_S_MAX:
        return (f"s = {frame.s:.4g} > {LAB_FRAME_S_MAX}: lab-frame oracle "
                "out of reach, check skipped (frame restriction)")
    t_grid = np.linspace(0.0, 2.0 * 2.0 * math.pi / params.omega_tilde,
                         T_POINTS)
    curves, rep = fock.converge_cutoff(
        [(replace(params, epsilon=eps), init, t_grid, "lab")
         for eps in (0.0, 0.1 * params.omega_tilde, params.omega_tilde)],
        fock.TAIL_TOL, 96, 512)
    dev = max(float(np.max(np.abs(c["tp_qubit"] - curves[0]["tp_qubit"])))
              for c in curves[1:])
    return dev, EN_TOL, (f"N = {rep.n[-1]}, lab-frame drive 0, 0.1, 1 in "
                         "mediator units")


@_check("frame_equivalence")
def check_frame_equivalence(params: ModelParams, init: MediatorInit) -> Check:
    """Lab-frame and squeezed-frame oracles agree on EN(t)."""
    frame = derive_squeezed_frame(params)
    if frame.s > FRAME_EQUIVALENCE_S_MAX:
        return (f"s = {frame.s:.4g} > {FRAME_EQUIVALENCE_S_MAX}: lab-frame "
                "preparation out of reach, check skipped (frame restriction)")
    t_grid = np.linspace(0.0, 2.0 * frame.t_period, T_POINTS)
    [lab], lab_rep = fock.converge_cutoff(
        [(params, init, t_grid, "lab")], fock.TAIL_TOL, 128, 512)
    [sq], sq_rep = fock.converge_cutoff(
        [(params, init, t_grid, "squeezed")], fock.TAIL_TOL, FOCK_N, 512)
    dev = float(np.max(np.abs(lab["tp_qubit"] - sq["tp_qubit"])))
    return dev, EN_TOL, f"N = {lab_rep.n[0]} lab, {sq_rep.n[0]} squeezed"


def run_validation(cfg: RunConfig) -> Report:
    """Run the whole suite against the configured base system."""
    params = _base_params(cfg)
    frame = derive_squeezed_frame(params)
    return Report((
        check_overlap_closed_form(),
        check_pt_matrix(),
        *(check(params, cfg.mediator) for check in (
            check_en_timeseries, check_decoupling, check_closed_form_at_tn,
            check_epsilon_irrelevance, check_frame_equivalence)),
    ), {"g_a": params.g_a, "g_b": params.g_b, "F": params.F, "s": frame.s,
        "omega_s": frame.omega_s, "seed": SEED})


__all__ = [
    "LAB_FRAME_S_MAX", "check_overlap_closed_form", "check_pt_matrix",
    "check_en_timeseries", "check_decoupling", "check_closed_form_at_tn",
    "check_epsilon_irrelevance", "check_frame_equivalence",
    "run_validation",
]
