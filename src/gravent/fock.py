"""Dense Fock-space oracle for the TP-qubit-mediator system.

Brute-force reference implementation on the truncated 2 x 2 x N product
space: build the full Hamiltonian matrix, diagonalize once, evolve along
any time grid, reduce to any bipartition.  Nothing here reuses the
closed-form branch solution, so agreement with the analytic module is a
genuine cross-check rather than a tautology.

Basis ordering: index = tp * (2 * N) + qubit * N + n with tp in {0: |R>,
1: |L>}, qubit in {0: |0>, 1: |1>}, n the Fock level.  This makes the
reduced TP-qubit matrix come out directly in the |R,0>, |R,1>, |L,0>,
|L,1> order used by the analytic module.

The truncation budget is what limits this oracle: a frame squeezing
parameter s enlarges the initial occupation like e^{2s} (and like e^{4s}
when mapping squeezed-frame states to the lab mode), so lab-frame checks
are only sensible for s up to about 1 and the strongly driven regimes
must be validated in the squeezed frame or in closed form.

Every cutoff is chosen by one bounded search, `search_cutoff`: it starts
at a given N, which it always tries, and doubles it up to a ceiling, 512
for EN curves and 1024 for overlaps and the partial-transpose matrix.
Past the ceiling it raises NoConvergence carrying the history of every
N tried and why it was rejected; that is the only way the oracle gives
up.  One run at a fixed N, in the lab or the squeezed frame, is
`trajectory`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .dynamics import MediatorInit
from .errors import CutoffTooSmall, DimensionMismatch, EigenFailure, \
    NoConvergence
from .negativity import en_bipartition
from .params import ModelParams, SqueezedFrame, derive_squeezed_frame

# sigma_a^z = |L><L| - |R><R| in basis [R, L]; sigma_b^z likewise in [0, 1]
SIGMA_Z = np.diag([-1.0, 1.0])

TP_QUBIT = ((0,), (1,))
TP_MEDIATOR = ((0,), (2,))
QUBIT_MEDIATOR = ((1,), (2,))

BIPARTITIONS = {"tp_qubit": TP_QUBIT, "tp_mediator": TP_MEDIATOR,
                "qubit_mediator": QUBIT_MEDIATOR}


def destroy(n: int) -> np.ndarray:
    """Truncated annihilation operator."""
    if n < 1:
        raise DimensionMismatch("cutoff must be >= 1")
    return np.diag(np.sqrt(np.arange(1.0, n)), 1).astype(complex)


def coherent_vector(alpha: complex, n: int) -> tuple[np.ndarray, float]:
    """Truncated coherent amplitudes and the probability mass cut off."""
    v = np.zeros(n, complex)
    v[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for k in range(1, n):
        v[k] = v[k - 1] * alpha / math.sqrt(k)
    tail = max(0.0, 1.0 - float(np.vdot(v, v).real))
    return v, tail


def displacement_matrix(alpha: complex, n: int) -> np.ndarray:
    a = destroy(n)
    return expm(alpha * a.conj().T - np.conj(alpha) * a)


def squeeze_matrix(xi: complex, n: int) -> np.ndarray:
    """exp[(conj(xi) a^2 - xi a^dag^2) / 2], exactly unitary on the cutoff."""
    a = destroy(n)
    ad = a.conj().T
    return expm(0.5 * (np.conj(xi) * (a @ a) - xi * (ad @ ad)))


def _squeezed_coherent(init: MediatorInit, n: int,
                       frame: SqueezedFrame | None,
                       tail_tol: float) -> np.ndarray:
    """S(xi) |alpha0> on the cutoff, once |alpha0> itself fits."""
    coh, tail = coherent_vector(complex(init.alpha0), n)
    if tail > tail_tol:
        raise CutoffTooSmall(
            f"coherent amplitude {init.alpha0} does not fit in N = {n}", tail)
    return squeeze_matrix(init.xi(frame), n) @ coh


def _fits(vec: np.ndarray, n: int, tail_tol: float, what: str) -> np.ndarray:
    """vec, unless its top two Fock levels hold more than tail_tol."""
    edge = float(np.sum(np.abs(vec[-2:]) ** 2))
    if edge > tail_tol:
        raise CutoffTooSmall(f"{what} leaks at N = {n}", edge)
    return vec


def mediator_vector(init: MediatorInit, n: int,
                    frame: SqueezedFrame | None = None,
                    tail_tol: float = 1e-8) -> np.ndarray:
    """Normalized Fock amplitudes of S(xi) |alpha0>."""
    vec = _fits(_squeezed_coherent(init, n, frame, tail_tol), n, tail_tol,
                "squeezed state")
    return vec / np.linalg.norm(vec)


def lab_mediator_vector(init: MediatorInit, frame: SqueezedFrame, n: int,
                        tail_tol: float = 1e-8) -> np.ndarray:
    """The same physical state expressed in the lab mode.

    The squeezed-frame mode relates to the lab mode through a Bogoliubov
    rotation generated by S(s); mapping the state back costs one more
    squeeze, so occupations grow like e^{4s} and this is the step that
    rules out lab-frame oracles deep in the driven regime.
    """
    vec = _squeezed_coherent(init, n, frame, tail_tol)
    vec = _fits(squeeze_matrix(frame.s, n).conj().T @ vec, n, tail_tol,
                "lab-mode image of the initial state")
    return vec / np.linalg.norm(vec)


def displaced_squeezed_vector(shift: complex, init: MediatorInit, n: int,
                              frame: SqueezedFrame | None = None,
                              tail_tol: float = 1e-10) -> np.ndarray:
    """D(shift) S(xi) |alpha0> by explicit matrix exponentials."""
    vec = _squeezed_coherent(init, n, frame, tail_tol)
    return _fits(displacement_matrix(shift, n) @ vec, n, tail_tol,
                 "displaced state")


def fock_overlap(a_i: complex, a_j: complex, init: MediatorInit,
                 frame: SqueezedFrame | None = None,
                 tail_tol: float = 1e-10, n_start: int = 64,
                 n_max: int = 1024) -> complex:
    """Inner product <a_i, zeta | a_j, zeta> by brute truncation.

    The cutoff doubles until both vectors pass the tail criterion.
    """
    def attempt(n: int) -> complex:
        vi = displaced_squeezed_vector(a_i, init, n, frame, tail_tol)
        vj = displaced_squeezed_vector(a_j, init, n, frame, tail_tol)
        return complex(np.vdot(vi, vj))

    overlap, _ = search_cutoff(attempt, n_start, n_max)
    return overlap


def _kron3(u: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    return np.kron(np.kron(u, v), w)


def build_hamiltonian_lab(params: ModelParams, n: int) -> np.ndarray:
    """Full lab-frame Hamiltonian on 2 x 2 x N, including the linear drive."""
    a = destroy(n)
    ad = a.conj().T
    x = a + ad
    i2 = np.eye(2)
    inn = np.eye(n)
    h = params.omega_a * _kron3(SIGMA_Z, i2, inn) \
        + params.omega_b * _kron3(i2, SIGMA_Z, inn) \
        + (params.omega_tilde - 2.0 * params.F) * _kron3(i2, i2, ad @ a) \
        - params.F * _kron3(i2, i2, a @ a + ad @ ad) \
        + params.epsilon * _kron3(i2, i2, x) \
        + params.g_a * _kron3(SIGMA_Z, i2, x) \
        + params.g_b * _kron3(i2, SIGMA_Z, x)
    return h


def build_hamiltonian_squeezed(frame: SqueezedFrame, omega_a: float,
                               omega_b: float, n: int) -> np.ndarray:
    """Squeezed-frame Hamiltonian: stiff oscillator, boosted couplings."""
    a = destroy(n)
    x = a + a.conj().T
    i2 = np.eye(2)
    inn = np.eye(n)
    return omega_a * _kron3(SIGMA_Z, i2, inn) \
        + omega_b * _kron3(i2, SIGMA_Z, inn) \
        + frame.omega_s * _kron3(i2, i2, a.conj().T @ a) \
        + frame.g_a_s * _kron3(SIGMA_Z, i2, x) \
        + frame.g_b_s * _kron3(i2, SIGMA_Z, x)


def prepare_initial(init: MediatorInit, n: int,
                    frame: SqueezedFrame | None = None,
                    tail_tol: float = 1e-8,
                    lab_mode: bool = False) -> np.ndarray:
    """(|L> + |R>)/sqrt2 x (|0> + |1>)/sqrt2 x mediator, as a 4N vector."""
    spin = np.array([1.0, 1.0]) / math.sqrt(2.0)
    if lab_mode:
        if frame is None:
            raise ValueError("lab_mode requires the frame")
        med = lab_mediator_vector(init, frame, n, tail_tol)
    else:
        med = mediator_vector(init, n, frame, tail_tol)
    return _kron3(spin, spin, med)


class ExactPropagator:
    """One eigendecomposition, reused across a whole time grid."""

    def __init__(self, h: np.ndarray):
        h = np.asarray(h)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise DimensionMismatch("Hamiltonian must be square")
        try:
            self.w, self.v = np.linalg.eigh(h)
        except np.linalg.LinAlgError as exc:
            raise EigenFailure(str(exc)) from exc

    def evolve_grid(self, psi0: np.ndarray, t_grid) -> np.ndarray:
        """Stack of evolved states, one row per time."""
        c = self.v.conj().T @ np.asarray(psi0, complex)
        ts = np.asarray(t_grid, float)
        phases = np.exp(-1j * np.outer(ts, self.w))
        return (phases * c) @ self.v.T


def tail_occupation(psi: np.ndarray, n: int) -> float:
    """Population of the top Fock level, summed over the spins."""
    return float(np.sum(np.abs(psi.reshape(4, n)[:, -1]) ** 2))


def en_curves(h: np.ndarray, psi0: np.ndarray, t_grid, n: int,
              cuts: dict[str, tuple] | None = None) -> dict[str, np.ndarray]:
    """EN along a trajectory for the requested bipartitions.

    The result also holds the top-level occupation under "tail" and the
    evolved states, one row per time, under "states".
    """
    if cuts is None:
        cuts = {"tp_qubit": TP_QUBIT}
    prop = ExactPropagator(h)
    states = prop.evolve_grid(psi0, t_grid)
    dims = (2, 2, n)
    out = {name: np.empty(len(states)) for name in cuts}
    out["tail"] = np.empty(len(states))
    for k, psi in enumerate(states):
        out["tail"][k] = tail_occupation(psi, n)
        for name, (sa, sb) in cuts.items():
            out[name][k] = en_bipartition(psi, dims, sa, sb)
    out["states"] = states
    return out


def trajectory(params: ModelParams, frame: SqueezedFrame,
               init: MediatorInit, t_grid, n: int,
               hamiltonian: str = "squeezed",
               cuts: dict[str, tuple] | None = None,
               tail_tol: float = 1e-8) -> dict[str, np.ndarray]:
    """One oracle run at cutoff n: the en_curves of the prepared state.

    hamiltonian picks the frame: "squeezed" evolves the squeezed-frame
    state under the stiff oscillator, "lab" maps the state to the lab
    mode and evolves it under the full driven Hamiltonian.  Raises
    CutoffTooSmall when the initial state, or the state at any time of
    t_grid, holds more than tail_tol in the top Fock level.
    """
    if hamiltonian not in ("squeezed", "lab"):
        raise ValueError("hamiltonian must be 'squeezed' or 'lab'")
    psi0 = prepare_initial(init, n, frame, tail_tol,
                           lab_mode=hamiltonian == "lab")
    if hamiltonian == "lab":
        h = build_hamiltonian_lab(params, n)
    else:
        h = build_hamiltonian_squeezed(frame, params.omega_a,
                                       params.omega_b, n)
    curves = en_curves(h, psi0, t_grid, n, cuts)
    tail = float(curves["tail"].max())
    if tail > tail_tol:
        raise CutoffTooSmall(f"trajectory leaks at N = {n}", tail)
    return curves


@dataclass
class ConvergenceReport:
    """Outcome of a cutoff search: the N accepted and every N tried.

    Each step holds the N tried and, once it is rejected, the reason.
    """

    n: int
    converged: bool
    steps: list[dict] = field(default_factory=list)
    curves: dict[str, np.ndarray] | None = None
    message: str = ""

    def as_dict(self) -> dict:
        return {"n": self.n, "converged": self.converged,
                "steps": self.steps, "message": self.message}


def search_cutoff(attempt, n_start: int, n_max: int, settled=None):
    """The one bounded cutoff search: N = n_start, 2 n_start, ... <= n_max.

    n_start itself is always tried, even above n_max.  attempt(N)
    computes a result at cutoff N and raises CutoffTooSmall when N is
    too small for it.  Without settled the first N that does not raise
    is accepted.  With settled, settled(prev, cur) compares the results
    at N and 2N: it returns None when they agree, and then N and its
    result are accepted; otherwise it returns their deviation, which the
    rejection reason quotes.  Returns (result, report) with report.n the accepted N.  Past n_max
    raises NoConvergence carrying the report; its message names the
    ceiling and each N tried with the reason it was rejected.
    """
    report = ConvergenceReport(n=0, converged=False)
    prev = None
    n = n_start
    while n <= max(n_start, n_max):
        try:
            cur = attempt(n)
        except CutoffTooSmall as exc:
            report.steps.append({"n": n, "rejected": str(exc)})
            prev = None
        else:
            report.steps.append({"n": n})
            if settled is None:
                report.n, report.converged = n, True
                report.message = f"fits at N = {n}"
                return cur, report
            if prev is not None:
                dev = settled(prev, cur)
                if dev is None:
                    report.n, report.converged = n // 2, True
                    report.message = (f"converged at N = {n // 2} "
                                      f"(checked against {n})")
                    return prev, report
                report.steps[-2]["rejected"] = (f"differs from N = {n} "
                                                f"by {dev:.2e}")
            prev = cur
        n *= 2
    tried = "; ".join(
        f"N = {s['n']}: {s.get('rejected', 'not confirmed at a larger N')}"
        for s in report.steps)
    report.message = (f"no cutoff up to the ceiling N = {n_max} passes "
                      f"({tried or 'no N tried'})")
    raise NoConvergence(report.message, report)


def converge_cutoff(params: ModelParams, init: MediatorInit, t_grid,
                    hamiltonian: str = "squeezed", en_tol: float = 1e-4,
                    tail_tol: float = 1e-8, n_start: int = 2,
                    n_max: int = 512) -> ConvergenceReport:
    """Smallest cutoff in a doubling schedule with a stable EN curve.

    Convergence requires the TP-qubit EN curve at N and 2N to agree
    within en_tol everywhere on the grid and the trajectory tail
    occupation to stay below tail_tol.  The report carries the
    trajectory's curves and states at the accepted N.  Raises
    NoConvergence past n_max, which is the expected outcome for strongly
    squeezed frames where the occupation scales like e^{2s}.
    """
    frame = derive_squeezed_frame(params)

    def deviation(prev, cur):
        dev = float(np.max(np.abs(cur["tp_qubit"] - prev["tp_qubit"])))
        return None if dev < en_tol else dev

    curves, report = search_cutoff(
        lambda n: trajectory(params, frame, init, t_grid, n, hamiltonian,
                             tail_tol=tail_tol),
        n_start, n_max, settled=deviation)
    report.curves = curves
    return report


__all__ = [
    "destroy", "coherent_vector", "displacement_matrix", "squeeze_matrix",
    "mediator_vector", "lab_mediator_vector", "displaced_squeezed_vector",
    "fock_overlap", "build_hamiltonian_lab", "build_hamiltonian_squeezed",
    "prepare_initial", "ExactPropagator", "tail_occupation",
    "en_curves", "trajectory", "ConvergenceReport", "search_cutoff",
    "converge_cutoff", "BIPARTITIONS", "TP_QUBIT", "TP_MEDIATOR",
    "QUBIT_MEDIATOR", "SIGMA_Z",
]
