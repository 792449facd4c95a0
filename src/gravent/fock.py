"""Fock-space oracle for the TP-qubit-mediator system.

Brute-force reference implementation on the truncated 2 x 2 x N product
space: build the truncated Hamiltonian, diagonalize it once, evolve along
any time grid, reduce to any bipartition.  Nothing here reuses the
closed-form branch solution, so agreement with the analytic module is a
genuine cross-check rather than a tautology.

Both Hamiltonians are diagonal in sigma_a^z x sigma_b^z, so they are
built as the four mediator blocks, one per spin configuration, in real
band storage (4N, 3): h[j, k] = H[j + k, j] within a block, tridiagonal
in the squeezed frame and pentadiagonal in the lab frame.  The parity P =
(-1)^(a^dag a) keeps a^dag a and a^2 and negates a + a^dag, so blocks with
opposite couplings share eigenvalues, up to their energy offset, and
eigenvectors, up to P: `ExactPropagator` solves one of each such pair.
D(alpha) and S(xi) are applied by `ladder_exp`; both exponentiate the
same truncated matrices a dense `expm` would.

Basis ordering: index = tp * (2 * N) + qubit * N + n with tp in {0: |R>,
1: |L>}, qubit in {0: |0>, 1: |1>}, n the Fock level.  `cut_pt` reduces
a stack of states to any bipartition at once: the TP-qubit matrix is the
4 x 4 Gram matrix of the four spin blocks, in the |R,0>, |R,1>, |L,0>,
|L,1> order of the analytic module; the mediator cuts first map the
mediator onto the span of those blocks by a batched QR, a local isometry
that leaves EN unchanged, so no cut is larger than 8 x 8.

The truncation budget is what limits this oracle: a frame squeezing
parameter s enlarges the initial occupation like e^{2s} (and like e^{4s}
when mapping squeezed-frame states to the lab mode), so lab-frame checks
are only sensible for s up to about 1 and the strongly driven regimes
must be validated in the squeezed frame or in closed form.

Every cutoff is chosen by one bounded search, `search_cutoff`, whose
NoConvergence is the only way the oracle gives up.  One run at a fixed
N, in the lab or the squeezed frame, is `trajectory`.  scipy, needed by
this oracle alone, loads on the first `expm` or `eig_banded` call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import MediatorInit
from .errors import CutoffTooSmall, DimensionMismatch, EigenFailure, \
    NoConvergence
from .negativity import log_negativity_from_partial_transpose
from .params import ModelParams, SqueezedFrame, derive_squeezed_frame

# sigma_a^z = |L><L| - |R><R| in basis [R, L]; sigma_b^z likewise in [0, 1]
SIGMA_Z = np.diag([-1.0, 1.0])
# sigma_a^z and sigma_b^z on the spin blocks |R,0>, |R,1>, |L,0>, |L,1>
_SZ_A, _SZ_B = np.repeat(np.diag(SIGMA_Z), 2), np.tile(np.diag(SIGMA_Z), 2)

# each cut as axes of a (T, tp, qubit, mediator) stack of states: the side
# kept, the side transposed and the subsystem traced out
BIPARTITIONS = {"tp_qubit": (1, 2, 3), "tp_mediator": (1, 3, 2),
                "qubit_mediator": (2, 3, 1)}


def expm(a: np.ndarray) -> np.ndarray:
    from scipy.linalg import expm as scipy_expm
    return scipy_expm(a)


def eig_banded(band: np.ndarray, lower: bool = False):
    from scipy.linalg import eig_banded as scipy_eig_banded
    return scipy_eig_banded(band, lower=lower)


def destroy(n: int) -> np.ndarray:
    """Truncated annihilation operator."""
    if n < 1:
        raise DimensionMismatch("cutoff must be >= 1")
    return np.diag(np.sqrt(np.arange(1.0, n)), 1).astype(complex)


def coherent_vector(alpha: complex, n: int) -> tuple[np.ndarray, float]:
    """Truncated coherent amplitudes and the probability mass cut off."""
    steps = np.empty(n, complex)  # v[k] = v[k - 1] * alpha / sqrt(k)
    steps[0] = math.exp(-0.5 * abs(alpha) ** 2)
    steps[1:] = alpha / np.sqrt(np.arange(1.0, n))
    v = np.multiply.accumulate(steps)
    tail = max(0.0, 1.0 - float(np.vdot(v, v).real))
    return v, tail


@functools.lru_cache(maxsize=16)
def _ladder_modes(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only eigenpairs (w, U) of the real symmetric N x N band matrix
    B with B[m + k, m] = sqrt((m+1)...(m+k))."""
    band = np.zeros((k + 1, n))
    m = np.arange(1.0, n - k + 1)
    band[k, :m.size] = np.sqrt(math.prod(m + i for i in range(k)))
    w, u = eig_banded(band, lower=True)
    w.flags.writeable = u.flags.writeable = False
    return w, u


def ladder_exp(z: complex, k: int, vec: np.ndarray) -> np.ndarray:
    """exp(z a^dag^k - z* a^k) @ vec on the cutoff N = len(vec): D(z) for
    k = 1, S(-2z) for k = 2.  With E = diag((-i z/|z|)^(m // k)) the
    generator is E (i|z| B) E^dag, B = U diag(w) U^T of `_ladder_modes`."""
    vec = np.asarray(vec, complex)
    if abs(z) < np.finfo(float).tiny:  # z / |z| is no phase for subnormals
        return vec.copy()
    w, u = _ladder_modes(len(vec), k)
    e = (-1j * z / abs(z)) ** (np.arange(len(vec)) // k)
    x = e.conj() * vec
    x = np.exp(1j * abs(z) * w) * (u.T @ x.real + 1j * (u.T @ x.imag))
    return e * (u @ x.real + 1j * (u @ x.imag))


def _squeezed_coherent(init: MediatorInit, n: int,
                       frame: SqueezedFrame | None,
                       tail_tol: float) -> np.ndarray:
    """S(xi) |alpha0> on the cutoff, once |alpha0> itself fits."""
    coh, tail = coherent_vector(complex(init.alpha0), n)
    if tail > tail_tol:
        raise CutoffTooSmall(
            f"coherent amplitude {init.alpha0} does not fit in N = {n}", tail)
    return ladder_exp(-0.5 * init.xi(frame), 2, coh)


def _edge(blocks: np.ndarray) -> np.ndarray:
    """Occupation of the top two Fock levels of (..., N) mediator blocks."""
    return np.sum(np.abs(blocks[..., -2:]) ** 2, axis=-1)


def _fits(vec: np.ndarray, n: int, tail_tol: float, what: str) -> np.ndarray:
    """vec, unless its top two Fock levels hold more than tail_tol."""
    edge = float(_edge(vec))
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

    Mapping it back through the Bogoliubov rotation S(s) between the two
    modes costs one more squeeze, so occupations grow like e^{4s}: this
    step rules out lab-frame oracles deep in the driven regime."""
    vec = _squeezed_coherent(init, n, frame, tail_tol)
    vec = _fits(ladder_exp(0.5 * frame.s, 2, vec), n, tail_tol,
                "lab-mode image of the initial state")
    return vec / np.linalg.norm(vec)


def displaced_squeezed_vector(shifts, init: MediatorInit, n: int,
                              frame: SqueezedFrame | None = None,
                              tail_tol: float = 1e-10) -> list[np.ndarray]:
    """D(shift) S(xi) |alpha0> on the cutoff for each of shifts."""
    vec = _squeezed_coherent(init, n, frame, tail_tol)
    return [_fits(ladder_exp(shift, 1, vec), n, tail_tol, "displaced state")
            for shift in shifts]


def fock_overlap(a_i: complex, a_j: complex, init: MediatorInit,
                 frame: SqueezedFrame | None = None,
                 tail_tol: float = 1e-10, n_start: int = 64,
                 n_max: int = 1024) -> complex:
    """Inner product <a_i, zeta | a_j, zeta> by brute truncation, the
    cutoff doubling until both vectors pass the tail criterion."""
    def attempt(n: int) -> complex:
        vi, vj = displaced_squeezed_vector((a_i, a_j), init, n, frame,
                                           tail_tol)
        return complex(np.vdot(vi, vj))

    overlap, _ = search_cutoff(attempt, n_start, n_max)
    return overlap


def _spin_blocks(n: int, spin_energy: np.ndarray, level: float,
                 coupling: np.ndarray, pair: float = 0.0) -> np.ndarray:
    """Band storage (4N, 3) of the sigma^z blocks spin_energy + level
    a^dag a + coupling (a + a^dag) + pair (a^2 + a^dag^2), with one
    spin_energy and coupling per block."""
    m = np.arange(n, dtype=float)
    h = np.zeros((4, n, 3))
    h[:, :, 0] = spin_energy[:, None] + level * m
    h[:, :-1, 1] = coupling[:, None] * np.sqrt(m[1:])
    h[:, :-2, 2] = pair * np.sqrt(m[1:-1] * m[2:])
    return h.reshape(4 * n, 3)


def build_hamiltonian_lab(params: ModelParams, n: int) -> np.ndarray:
    """Lab-frame Hamiltonian on 2 x 2 x N, including the linear drive."""
    return _spin_blocks(
        n, params.omega_a * _SZ_A + params.omega_b * _SZ_B,
        params.omega_tilde - 2.0 * params.F,
        params.epsilon + params.g_a * _SZ_A + params.g_b * _SZ_B, -params.F)


def build_hamiltonian_squeezed(frame: SqueezedFrame, omega_a: float,
                               omega_b: float, n: int) -> np.ndarray:
    """Squeezed-frame Hamiltonian: stiff oscillator, boosted couplings."""
    return _spin_blocks(n, omega_a * _SZ_A + omega_b * _SZ_B, frame.omega_s,
                        frame.g_a_s * _SZ_A + frame.g_b_s * _SZ_B)


def prepare_initial(init: MediatorInit, n: int,
                    frame: SqueezedFrame | None = None,
                    tail_tol: float = 1e-8,
                    lab_mode: bool = False) -> np.ndarray:
    """(|L> + |R>)/sqrt2 x (|0> + |1>)/sqrt2 x mediator, as a 4N vector."""
    if lab_mode:
        if frame is None:
            raise ValueError("lab_mode requires the frame")
        med = lab_mediator_vector(init, frame, n, tail_tol)
    else:
        med = mediator_vector(init, n, frame, tail_tol)
    return np.tile(0.5 * med, 4)


class ExactPropagator:
    """Eigenpairs of each sigma^z block of the band storage h, reused
    across a time grid: w of shape (4, N), v of shape (4, N, N).  The
    parity P = diag((-1)^m) negates a block's subdiagonal, so a block equal
    to a solved one up to that sign and a constant on the diagonal takes
    the solved w plus that constant and v, or P v, with no eigensolve."""

    def __init__(self, h: np.ndarray):
        h = np.asarray(h)
        if h.ndim != 2 or h.shape[1] != 3 or h.shape[0] % 4 or not len(h):
            raise DimensionMismatch(
                f"Hamiltonian band storage must be (4N, 3), got {h.shape}")
        width = 3 if h[:, 2].any() else 2  # tridiagonal blocks solve faster
        blocks = h.reshape(4, -1, 3).transpose(0, 2, 1)
        # a constant added to a diagonal is exact only to its rounding
        tol = 4.0 * np.finfo(float).eps * np.max(np.abs(blocks[:, 0]))
        parity = (-1.0) ** np.arange(blocks.shape[2])[:, None]
        eig, w, v = {}, [], []
        for j, (diag, sub, pair) in enumerate(blocks):
            i = next((i for i in eig if np.ptp(diag - blocks[i, 0]) <= tol
                      and np.array_equal(pair, blocks[i, 2])
                      and (np.array_equal(sub, blocks[i, 1])
                           or np.array_equal(sub, -blocks[i, 1]))), j)
            if i == j:
                try:
                    eig[j] = eig_banded(blocks[j, :width], lower=True)
                except np.linalg.LinAlgError as exc:
                    raise EigenFailure(str(exc)) from exc
            w.append(eig[i][0] + (diag[0] - blocks[i, 0, 0]))
            flip = not np.array_equal(sub, blocks[i, 1])
            v.append(parity * eig[i][1] if flip else eig[i][1])
        self.w, self.v = np.stack(w), np.stack(v)

    def evolve_grid(self, psi0: np.ndarray, t_grid) -> np.ndarray:
        """Stack of evolved states, one row per time."""
        n = self.w.shape[1]
        c = np.asarray(psi0, complex).reshape(4, 1, n) @ self.v
        ts = np.asarray(t_grid, float).reshape(-1)
        phases = np.exp(-1j * ts[:, None] * self.w[:, None, :])
        states = (phases * c) @ self.v.transpose(0, 2, 1)
        return states.transpose(1, 0, 2).reshape(ts.size, 4 * n)


def cut_pt(states: np.ndarray, n: int, cut: str) -> np.ndarray:
    """(T, d, d) stack of the reduced matrices of 4N-vector states, one per
    row, across a cut of BIPARTITIONS, its second side transposed."""
    x = states.reshape(len(states), 4, n)
    if cut != "tp_qubit":  # mediator coordinates on its support: R of QR
        x = np.linalg.qr(x.swapaxes(1, 2), mode="r").swapaxes(1, 2)
    psi = x.reshape(len(x), 2, 2, x.shape[2]).transpose(0, *BIPARTITIONS[cut])
    d = psi.shape[2]
    m = psi.reshape(len(x), 2 * d, psi.shape[3])
    rho = (m @ m.conj().swapaxes(1, 2)).reshape(-1, 2, d, 2, d)
    return rho.swapaxes(2, 4).reshape(len(x), 2 * d, 2 * d)


def en_curves(h: np.ndarray, psi0: np.ndarray, t_grid, n: int,
              cuts: tuple[str, ...] = ("tp_qubit",)) -> dict[str, np.ndarray]:
    """EN along a trajectory for each of cuts, plus the states under
    "states" and their top-two-level occupation under "tail", per time."""
    states = ExactPropagator(h).evolve_grid(psi0, t_grid)
    out = {cut: log_negativity_from_partial_transpose(cut_pt(states, n, cut))
           for cut in cuts}
    out["tail"] = _edge(states.reshape(-1, 4, n)).sum(1)
    out["states"] = states
    return out


def trajectory(params: ModelParams, frame: SqueezedFrame,
               init: MediatorInit, t_grid, n: int,
               hamiltonian: str = "squeezed",
               cuts: tuple[str, ...] = ("tp_qubit",),
               tail_tol: float = 1e-8) -> dict[str, np.ndarray]:
    """One oracle run at cutoff n: the en_curves of the prepared state.

    hamiltonian picks the frame: "squeezed" evolves the squeezed-frame
    state under the stiff oscillator, "lab" maps the state to the lab
    mode and evolves it under the full driven Hamiltonian.  Raises
    CutoffTooSmall when the initial state, or the state at any time of
    t_grid, holds more than tail_tol in the top two Fock levels.
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
    """Outcome of a cutoff search: the N accepted and every N tried, each
    step with the reason it was rejected, if it was."""

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
    rejection reason quotes.  Returns (result, report) with report.n the
    accepted N.  Past n_max raises NoConvergence carrying the report; its
    message names the ceiling and each N tried with the reason it was
    rejected.
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
                    hamiltonian: str = "squeezed",
                    en_tol: float | None = 1e-4,
                    tail_tol: float = 1e-8, n_start: int = 2,
                    n_max: int = 512) -> ConvergenceReport:
    """Smallest cutoff in a doubling schedule with a stable EN curve.

    The TP-qubit EN curves at N and 2N must agree within en_tol on the
    whole grid (with en_tol None the first N that fits is accepted) and
    the trajectory tail stay below tail_tol.  The report carries the
    curves and states at the accepted N.  Past n_max raises
    NoConvergence, the expected outcome for strongly squeezed frames
    where the occupation scales like e^{2s}.
    """
    frame = derive_squeezed_frame(params)

    def deviation(prev, cur):
        dev = float(np.max(np.abs(cur["tp_qubit"] - prev["tp_qubit"])))
        return None if dev < en_tol else dev

    curves, report = search_cutoff(
        lambda n: trajectory(params, frame, init, t_grid, n, hamiltonian,
                             tail_tol=tail_tol),
        n_start, n_max, settled=None if en_tol is None else deviation)
    report.curves = curves
    return report


__all__ = [
    "destroy", "coherent_vector", "ladder_exp", "mediator_vector",
    "lab_mediator_vector", "displaced_squeezed_vector", "fock_overlap",
    "build_hamiltonian_lab", "build_hamiltonian_squeezed", "prepare_initial",
    "ExactPropagator", "cut_pt", "en_curves", "trajectory",
    "ConvergenceReport", "search_cutoff", "converge_cutoff", "BIPARTITIONS",
    "SIGMA_Z",
]
