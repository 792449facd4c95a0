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
eigenvectors, up to P: `ExactPropagator` solves one of each such pair,
tridiagonal blocks by LAPACK's divide and conquer `dstevd`, and evolves
both blocks of a pair in that one real eigenbasis with real products.
Given a tail tolerance, it solves the pairs largest |coupling| first and
stops once one pair alone leaks past it, since all four blocks hold more.
D(alpha) and S(xi) are applied by `ladder_exp`, to a vector or a stack
of them with one z per row; both exponentiate the same truncated
matrices a dense `expm` would.

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
NoConvergence is the only way the oracle gives up; `search_rows` runs
a batch of rows through it, each taken at the first N where it fits
(the tuples of `fock_overlap`).  One run at a fixed N, in the lab or the
squeezed frame, is `trajectory`.  scipy, needed by this oracle alone,
loads on the first `expm` or `eig_banded` call.
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
    """scipy's eig_banded; a lower tridiagonal band goes straight to
    LAPACK's divide and conquer dstevd, with the same eigenpairs."""
    if not (lower and len(band) == 2):
        from scipy.linalg import eig_banded as scipy_eig_banded
        return scipy_eig_banded(band, lower=lower)
    from scipy.linalg.lapack import dstevd
    d, e = np.asarray_chkfinite(band, float)
    w, v, info = dstevd(d, e[:max(len(e) - 1, 1)])
    if info:
        raise np.linalg.LinAlgError(f"dstevd failed with info = {info}")
    return w, v


def destroy(n: int) -> np.ndarray:
    """Truncated annihilation operator."""
    if n < 1:
        raise DimensionMismatch("cutoff must be >= 1")
    return np.diag(np.sqrt(np.arange(1.0, n)), 1).astype(complex)


def coherent_vector(alpha, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Truncated coherent amplitudes and the probability mass cut off, for
    one alpha or a row for each of an array of them."""
    alpha = np.asarray(alpha, complex)[..., None]
    steps = np.empty(alpha.shape[:-1] + (n,), complex)
    steps[..., :1] = np.exp(-0.5 * np.abs(alpha) ** 2)
    steps[..., 1:] = alpha / np.sqrt(np.arange(1.0, n))
    v = np.multiply.accumulate(steps, axis=-1)  # v[k] = v[k-1] alpha/sqrt(k)
    return v, np.maximum(0.0, 1.0 - np.sum(v.real ** 2 + v.imag ** 2, -1))


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


def _by_real(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x @ m for a complex (K, N) stack x and a real matrix m, as one real
    product of the stacked real and imaginary parts."""
    y = np.concatenate((x.real, x.imag)) @ m
    return y[:len(x)] + 1j * y[len(x):]


def ladder_exp(z, k: int, vec: np.ndarray) -> np.ndarray:
    """exp(z a^dag^k - z* a^k) @ vec on the cutoff N = vec.shape[-1]: D(z)
    for k = 1, S(-2z) for k = 2, with one z per row of a (K, N) vec.  With
    E = diag((-i z/|z|)^(m // k)) the generator is E (i|z| B) E^dag,
    B = U diag(w) U^T of `_ladder_modes`."""
    vec = np.asarray(vec, complex)
    x = vec.reshape(-1, vec.shape[-1]).copy()
    z = np.asarray(z, complex).reshape(-1)
    live = np.abs(z) >= np.finfo(float).tiny  # z/|z| is no phase below it
    if live.any():
        w, u = _ladder_modes(x.shape[1], k)
        mag = np.abs(z[live])[:, None]
        e = (-1j * z[live, None] / mag) ** (np.arange(x.shape[1]) // k)
        y = np.exp(1j * mag * w) * _by_real(e.conj() * x[live], u)
        x[live] = e * _by_real(y, u.T)
    return x.reshape(vec.shape)


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
    """vec, an (N,) vector or a (T, B, N) stack of blocks, unless its top
    two Fock levels hold more than tail_tol (at some time)."""
    edge = float(np.max(np.sum(np.atleast_2d(_edge(vec)), -1)))
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


def displaced_squeezed_vector(shifts, inits, n: int,
                              frame: SqueezedFrame | None = None,
                              tail_tol: float = 1e-10):
    """D(shift) S(xi) |alpha0> on the cutoff, a row per init of inits and
    a (rows, S) array of shifts: the (rows, S, N) stack and, per row, the
    CutoffTooSmall that rejects N for it, or None when the row fits."""
    shifts = np.asarray(shifts, complex)
    coh, tail = coherent_vector([i.alpha0 for i in inits], n)
    vec = ladder_exp([-0.5 * i.xi(frame) for i in inits], 2, coh)
    vecs = ladder_exp(shifts.reshape(-1), 1,
                      np.repeat(vec, shifts.shape[1], axis=0))
    vecs = vecs.reshape(shifts.shape + (n,))
    why = [CutoffTooSmall(f"coherent amplitude {i.alpha0} does not fit in "
                          f"N = {n}", t) if t > tail_tol else
           next((CutoffTooSmall(f"displaced state leaks at N = {n}", e)
                 for e in edge if e > tail_tol), None)
           for i, t, edge in zip(inits, tail, _edge(vecs))]
    return vecs, why


def fock_overlap(a_i, a_j, init, frame: SqueezedFrame | None = None,
                 tail_tol: float = 1e-10, n_start: int = 64,
                 n_max: int = 1024):
    """Inner product <a_i, zeta | a_j, zeta> by brute truncation, for one
    tuple or, as an array, for equal-length sequences of a_i, a_j and
    init.  Each tuple is taken at the first N of one `search_rows` where
    both its vectors pass the tail criterion."""
    one = isinstance(init, MediatorInit)
    inits = [init] if one else list(init)
    shifts = np.column_stack((np.ravel(a_i), np.ravel(a_j)))

    def attempt(n: int, todo: list[int]):
        vecs, why = displaced_squeezed_vector(
            shifts[todo], [inits[r] for r in todo], n, frame, tail_tol)
        return np.sum(vecs[:, 0].conj() * vecs[:, 1], -1), why

    out = np.array(search_rows(attempt, len(inits), n_start, n_max))
    return complex(out[0]) if one else out


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
    """Eigenpairs of the sigma^z blocks of the band storage h.  The parity
    P = diag((-1)^m) negates a block's subdiagonal, so a block equal to
    another up to that sign and a constant on the diagonal shares its
    eigensolve: w plus that constant and v, or P v.  `pairs` groups the
    blocks by shared solve, largest |coupling| first, each as (block,
    energy offset, takes P v); `solve(k)` solves group k's first block."""

    def __init__(self, h: np.ndarray):
        h = np.asarray(h)
        if h.ndim != 2 or h.shape[1] != 3 or h.shape[0] % 4 or not len(h):
            raise DimensionMismatch(
                f"Hamiltonian band storage must be (4N, 3), got {h.shape}")
        width = 3 if h[:, 2].any() else 2  # tridiagonal blocks solve faster
        self._bands = h.reshape(4, -1, 3).transpose(0, 2, 1)[:, :width]
        diag, sub, pair = h.reshape(4, -1, 3).transpose(2, 0, 1)
        # a constant added to a diagonal is exact only to its rounding
        tol = 4.0 * np.finfo(float).eps * np.max(np.abs(diag))
        same_sub = (sub[:, None] == sub).all(-1)
        partners = ((np.ptp(diag[:, None] - diag, axis=-1) <= tol)
                    & (pair[:, None] == pair).all(-1)
                    & (same_sub | (sub[:, None] == -sub).all(-1)))
        groups = {}  # by the block solved for them
        for j in np.argsort(-np.abs(sub).max(1), kind="stable"):
            i = next((i for i in groups if partners[j, i]), j)
            groups.setdefault(i, []).append(
                (j, diag[j, 0] - diag[i, 0], not same_sub[j, i]))
        self.pairs = list(groups.values())

    def solve(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(w, v) of group k, of shapes (N,) and (N, N)."""
        try:
            return eig_banded(self._bands[self.pairs[k][0][0]], lower=True)
        except np.linalg.LinAlgError as exc:
            raise EigenFailure(str(exc)) from exc

    def evolve_grid(self, psi0: np.ndarray, t_grid,
                    tail_tol: float = math.inf) -> np.ndarray:
        """Stack of evolved states, one row per time.  Each group evolves in
        its one real eigenbasis, each block's offset as one phase per time.
        CutoffTooSmall when the top two Fock levels hold more than tail_tol
        at some time, raised before the next solve once one group does."""
        ts = np.asarray(t_grid, float).reshape(-1)
        x = np.asarray(psi0, complex).reshape(4, -1)
        n = x.shape[1]
        parity = (-1.0) ** np.arange(n)
        out = np.empty((ts.size, 4, n), complex)
        for k, group in enumerate(self.pairs):
            blocks, offset, flip = map(np.array, zip(*group))
            w, v = self.solve(k)
            c = _by_real(np.where(flip[:, None], parity * x[blocks],
                                  x[blocks]), v)
            y = np.exp(-1j * ts[:, None, None] * w) * c
            y = _by_real(y.reshape(-1, n), v.T).reshape(ts.size, -1, n)
            y *= np.exp(-1j * ts[:, None] * offset)[:, :, None]
            _fits(y, n, tail_tol, "evolved state")
            out[:, blocks] = np.where(flip[:, None], parity * y, y)
        return _fits(out, n, tail_tol, "evolved state").reshape(ts.size, 4 * n)


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


def search_rows(attempt, rows: int, n_start: int, n_max: int) -> list:
    """`search_cutoff` for a batch of rows, each taken at the first N
    where it fits: attempt(N, todo) gives the results of the rows todo
    and, per row, the CutoffTooSmall that rejects N for it, or None."""
    out, todo = {}, list(range(rows))

    def step(n: int) -> None:
        nonlocal todo
        results, why = attempt(n, todo)
        out.update((r, x) for r, x, w in zip(todo, results, why) if w is None)
        todo = [r for r, w in zip(todo, why) if w is not None]
        if todo:
            raise next(w for w in why if w is not None)

    search_cutoff(step, n_start, n_max)
    return [out[r] for r in range(rows)]


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
    "ConvergenceReport", "search_cutoff", "search_rows", "converge_cutoff",
    "BIPARTITIONS", "SIGMA_Z",
]
