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

Every entry point takes a batch of rows (`prepare_initial` a lone row
too), and one bounded search over a batch, `search_cutoff`, chooses
every cutoff; its NoConvergence is the only way the oracle gives up.
Its rows are the tuples of `fock_overlap` or, by `converge_cutoff`, the
rows (params, init, t_grid, hamiltonian) of `trajectories`, run at one N
in the lab or the squeezed frame; an attempt returns, never raises, the
CutoffTooSmall of a row whose displaced, prepared or evolved state
leaks.  A frame reaches this module only as the `ModelParams` it is
derived from.  scipy, needed by this oracle alone, loads on the first
`expm` or `eig_banded` call.
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
from .params import ModelParams, derive_squeezed_frame

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


def eig_banded(band: np.ndarray):
    """scipy's eig_banded of a lower band; a tridiagonal one goes straight
    to LAPACK's divide and conquer dstevd, with the same eigenpairs."""
    if len(band) != 2:
        from scipy.linalg import eig_banded as scipy_eig_banded
        return scipy_eig_banded(band, lower=True)
    from scipy.linalg.lapack import dstevd
    d, e = np.asarray_chkfinite(band, float)
    w, v, info = dstevd(d, e[:max(len(e) - 1, 1)])
    if info:
        raise np.linalg.LinAlgError(f"dstevd failed with info = {info}")
    return w, v


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
    w, u = eig_banded(band)
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


def _edge(blocks: np.ndarray) -> np.ndarray:
    """Occupation of the top two Fock levels of (..., N) mediator blocks."""
    return np.sum(np.abs(blocks[..., -2:]) ** 2, axis=-1)


def _fits(vec: np.ndarray, n: int, tail_tol: float, part: str = ""):
    """A (T, B, N) stack of the blocks, named by part, of a trajectory,
    unless their top two Fock levels hold more than tail_tol at a time."""
    edge = float(np.max(np.sum(_edge(vec), -1)))
    if edge > tail_tol:
        raise CutoffTooSmall(f"trajectory leaks at N = {n}{part}", edge)
    return vec


def _squeezed_coherent(inits, frames, n: int, tail_tol: float):
    """S(xi) |alpha0> on the cutoff, a row per init and its frame, and
    per row the CutoffTooSmall when |alpha0> does not fit, or None."""
    coh, tail = coherent_vector([i.alpha0 for i in inits], n)
    # xi, which may need the frame, only of a row whose |alpha0> fits
    vec = ladder_exp([-0.5 * i.xi(f) if t <= tail_tol else 0.0
                      for i, f, t in zip(inits, frames, tail)], 2, coh)
    return vec, [CutoffTooSmall(f"coherent amplitude {i.alpha0} does not "
                                f"fit in N = {n}", t) if t > tail_tol else
                 None for i, t in zip(inits, tail)]


def displaced_squeezed_vector(shifts, inits: list[MediatorInit], n: int,
                              tail_tol: float):
    """D(shift) S(xi) |alpha0> on the cutoff, a row per init of inits and
    a (rows, S) array of shifts: the (rows, S, N) stack and, per row, the
    CutoffTooSmall that rejects N for it, or None when the row fits."""
    shifts = np.asarray(shifts, complex)
    vec, why = _squeezed_coherent(inits, [None] * len(inits), n, tail_tol)
    vecs = ladder_exp(shifts.reshape(-1), 1,
                      np.repeat(vec, shifts.shape[1], axis=0))
    vecs = vecs.reshape(shifts.shape + (n,))
    why = [w or next((CutoffTooSmall(f"displaced state leaks at N = {n}", e)
                      for e in edge if e > tail_tol), None)
           for w, edge in zip(why, _edge(vecs))]
    return vecs, why


def fock_overlap(a_i, a_j, inits: list[MediatorInit], tail_tol: float,
                 n_start: int = 64, n_max: int = 1024) -> np.ndarray:
    """Inner products <a_i, zeta | a_j, zeta> by brute truncation of
    equal-length sequences a_i, a_j and inits, each at the first N of one
    `search_cutoff` where both its vectors pass the tail criterion."""
    shifts = np.column_stack((np.ravel(a_i), np.ravel(a_j)))

    def attempt(n: int, todo: list[int]):
        vecs, why = displaced_squeezed_vector(
            shifts[todo], [inits[r] for r in todo], n, tail_tol)
        return np.sum(vecs[:, 0].conj() * vecs[:, 1], -1), why

    return np.array(search_cutoff(attempt, len(inits), n_start, n_max)[0])


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


def build_hamiltonian_squeezed(params: ModelParams, n: int) -> np.ndarray:
    """Squeezed-frame Hamiltonian: stiff oscillator, boosted couplings."""
    frame = derive_squeezed_frame(params)
    return _spin_blocks(
        n, params.omega_a * _SZ_A + params.omega_b * _SZ_B, frame.omega_s,
        frame.g_a_s * _SZ_A + frame.g_b_s * _SZ_B)


def prepare_initial(inits, n: int, params=None, tail_tol: float = 1e-8,
                    lab_modes=False):
    """(|L> + |R>)/sqrt2 x (|0> + |1>)/sqrt2 x S(xi) |alpha0>, a (rows, 4N)
    stack with a row per init and the params of its frame, and per row
    the CutoffTooSmall that rejects N, or None.  A lab_modes row maps the
    mediator to the lab mode by S(s): one more squeeze, so occupations
    grow like e^{4s}, out of reach deep in the driven regime.  A lone
    init, with one params and lab mode, is one row: its 4N vector, or its
    rejection raised."""
    lone = isinstance(inits, MediatorInit)  # as bench/tests calls it
    if lone:
        inits, params, lab_modes = [inits], [params], [lab_modes]
    if any(lab and p is None for p, lab in zip(params, lab_modes)):
        raise ValueError("lab_mode requires params to derive its frame from")
    frames = [None if p is None else derive_squeezed_frame(p) for p in params]
    vec, why = _squeezed_coherent(inits, frames, n, tail_tol)
    vec = ladder_exp([0.5 * f.s if lab else 0.0
                      for f, lab in zip(frames, lab_modes)], 2, vec)
    why = [w or (CutoffTooSmall(("lab-mode image of the initial state" if lab
                                 else "squeezed state") + f" leaks at N = {n}",
                                e) if e > tail_tol else None)
           for w, lab, e in zip(why, lab_modes, _edge(vec))]
    vec = np.array([v / np.linalg.norm(v) if w is None else v
                    for v, w in zip(vec, why)])
    if lone and why[0]:
        raise why.pop()  # not held in a cycle by this frame
    return np.tile(0.5 * vec[0], 4) if lone else (np.tile(0.5 * vec, 4), why)


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
            return eig_banded(self._bands[self.pairs[k][0][0]])
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
            _fits(y, n, tail_tol, " in one parity group")
            out[:, blocks] = np.where(flip[:, None], parity * y, y)
        return _fits(out, n, tail_tol).reshape(ts.size, 4 * n)


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
              cuts: tuple[str, ...] = ("tp_qubit",),
              tail_tol: float = math.inf) -> dict[str, np.ndarray]:
    """EN along a trajectory for each of cuts, plus the states under
    "states", per time; CutoffTooSmall past tail_tol (`evolve_grid`)."""
    states = ExactPropagator(h).evolve_grid(psi0, t_grid, tail_tol)
    out = {cut: log_negativity_from_partial_transpose(cut_pt(states, n, cut))
           for cut in cuts}
    out["states"] = states
    return out


def trajectories(rows, n: int, cuts: tuple[str, ...], tail_tol: float):
    """Oracle runs at cutoff n of rows (params, init, t_grid, hamiltonian),
    prepared as one batch, each row's frame derived from its params: each
    row's `en_curves`, of its squeezed-frame state under the stiff
    oscillator ("squeezed") or its lab-mode image under the driven
    Hamiltonian ("lab"), and the CutoffTooSmall that rejects n for it,
    from `prepare_initial` or `evolve_grid`, or None.  Rows equal in all
    four, as dephasing variants are, run once: each gets that run's
    rejection and a dict of its own over the same arrays."""
    if any(row[3] not in ("squeezed", "lab") for row in rows):
        raise ValueError("hamiltonian must be 'squeezed' or 'lab'")
    slot = {}  # each distinct row, by value, to its index in distinct
    which = [slot.setdefault((p, i, np.asarray(t, float).tobytes(), h),
                             len(slot)) for p, i, t, h in rows]
    distinct = list(dict(zip(which, rows)).values())
    psi0, why = prepare_initial([row[1] for row in distinct], n,
                                [row[0] for row in distinct], tail_tol,
                                [row[3] == "lab" for row in distinct])
    out = [None] * len(distinct)
    for k, (params, _, t_grid, ham) in enumerate(distinct):
        if why[k] is None:
            build = build_hamiltonian_lab if ham == "lab" else \
                build_hamiltonian_squeezed
            try:
                out[k] = en_curves(build(params, n), psi0[k], t_grid, n, cuts,
                                   tail_tol)
            except CutoffTooSmall as exc:
                # its traceback would pin the evolution's arrays in a cycle
                why[k] = exc.with_traceback(None)
    return [out[j] and dict(out[j]) for j in which], [why[j] for j in which]


TAIL_TOL = 1e-8  # occupation a trajectory's top two Fock levels may hold
EN_CONVERGENCE = 1e-4  # of a TP-qubit EN curve against the one at 2N


@dataclass
class ConvergenceReport:
    """Outcome of a cutoff search: each row's accepted N (0 for none) and
    every N tried, each with the first row still left's rejection, if any."""

    n: list[int]
    steps: list[dict] = field(default_factory=list)


def search_cutoff(attempt, rows: int, n_start: int, n_max: int,
                  settled=None):
    """The one bounded cutoff search, for a batch of rows: N = n_start,
    2 n_start, ... <= n_max, and n_start always, even above n_max.

    attempt(N, todo) returns the results of the rows todo at N and, per
    row, the CutoffTooSmall that rejects N for it or None: the one way a
    row is rejected.  A row is accepted at the first N where it fits or,
    with settled, where settled(prev, cur) of its results at N and 2N
    gives None, not their deviation, which the rejection quotes.
    Returns (results, report), report.n each row's accepted N.  Past
    n_max raises NoConvergence carrying the report; its message names the
    ceiling and each N tried with the first row still left's rejection.
    """
    report = ConvergenceReport(n=[0] * rows)
    out, prev, todo = [None] * rows, [None] * rows, list(range(rows))
    why_at = []  # per N tried, {row: the reason it was rejected there}
    n = n_start
    while n <= max(n_start, n_max):
        results, why = attempt(n, todo)
        report.steps.append({"n": n})
        why_at.append({})
        for r, cur, w in zip(todo, results, why):
            if w is not None:
                why_at[-1][r], prev[r] = str(w), None
            elif settled is None:
                out[r], report.n[r] = cur, n
            elif prev[r] is None:
                prev[r] = cur
            elif (dev := settled(prev[r], cur)) is None:
                out[r], report.n[r] = prev[r], n // 2
            else:
                why_at[-2][r] = f"differs from N = {n} by {dev:.2e}"
                prev[r] = cur
        for step, why in zip(report.steps[-2:], why_at[-2:]):
            if why:
                step["rejected"] = why[min(why)]
        todo = [r for r in todo if not report.n[r]]
        if not todo:
            return out, report
        n *= 2
    tried = "; ".join(
        f"N = {s['n']}: {s.get('rejected', 'not confirmed at a larger N')}"
        for s in report.steps)
    raise NoConvergence(f"no cutoff up to the ceiling N = {n_max} passes "
                        f"({tried})", report)


def converge_cutoff(rows, tail_tol: float, n_start: int, n_max: int,
                    en_tol: float | None = None,
                    cuts: tuple[str, ...] = ("tp_qubit",)):
    """`search_cutoff` over rows (params, init, t_grid, hamiltonian) of
    `trajectories`: each row's run where it first fits tail_tol or, with
    en_tol, where its TP-qubit EN curve also agrees with the one at 2N
    within en_tol at every time, and the report."""

    def attempt(n: int, todo: list[int]):
        return trajectories([rows[r] for r in todo], n, cuts, tail_tol)

    def deviation(prev, cur):
        dev = float(np.max(np.abs(cur["tp_qubit"] - prev["tp_qubit"])))
        return None if dev < en_tol else dev

    return search_cutoff(attempt, len(rows), n_start, n_max,
                         None if en_tol is None else deviation)


__all__ = [
    "coherent_vector", "ladder_exp", "displaced_squeezed_vector",
    "fock_overlap", "build_hamiltonian_lab", "build_hamiltonian_squeezed",
    "prepare_initial", "ExactPropagator", "cut_pt", "en_curves",
    "trajectories",
    "ConvergenceReport", "search_cutoff", "converge_cutoff",
    "BIPARTITIONS", "SIGMA_Z", "TAIL_TOL", "EN_CONVERGENCE",
]
