"""Closed-form branch dynamics of the TP-qubit-mediator system.

In the squeezed frame the Hamiltonian is diagonal in the joint spin basis,
so each of the four spin configurations drives the mediator along its own
circular phase-space orbit.  Writing lambda = sigma_a g_a_s + sigma_b g_b_s
for the configuration-dependent drive, the propagator factorizes exactly
(the Magnus series terminates at second order) into a conditional
displacement and a conditional phase::

    alpha_t = (e^{-i omega_s t} - 1) / omega_s
    branch displacement  = -lambda * conj(alpha_t)
    branch phase         = +lambda^2 (t - sin(omega_s t)/omega_s) / omega_s

so the TP-qubit pair accumulates phi = (2 g_a_s g_b_s / omega_s) *
(t - sin(omega_s t)/omega_s) between aligned and anti-aligned sectors.
At the decoupling times t_n = 2 pi n / omega_s every orbit closes,
the mediator factors out, and EN(t_n) = max(0, log2(1 + |sin(2 g_eff
t_n)|)) regardless of the mediator's initial state.

Away from t_n the two-spin coherences are weighted by overlaps of
displaced squeezed coherent states D(a_i) S(xi) |alpha0>, evaluated in
closed form below.  Qubit dephasing at rate gamma multiplies every
coherence between |0> and |1> by e^{-gamma t}; an optional TP rate
gamma_tp acts the same way on the |R>,|L> coherences.

Everything here is unit-agnostic: times and rates only enter through
products, so the same code serves SI frames and dimensionless ones.
Times, frame couplings and dephasing rates may be broadcastable arrays,
so one cell, a time grid and a grid of cells run the same code.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .negativity import log_negativity_from_partial_transpose
from .params import SqueezedFrame

# Slot order |R,0>, |R,1>, |L,0>, |L,1>: TP and qubit index per slot, and
# spin signs with sigma_a^z = |L><L| - |R><R|, sigma_b^z = |1><1| - |0><0|.
_TP = np.array([0, 0, 1, 1])
_QUBIT = np.array([0, 1, 0, 1])
_SIGMA_A = 2.0 * _TP - 1.0
_SIGMA_B = 2.0 * _QUBIT - 1.0
_SIGMA_AB = _SIGMA_A * _SIGMA_B
# 1 on the entries that dephasing damps: coherences between different
# qubit (TP) states.
_QUBIT_COHERENCE = (_QUBIT[:, None] != _QUBIT).astype(float)
_TP_COHERENCE = (_TP[:, None] != _TP).astype(float)
# Upper entries (i, j) of the qubit-transposed matrix.  Transposing the
# qubit swaps its indices, so entry ((A1, B1), (A2, B2)) holds the
# coherence between ket slot (A1, B2) and bra slot (A2, B1).
_I, _J = np.triu_indices(4, 1)
_KET = 2 * _TP[_I] + _QUBIT[_J]
_BRA = 2 * _TP[_J] + _QUBIT[_I]
# the largest squeezing magnitude whose cosh and sinh are finite floats
XI_MAG_MAX = math.acosh(sys.float_info.max)


@dataclass(frozen=True)
class MediatorInit:
    """Initial mediator state D-free: S(xi) |alpha0> in the squeezed mode.

    xi = xi_mag * e^{i theta}; xi_mag = None tracks the frame squeezing
    parameter s, which is the natural choice when the preparation uses
    the same drive that creates the frame.
    """

    alpha0: complex = 1.0 + 0.0j
    xi_mag: float | None = None
    theta: float = math.pi

    def __post_init__(self):
        if self.xi_mag is None:
            return
        if self.xi_mag < 0:
            raise ValueError("xi_mag must be non-negative; use theta for "
                             "the squeezing phase")
        if not self.xi_mag <= XI_MAG_MAX:  # NaN included
            raise ValueError(f"xi_mag must be at most {XI_MAG_MAX:.6f}, "
                             "where cosh(xi_mag) reaches the largest float")

    def xi(self, frame: SqueezedFrame | None = None) -> complex:
        mag = self.xi_mag
        if mag is None:
            if frame is None:
                raise ValueError("xi_mag = None needs a frame to resolve")
            mag = frame.s
        return mag * cmath.exp(1j * self.theta)


@dataclass(frozen=True)
class DephasingBlock:
    gamma: float = 0.0
    gamma_tp: float = 0.0

    def __post_init__(self):
        if np.less(self.gamma, 0).any() or np.less(self.gamma_tp, 0).any():
            raise ValueError("dephasing rates must be non-negative")


@dataclass(frozen=True)
class BranchState:
    """Per-configuration mediator data at times t.

    alpha_t has the shape of t, phi that of t broadcast with the couplings;
    displacements add a last axis over the four slots, in slot order.
    """

    t: np.ndarray
    alpha_t: np.ndarray
    phi: np.ndarray
    displacements: np.ndarray


def branch_state(frame: SqueezedFrame, t) -> BranchState:
    """Conditional displacements and phases after evolving for time t."""
    t = np.asarray(t, float)
    ws = frame.omega_s
    wt = ws * t
    alpha_t = (np.exp(-1j * wt) - 1.0) / ws
    phi = (2.0 * frame.g_a_s * frame.g_b_s / ws) * (t - np.sin(wt) / ws)
    # displacement -lambda conj(alpha_t), lambda = sigma_a g_a_s + sigma_b g_b_s
    lam = np.multiply.outer(frame.g_a_s, _SIGMA_A) \
        + np.multiply.outer(frame.g_b_s, _SIGMA_B)
    return BranchState(t, alpha_t, phi, -lam * np.conj(alpha_t)[..., None])


@np.errstate(over="ignore", invalid="ignore")
def _overlap(beta, alpha0: complex, xi: complex, weyl=0.0):
    """<a_i, zeta | a_j, zeta> with |a, zeta> = D(a) S(xi) |alpha0>.

    Composing the displacements gives the Weyl phase e^{i weyl}, weyl =
    Im(conj(a_i) a_j), and the net displacement beta = a_j - a_i; pulling
    beta through the squeeze maps it to beta' = beta cosh|xi| + conj(beta)
    e^{i arg xi} sinh|xi|, and the coherent-state expectation of D(beta'),
    e^{-|beta'|^2/2 + 2i Im(beta' conj(alpha0))}, closes the formula.
    Its terms are added scaled by a power of two, exactly, so no inf - inf;
    an infinite |beta'|^2 gives the limit, 0.  Broadcasts over beta, weyl.
    """
    mag = abs(xi)
    if mag:
        e = math.frexp(math.cosh(mag))[1] - 1  # 2^-e cosh|xi| in [1, 2)
        beta = (beta * math.ldexp(math.cosh(mag), -e) + np.conj(beta)
                * (xi / mag * math.ldexp(math.sinh(mag), -e))) * 2.0 ** e
    phase = weyl + 2.0 * (beta * alpha0.conjugate()).imag
    norm = np.abs(beta) ** 2
    return np.where(np.isinf(norm), 0.0, np.exp(-0.5 * norm + 1j * phase))


def displaced_overlap(a_i: complex, a_j: complex, init: MediatorInit,
                      frame: SqueezedFrame | None = None) -> complex:
    """Overlap of two displaced copies of the initial mediator state.

    |result| <= 1 with equality iff a_i == a_j.
    """
    a_i, a_j = complex(a_i), complex(a_j)
    return complex(_overlap(a_j - a_i, complex(init.alpha0), init.xi(frame),
                            (a_i.conjugate() * a_j).imag))


def dephasing_mask(t, gamma, gamma_tp=0.0) -> np.ndarray:
    """Decay factors of the 4x4 slot-basis entries, shape (..., 4, 4)
    for t, gamma and gamma_tp broadcast together.

    Phase damping in the energy basis multiplies each coherence between
    different qubit states by e^{-gamma t} and each one between different
    TP states by e^{-gamma_tp t}.  The pattern is symmetric in the qubit
    indices, so it damps a matrix and its qubit partial transpose alike.
    """
    t, gamma, gamma_tp = (np.asarray(x, float)[..., None, None]
                          for x in (t, gamma, gamma_tp))
    return np.exp((gamma * _QUBIT_COHERENCE + gamma_tp * _TP_COHERENCE) * -t)


def partial_transpose_matrix(frame: SqueezedFrame, init: MediatorInit,
                             t, gamma=0.0, gamma_tp=0.0) -> np.ndarray:
    """Qubit-transposed TP-qubit density matrix at each time of t.

    t, the frame couplings and the rates broadcast together; the shape
    is theirs + (4, 4), basis order |R,0>, |R,1>, |L,0>, |L,1>.  Each
    matrix is exactly Hermitian with unit trace and every diagonal entry
    exactly 1/4 (the spins start in balanced superpositions).  gamma
    damps qubit coherences, gamma_tp damps TP coherences.  The free spin
    phases e^{-i omega sigma^z t} are left out: they act as a local
    unitary and cannot change EN.
    """
    bs = branch_state(frame, t)
    coef = np.exp(1j * (bs.phi[..., None] * _SIGMA_AB))
    # displacements -lambda conj(alpha_t) have a Weyl phase of exactly 0
    beta = bs.displacements[..., _KET] - bs.displacements[..., _BRA]
    upper = 0.25 * coef[..., _KET] * np.conj(coef[..., _BRA]) \
        * _overlap(beta, complex(init.alpha0), init.xi(frame))
    m = np.full(upper.shape[:-1] + (4, 4), 0.25, complex)
    m[..., _I, _J] = upper
    m[..., _J, _I] = np.conj(upper)
    # the mask is real, symmetric and 1 on the diagonal
    return m * dephasing_mask(bs.t, gamma, gamma_tp)


def en_at_decoupling(g_eff: float, t_n: float) -> float:
    """EN at a mediator decoupling time: max(0, log2(1 + |sin(2 g_eff t)|))."""
    return max(0.0, math.log2(1.0 + abs(math.sin(2.0 * g_eff * t_n))))


def en_timeseries(frame: SqueezedFrame, init: MediatorInit,
                  t_grid, gamma: float = 0.0,
                  gamma_tp: float = 0.0) -> np.ndarray:
    """TP-qubit EN at each time of t_grid from the closed-form matrix."""
    return log_negativity_from_partial_transpose(partial_transpose_matrix(
        frame, init, np.asarray(t_grid, float), gamma, gamma_tp))


__all__ = [
    "MediatorInit", "DephasingBlock", "BranchState", "branch_state",
    "displaced_overlap", "partial_transpose_matrix", "dephasing_mask",
    "en_at_decoupling", "en_timeseries",
]
