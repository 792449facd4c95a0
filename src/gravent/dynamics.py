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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .negativity import log_negativity_from_partial_transpose
from .params import SqueezedFrame

# Spin signs per basis slot. Slot order |R,0>, |R,1>, |L,0>, |L,1>;
# sigma_a^z = |L><L| - |R><R|, sigma_b^z = |1><1| - |0><0|.
SLOT_LABELS = ("R0", "R1", "L0", "L1")
_SIGMA_A = (-1.0, -1.0, +1.0, +1.0)
_SIGMA_B = (-1.0, +1.0, -1.0, +1.0)


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
        if self.xi_mag is not None and self.xi_mag < 0:
            raise ValueError("xi_mag must be non-negative; use theta for "
                             "the squeezing phase")

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
        if self.gamma < 0 or self.gamma_tp < 0:
            raise ValueError("dephasing rates must be non-negative")


@dataclass(frozen=True)
class BranchState:
    """Per-configuration mediator data at one instant.

    Branch order follows the evolved-state listing (R,0), (L,1), (R,1),
    (L,0): the first pair shares the aligned conditional phase +phi, the
    second pair the anti-aligned phase -phi.
    """

    t: float
    alpha_t: complex
    phi: float
    Phi: np.ndarray          # residual drive phases, zero for real couplings
    alpha_k: np.ndarray      # branch displacements, order as above
    frame: SqueezedFrame = field(repr=False)
    init: MediatorInit = field(repr=False)

    _SLOT_TO_BRANCH = (0, 2, 3, 1)   # slot (R0,R1,L0,L1) -> branch index

    def slot_displacements(self) -> np.ndarray:
        return self.alpha_k[list(self._SLOT_TO_BRANCH)]

    def slot_coefficients(self) -> np.ndarray:
        """Branch phase factors per slot, e^{i(phi sigma_a sigma_b + Phi)}."""
        phase = np.empty(4, complex)
        for slot in range(4):
            k = self._SLOT_TO_BRANCH[slot]
            ss = _SIGMA_A[slot] * _SIGMA_B[slot]
            phase[slot] = cmath.exp(1j * (self.phi * ss + self.Phi[k]))
        return phase


def branch_state(frame: SqueezedFrame, init: MediatorInit,
                 t: float) -> BranchState:
    """Conditional displacements and phases after evolving for time t."""
    ws = frame.omega_s
    wt = ws * t
    alpha_t = (cmath.exp(-1j * wt) - 1.0) / ws
    phi = (2.0 * frame.g_a_s * frame.g_b_s / ws) * (t - math.sin(wt) / ws)

    ca = frame.g_a_s * np.conj(alpha_t)
    cb = frame.g_b_s * np.conj(alpha_t)
    # identically zero for real couplings; kept for structural fidelity
    Phi = np.array([np.imag(ca * np.conj(cb)), np.imag(ca * np.conj(cb)),
                    np.imag(-ca * np.conj(cb)), np.imag(-ca * np.conj(cb))])

    # displacement is -lambda conj(alpha_t) with lambda = -(ga+gb), +(ga+gb),
    # -(ga-gb), +(ga-gb) for the branches (R,0), (L,1), (R,1), (L,0)
    plus = (frame.g_a_s + frame.g_b_s) * np.conj(alpha_t)
    minus = (frame.g_a_s - frame.g_b_s) * np.conj(alpha_t)
    alpha_k = np.array([plus, -plus, minus, -minus])

    return BranchState(t=t, alpha_t=alpha_t, phi=phi, Phi=Phi,
                       alpha_k=alpha_k, frame=frame, init=init)


def _overlap(a_i: complex, a_j: complex, alpha0: complex,
             xi: complex) -> complex:
    """<a_i, zeta | a_j, zeta> with |a, zeta> = D(a) S(xi) |alpha0>.

    Composing the displacements gives a Weyl phase e^{i Im(conj(a_i) a_j)}
    and a net displacement beta = a_j - a_i; pulling beta through the
    squeeze maps it to beta' = beta cosh|xi| + conj(beta) e^{i arg xi}
    sinh|xi|, and the coherent-state expectation of D(beta') closes the
    formula.
    """
    phase = cmath.exp(1j * (np.conj(a_i) * a_j).imag)
    beta = a_j - a_i
    mag = abs(xi)
    if mag == 0.0:
        bp = beta
    else:
        th = cmath.phase(xi)
        bp = beta * math.cosh(mag) \
            + np.conj(beta) * cmath.exp(1j * th) * math.sinh(mag)
    expo = -0.5 * abs(bp) ** 2 + bp * np.conj(alpha0) - np.conj(bp) * alpha0
    return phase * cmath.exp(expo)


def displaced_overlap(a_i: complex, a_j: complex, init: MediatorInit,
                      frame: SqueezedFrame | None = None) -> complex:
    """Overlap of two displaced copies of the initial mediator state.

    |result| <= 1 with equality iff a_i == a_j.
    """
    return _overlap(complex(a_i), complex(a_j), complex(init.alpha0),
                    init.xi(frame))


def partial_transpose_matrix(frame: SqueezedFrame, init: MediatorInit,
                             t: float, gamma: float = 0.0,
                             gamma_tp: float = 0.0,
                             local_rotation: tuple[float, float] | None = None
                             ) -> np.ndarray:
    """Qubit-transposed TP-qubit density matrix at time t.

    Basis order |R,0>, |R,1>, |L,0>, |L,1>.  Hermitian, unit trace, and
    all diagonal entries exactly 1/4 (the spins start in balanced
    superpositions).  gamma damps qubit coherences, gamma_tp damps TP
    coherences.  local_rotation = (omega_a, omega_b) applies the free
    spin phases e^{-i omega sigma^z t}; entanglement is invariant under
    it, which `en_timeseries` relies on by never applying it.
    """
    bs = branch_state(frame, init, t)
    disp = bs.slot_displacements()
    coef = bs.slot_coefficients()
    if local_rotation is not None:
        wa, wb = local_rotation
        extra = np.array([
            cmath.exp(-1j * (wa * _SIGMA_A[s] + wb * _SIGMA_B[s]) * t)
            for s in range(4)])
        coef = coef * extra

    alpha0 = complex(init.alpha0)
    xi = init.xi(frame)
    decay_b = math.exp(-gamma * t) if gamma else 1.0
    decay_a = math.exp(-gamma_tp * t) if gamma_tp else 1.0

    m = np.empty((4, 4), complex)
    for i in range(4):
        m[i, i] = 0.25
        for j in range(i + 1, 4):
            A1, B1 = divmod(i, 2)
            A2, B2 = divmod(j, 2)
            ket = 2 * A1 + B2    # transposing the qubit swaps its indices
            bra = 2 * A2 + B1
            entry = 0.25 * coef[ket] * np.conj(coef[bra]) \
                * _overlap(disp[bra], disp[ket], alpha0, xi)
            if B1 != B2:
                entry *= decay_b
            if A1 != A2:
                entry *= decay_a
            m[i, j] = entry
            m[j, i] = np.conj(entry)
    return m


def apply_dephasing(rho: np.ndarray, t: float, gamma: float,
                    gamma_tp: float = 0.0) -> np.ndarray:
    """Damp spin coherences of a 4x4 TP-qubit matrix (slot basis).

    The model is phase damping in the energy basis, so it commutes with
    partial transposition of the qubit and may be applied before or after
    it.
    """
    out = np.array(rho, dtype=complex, copy=True)
    fb = math.exp(-gamma * t)
    fa = math.exp(-gamma_tp * t)
    for i in range(4):
        for j in range(4):
            A1, B1 = divmod(i, 2)
            A2, B2 = divmod(j, 2)
            if B1 != B2:
                out[i, j] *= fb
            if A1 != A2:
                out[i, j] *= fa
    return out


def en_at_decoupling(g_eff: float, t_n: float) -> float:
    """EN at a mediator decoupling time: max(0, log2(1 + |sin(2 g_eff t)|))."""
    return max(0.0, math.log2(1.0 + abs(math.sin(2.0 * g_eff * t_n))))


def en_timeseries(frame: SqueezedFrame, init: MediatorInit,
                  t_grid, gamma: float = 0.0,
                  gamma_tp: float = 0.0) -> list[tuple[float, float]]:
    """TP-qubit EN along a time grid from the closed-form matrix."""
    out = []
    for t in np.asarray(t_grid, dtype=float):
        m = partial_transpose_matrix(frame, init, float(t), gamma, gamma_tp)
        out.append((float(t), log_negativity_from_partial_transpose(m)))
    return out


__all__ = [
    "MediatorInit", "DephasingBlock", "BranchState", "branch_state",
    "displaced_overlap", "partial_transpose_matrix", "apply_dephasing",
    "en_at_decoupling", "en_timeseries", "SLOT_LABELS",
]
