"""Experimental inputs -> Hamiltonian coefficients -> squeezed frame.

The system is a two-level test particle (TP) held in a double well at
separation d0, gravitating with a levitated mediator sphere a distance d
away, plus a qubit coupled to the same mediator through a magnetic-field
gradient.  A charged tip at distance r0 drives the mediator at twice its
trap frequency, which is equivalent to a static two-phonon term of
strength F after moving to the rotating frame.  `PhysicalSetup` takes
that drive as r0, as the gap delta = omega_tilde - 4F or as F, and
resolves it once into omega_tilde, the gap and the tip distance.

Expanding gravity to first order in d0/d and the Coulomb interaction to
second order in the mediator displacement gives a lab-frame Hamiltonian
fixed by seven rates::

    H/hbar = omega_a sigma_a^z + omega_b sigma_b^z
             + (omega_tilde - 2 F) a^dag a - F (a^2 + a^dag^2)
             + epsilon (a + a^dag)
             + (g_a sigma_a^z + g_b sigma_b^z)(a + a^dag)

with sigma_a^z = |L><L| - |R><R| and sigma_b^z = |1><1| - |0><0|.

A Bogoliubov transformation a = cosh(s) a_s + sinh(s) a_s^dag removes the
two-phonon term.  The mediator softens to omega_s = sqrt(omega_tilde *
(omega_tilde - 4F)) while both spin couplings are boosted by e^s with
s = (1/4) ln[omega_tilde / (omega_tilde - 4F)]; the closer the drive gets
to the instability at 4F = omega_tilde, the larger the boost.

All frequencies are angular (rad/s in SI mode).  Dimensionless mode sets
omega_tilde = 1 and measures every other rate in the same unit.

Every check of the package, whether an oracle cross-check, a regime
ratio or a published reference, is one `Check`: a figure of at most a
tolerance, or a skip with a note.  `Report` groups one leg's checks with
the base figures they were evaluated at.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field

from .constants import G, HBAR, K_E
from .errors import NegativeSquaredFrequency, UnstableFrame

# Relative mismatch allowed between an explicit chi and gamma_e * B_grad
# when both are supplied.
CHI_CONSISTENCY_RTOL = 1e-9

# Minimum surface separation below which Casimir forces would rival
# gravity for the masses of interest.
CASIMIR_THRESHOLD = 157e-6  # m
COULOMB_RATIO_LIMIT = 0.01  # of delta_x / r0 in `regime_report`
GRAVITY_RATIO_LIMIT = 0.05  # of (d0/2 + delta_x) / d in `regime_report`


@dataclass(frozen=True)
class PhysicalSetup:
    """Raw experimental inputs, SI units.

    Parameters
    ----------
    m_a, m_c:
        TP and mediator masses (kg).
    d:
        Center separation between the TP double well and the mediator (m).
    d0:
        Distance between the two TP wells (m). Must satisfy d0 << d for
        the linearized gravitational coupling to hold.
    omega_c:
        Bare mediator trap frequency (rad/s).
    omega_b:
        Qubit splitting (rad/s). Local, never affects entanglement.
    omega_a0:
        Bare TP splitting (rad/s); the gravitational well asymmetry adds
        to it.
    Q1, Q2:
        Mediator charge (>= 0) and driving-tip charge (<= 0), C. Zero
        either one to switch the two-phonon drive off.
    r0, delta, F:
        The two-phonon drive, given by exactly one of these whenever both
        charges are set and by none otherwise: the mediator-tip distance
        (m), the gap delta = omega_tilde - 4F to the instability, or F
        itself (rad/s).  A gap of interest can sit ten orders of
        magnitude below omega_tilde, where r0 cannot be typed in decimal
        form, so delta or F is kept exact and the tip distance that
        realizes it is back-solved.
    chi:
        Qubit-mediator force gradient (rad s^-1 m^-1), given directly ...
    B_grad, gamma_e:
        ... or as a magnetic gradient (T/m) times a gyromagnetic ratio
        (rad s^-1 T^-1). Supplying both forms cross-checks them.
    radius_a, radius_c:
        Physical radii used only for the surface-separation check (m).
    """

    m_a: float
    m_c: float
    d: float
    d0: float
    omega_c: float
    omega_b: float
    omega_a0: float = 0.0
    Q1: float = 0.0
    Q2: float = 0.0
    r0: float | None = None
    delta: float | None = None
    F: float | None = None
    chi: float | None = None
    B_grad: float | None = None
    gamma_e: float | None = None
    radius_a: float = 0.0
    radius_c: float = 0.0

    def __post_init__(self):
        for name in ("m_a", "m_c", "d", "d0", "omega_c", "omega_b"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.omega_a0 < 0:
            raise ValueError("omega_a0 must be non-negative")
        if self.d0 >= self.d:
            raise ValueError("d0 must be smaller than d: the linearized "
                             "gravitational coupling breaks down")
        if self.d0 / self.d >= 0.1:
            warnings.warn(
                f"d0/d = {self.d0 / self.d:.3g} >= 0.1; first-order "
                "expansion of the gravitational potential is marginal",
                stacklevel=2)
        if self.Q1 < 0:
            raise ValueError("Q1 must be non-negative (mediator charge)")
        if self.Q2 > 0:
            raise ValueError("Q2 must be non-positive (tip charge)")
        n_drive = sum(v is not None for v in (self.r0, self.delta, self.F))
        if self.coulomb_active and n_drive != 1:
            raise ValueError("give exactly one of r0, delta, F when both "
                             "charges are set")
        if not self.coulomb_active and n_drive:
            raise ValueError("r0/delta/F need both charges nonzero")
        if self.r0 is not None and self.r0 <= 0:
            raise ValueError("r0 must be positive")
        if self.chi is None and (self.B_grad is None or self.gamma_e is None):
            raise ValueError("qubit coupling underdetermined: give chi or "
                             "both B_grad and gamma_e")
        if (self.chi is not None and self.B_grad is not None
                and self.gamma_e is not None):
            alt = self.gamma_e * self.B_grad
            if abs(self.chi - alt) > CHI_CONSISTENCY_RTOL * abs(self.chi):
                raise ValueError(
                    f"chi = {self.chi!r} inconsistent with gamma_e * B_grad "
                    f"= {alt!r} beyond {CHI_CONSISTENCY_RTOL:g} relative")
        derive_model_params(self)  # rejects a drive or trap outside the model

    @property
    def coulomb_active(self) -> bool:
        return self.Q1 > 0 and self.Q2 < 0

    def drive(self) -> tuple[float, float, float | None]:
        """(omega_tilde, gap omega_tilde - 4F, tip distance or None).

        From r0 the gap follows through F = k_e |Q1 Q2| / (2 m_c omega_c
        r0^3); from delta or F it is kept exact and the tip distance is
        back-solved.  Without a drive, or at F = 0, there is no tip.
        """
        wt2 = self.omega_c ** 2 - 2.0 * G * self.m_a / self.d ** 3
        if wt2 <= 0:
            raise NegativeSquaredFrequency(
                f"omega_c^2 - 2 G m_a / d^3 = {wt2:.6g} <= 0")
        omega_tilde = math.sqrt(wt2)
        coulomb = K_E * abs(self.Q1 * self.Q2)
        stiffness = 2.0 * self.m_c * self.omega_c
        if self.r0 is not None:
            F = coulomb / (stiffness * self.r0 ** 3)
            return omega_tilde, drive_gap(omega_tilde, F=F), self.r0
        if self.delta is None and self.F is None:
            return omega_tilde, omega_tilde, None
        gap = drive_gap(omega_tilde, self.F, self.delta)
        F = (omega_tilde - gap) / 4.0
        r0 = (coulomb / (stiffness * F)) ** (1.0 / 3.0) if F > 0 else None
        return omega_tilde, gap, r0

    @property
    def tip_distance(self) -> float | None:
        """r0, given or back-solved from the drive; None without one."""
        return self.drive()[2]

    @property
    def chi_value(self) -> float:
        if self.chi is not None:
            return self.chi
        return self.gamma_e * self.B_grad


DRIVE_KEYS = ("F", "delta", "s")  # the coordinates a drive is given in


def drive_gap(omega_tilde: float, F: float | None = None,
              delta: float | None = None, s: float | None = None) -> float:
    """Gap delta = omega_tilde - 4F from exactly one of F, delta, s.

    delta is kept as given and s maps to omega_tilde e^{-4s}, so neither
    loses digits to the cancellation in omega_tilde - 4F.
    """
    if (F is None) + (delta is None) + (s is None) != 2:
        raise ValueError("give exactly one of F, delta, s")
    if F is not None:
        return omega_tilde - 4.0 * F
    if s is None:
        return delta
    if s < 0:
        raise ValueError("s must be non-negative")
    return omega_tilde * math.exp(-4.0 * s)


@dataclass(frozen=True)
class ModelParams:
    """Lab-frame Hamiltonian coefficients, the drive as its gap delta."""

    omega_a: float
    omega_b: float
    omega_tilde: float
    delta: float
    epsilon: float
    g_a: float
    g_b: float

    def __post_init__(self):
        if self.omega_tilde <= 0:
            raise ValueError("omega_tilde must be positive")
        if self.delta > self.omega_tilde:
            raise ValueError("F must be non-negative (delta <= omega_tilde)")
        if self.delta <= 0:
            raise UnstableFrame(
                f"omega_tilde - 4F = {self.delta:.6g} <= 0: the driven "
                "potential is inverted and no stable squeezed frame exists")

    @property
    def F(self) -> float:
        """Two-phonon drive strength, (omega_tilde - delta) / 4."""
        return (self.omega_tilde - self.delta) / 4.0

    @classmethod
    def dimensionless(cls, g_a: float, g_b: float, *, F: float | None = None,
                      delta: float | None = None, s: float | None = None,
                      omega_a: float = 0.0, omega_b: float = 0.0,
                      epsilon: float = 0.0) -> "ModelParams":
        """Constructor with omega_tilde = 1 and one of F, delta, s."""
        return cls(omega_a=omega_a, omega_b=omega_b, omega_tilde=1.0,
                   delta=drive_gap(1.0, F, delta, s), epsilon=epsilon,
                   g_a=g_a, g_b=g_b)


@dataclass(frozen=True)
class SqueezedFrame:
    """Frame with the two-phonon drive absorbed into the mode."""

    s: float          # squeezing parameter of the transformation
    omega_s: float    # softened mediator frequency
    g_a_s: float      # boosted TP coupling, g_a * e^s (signed)
    g_b_s: float      # boosted qubit coupling, g_b * e^s
    g_eff: float      # 2 g_a_s g_b_s / omega_s, conditional-phase rate
    t_period: float   # 2 pi / omega_s, first decoupling time
    omega_tilde: float

    def decoupling_time(self, n: int = 1) -> float:
        """n-th time at which the mediator returns to its initial orbit."""
        return 2.0 * math.pi * n / self.omega_s


def derive_model_params(setup: PhysicalSetup) -> ModelParams:
    """Hamiltonian coefficients from raw experimental inputs.

    The drive is resolved once, by `PhysicalSetup.drive`; a tip, when
    there is one, adds its Coulomb force to the static force epsilon.

    Raises NegativeSquaredFrequency if gravitational softening overwhelms
    the trap, UnstableFrame if the Coulomb drive exceeds the inversion
    threshold omega_tilde / 4.
    """
    omega_tilde, delta, r0 = setup.drive()
    omega_a = setup.omega_a0 + G * setup.m_a * setup.m_c * setup.d0 / (
        2.0 * HBAR * setup.d ** 2)

    eps_coulomb = 0.0 if r0 is None \
        else K_E * abs(setup.Q1 * setup.Q2) / r0 ** 2
    epsilon = (G * setup.m_a * setup.m_c / setup.d ** 2 + eps_coulomb) \
        * math.sqrt(1.0 / (2.0 * HBAR * setup.m_c * setup.omega_c))

    g_a = -(G * setup.m_a * setup.d0 / setup.d ** 3) \
        * math.sqrt(setup.m_c / (2.0 * omega_tilde * HBAR))
    g_b = setup.chi_value * math.sqrt(HBAR / (2.0 * setup.m_c * setup.omega_c))
    return ModelParams(omega_a=omega_a, omega_b=setup.omega_b,
                       omega_tilde=omega_tilde, delta=delta, epsilon=epsilon,
                       g_a=g_a, g_b=g_b)


def derive_squeezed_frame(params: ModelParams) -> SqueezedFrame:
    """Bogoliubov frame of the driven mediator.

    s grows logarithmically as the gap delta = omega_tilde - 4F closes;
    omega_s = delta e^{2s} shrinks like e^{-2s}.
    """
    delta = params.delta
    if delta == params.omega_tilde:
        # identity transformation, kept exact
        s, boost, omega_s = 0.0, 1.0, params.omega_tilde
    else:
        s = 0.25 * math.log(params.omega_tilde / delta)
        boost = math.exp(s)
        omega_s = math.sqrt(params.omega_tilde * delta)
    g_a_s = params.g_a * boost
    g_b_s = params.g_b * boost
    return SqueezedFrame(s=s, omega_s=omega_s, g_a_s=g_a_s, g_b_s=g_b_s,
                         g_eff=2.0 * g_a_s * g_b_s / omega_s,
                         t_period=2.0 * math.pi / omega_s,
                         omega_tilde=params.omega_tilde)


@dataclass(frozen=True)
class Check:
    """One check of any leg: a figure of at most a tolerance, or a skip."""

    name: str
    passed: bool
    skipped: bool = False
    max_dev: float | None = None
    tol: float | None = None
    note: str = ""

    @classmethod
    def bound(cls, name: str, max_dev: float, tol: float,
              note: str = "") -> "Check":
        """Passes when max_dev <= tol; a NaN figure fails."""
        return cls(name, bool(max_dev <= tol), max_dev=max_dev, tol=tol,
                   note=note)

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Report:
    """Checks of one leg and the base figures they were evaluated at."""

    checks: tuple[Check, ...]
    base: dict = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(c.passed or c.skipped for c in self.checks)

    def as_dict(self) -> dict:
        return {"all_pass": self.all_pass, "base": self.base,
                "checks": [c.as_dict() for c in self.checks]}


def regime_report(setup: PhysicalSetup, frame: SqueezedFrame) -> Report:
    """Check that the squeezed mediator stays inside every expansion.

    The squeezing enlarges the mediator position spread to
    delta_x = sqrt(hbar / (m_c omega_tilde)) e^s, the report's one base
    figure, which must stay small against the tip distance, given or
    back-solved (when there is a tip), and,
    together with the well offset d0/2, against the gravitational
    distance d.  The Casimir floor must stay below the surface separation.
    Each check is a ratio of at most its limit.
    """
    delta_x = math.sqrt(HBAR / (setup.m_c * frame.omega_tilde)) \
        * math.exp(frame.s)
    checks = []
    r0 = setup.tip_distance
    if r0 is not None:
        checks.append(Check.bound(
            "coulomb_expansion", delta_x / r0, COULOMB_RATIO_LIMIT,
            "delta_x / r0 (second-order Coulomb expansion)"))
    checks.append(Check.bound(
        "gravity_expansion", (setup.d0 / 2.0 + delta_x) / setup.d,
        GRAVITY_RATIO_LIMIT, "(d0/2 + delta_x) / d (linearized gravity)"))
    separation = setup.d - setup.d0 / 2.0 - setup.radius_a - setup.radius_c
    checks.append(Check.bound(
        "casimir_separation",
        CASIMIR_THRESHOLD / separation if separation > 0 else math.inf, 1.0,
        f"Casimir floor {CASIMIR_THRESHOLD:.3e} m / minimum surface "
        f"separation {separation:.3e} m"))
    return Report(tuple(checks), {"delta_x": delta_x})


__all__ = [
    "DRIVE_KEYS", "PhysicalSetup", "ModelParams", "SqueezedFrame",
    "Check", "Report", "drive_gap", "derive_model_params",
    "derive_squeezed_frame", "regime_report", "CASIMIR_THRESHOLD",
    "COULOMB_RATIO_LIMIT", "GRAVITY_RATIO_LIMIT",
]
