"""Shared fixtures: reference parameter sets used across the suite."""

import numpy as np
import pytest

from gravent import DimensionMismatch, MediatorInit, ModelParams, \
    derive_squeezed_frame, load_preset, \
    log_negativity_from_partial_transpose, partial_transpose
from gravent.fock import SIGMA_Z, expm, prepare_initial


def destroy(n: int) -> np.ndarray:
    """Truncated annihilation operator."""
    if n < 1:
        raise DimensionMismatch("cutoff must be >= 1")
    return np.diag(np.sqrt(np.arange(1.0, n)), 1).astype(complex)


def log_negativity(rho, dims, subsystem):
    """EN of `rho` across the cut separating `subsystem` from the rest."""
    return log_negativity_from_partial_transpose(
        partial_transpose(rho, dims, subsystem))


def local_rotation(m, t, omega_a, omega_b):
    """Apply the free spin phases e^{-i (omega_a sigma_a + omega_b sigma_b) t}
    to a qubit-transposed TP-qubit matrix (slots R0, R1, L0, L1): undo the
    transposition, rotate the state, transpose back."""
    sigma_a = np.array([-1.0, -1.0, 1.0, 1.0])
    sigma_b = np.array([-1.0, 1.0, -1.0, 1.0])
    u = np.exp(-1j * (omega_a * sigma_a + omega_b * sigma_b) * t)
    rho = partial_transpose(m, (2, 2), 1)
    return partial_transpose(u[:, None] * rho * u.conj(), (2, 2), 1)


def prepare_one(init, n, params=None, tail_tol=1e-8, lab_mode=False):
    """The 4N initial state of a one-row `prepare_initial` batch, or its
    CutoffTooSmall raised."""
    [psi], [why] = prepare_initial([init], n, [params], tail_tol, [lab_mode])
    if why is not None:
        raise why
    return psi


def small_validation(monkeypatch):
    """Shrink validate's fixed policy to a unit-test run: four overlap
    tuples, two partial-transpose frames, cutoff searches from N = 16 and
    seven times per EN curve."""
    from gravent import validate
    for name, value in (("SEED", 5), ("OVERLAP_SAMPLES", 4),
                        ("PT_SAMPLES", 2), ("FOCK_N", 16), ("T_POINTS", 7)):
        monkeypatch.setattr(validate, name, value)


def displacement_matrix(alpha, n):
    """Dense D(alpha) on the cutoff: the reference for `ladder_exp`."""
    a = destroy(n)
    return expm(alpha * a.conj().T - np.conj(alpha) * a)


def squeeze_matrix(xi, n):
    """Dense exp[(conj(xi) a^2 - xi a^dag^2) / 2], unitary on the cutoff."""
    a = destroy(n)
    ad = a.conj().T
    return expm(0.5 * (np.conj(xi) * (a @ a) - xi * (ad @ ad)))


def _kron3(u, v, w):
    return np.kron(np.kron(u, v), w)


def kron_hamiltonian_lab(params, n):
    """Dense lab-frame Hamiltonian on 2 x 2 x N, built term by term from
    Kronecker products: the reference for the oracle's band storage."""
    a = destroy(n)
    ad = a.conj().T
    x = a + ad
    i2, inn = np.eye(2), np.eye(n)
    return params.omega_a * _kron3(SIGMA_Z, i2, inn) \
        + params.omega_b * _kron3(i2, SIGMA_Z, inn) \
        + (params.omega_tilde - 2.0 * params.F) * _kron3(i2, i2, ad @ a) \
        - params.F * _kron3(i2, i2, a @ a + ad @ ad) \
        + params.epsilon * _kron3(i2, i2, x) \
        + params.g_a * _kron3(SIGMA_Z, i2, x) \
        + params.g_b * _kron3(i2, SIGMA_Z, x)


def kron_hamiltonian_squeezed(params, n):
    """Dense squeezed-frame Hamiltonian from Kronecker products."""
    frame = derive_squeezed_frame(params)
    a = destroy(n)
    x = a + a.conj().T
    i2, inn = np.eye(2), np.eye(n)
    return params.omega_a * _kron3(SIGMA_Z, i2, inn) \
        + params.omega_b * _kron3(i2, SIGMA_Z, inn) \
        + frame.omega_s * _kron3(i2, i2, a.conj().T @ a) \
        + frame.g_a_s * _kron3(SIGMA_Z, i2, x) \
        + frame.g_b_s * _kron3(i2, SIGMA_Z, x)


def band_to_dense(h):
    """The dense 4N x 4N matrix of the oracle's (4N, 3) band storage:
    four symmetric blocks on the diagonal, h[j, k] = H[j + k, j]."""
    blocks = h.reshape(4, -1, 3)
    n = blocks.shape[1]
    dense = np.zeros((4 * n, 4 * n))
    for b, block in enumerate(blocks):
        for k in range(3):
            for j in range(n - k):
                dense[b * n + j + k, b * n + j] = block[j, k]
                dense[b * n + j, b * n + j + k] = block[j, k]
    return dense


@pytest.fixture(scope="session")
def bench_params():
    """Undriven benchmark system: g_a = 1/48, g_b = 1, F = 0."""
    return ModelParams.dimensionless(g_a=1.0 / 48.0, g_b=1.0, F=0.0)


@pytest.fixture(scope="session")
def bench_frame(bench_params):
    return derive_squeezed_frame(bench_params)


@pytest.fixture(scope="session")
def coherent_init():
    """Plain coherent mediator state, no extra squeezing."""
    return MediatorInit(alpha0=1.0 + 0.0j, xi_mag=0.0)


@pytest.fixture(scope="session")
def tracking_init():
    """Mediator state whose squeezing follows the frame."""
    return MediatorInit(alpha0=1.0 + 0.0j)


@pytest.fixture(scope="session")
def sec5_config():
    return load_preset("sec5-feasibility")
