"""Shared fixtures: reference parameter sets used across the suite."""

import numpy as np
import pytest

from gravent import MediatorInit, ModelParams, derive_squeezed_frame, \
    load_preset, partial_transpose


def local_rotation(m, t, omega_a, omega_b):
    """Apply the free spin phases e^{-i (omega_a sigma_a + omega_b sigma_b) t}
    to a qubit-transposed TP-qubit matrix (slots R0, R1, L0, L1): undo the
    transposition, rotate the state, transpose back."""
    sigma_a = np.array([-1.0, -1.0, 1.0, 1.0])
    sigma_b = np.array([-1.0, 1.0, -1.0, 1.0])
    u = np.exp(-1j * (omega_a * sigma_a + omega_b * sigma_b) * t)
    rho = partial_transpose(m, (2, 2), 1)
    return partial_transpose(u[:, None] * rho * u.conj(), (2, 2), 1)


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
