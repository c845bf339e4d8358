import numpy as np
import pytest

import twinflow as tf
from twinflow.fieldops import nonlinear_half
from twinflow.spectral import from_half, to_half


def random_psi(grid, rng, decay=3.0, scale=1.0):
    """Random dealiased mean-free streamfunction with a decaying spectrum."""
    phys = rng.standard_normal(grid.shape)
    fld = tf.field_from_physical(grid, phys)
    shaped = tf.SpectralField(grid, scale * fld.coeffs * (1.0 + grid.kmag) ** (-decay))
    return tf.dealias(shaped)


def nonlinear_full(psi):
    """The stepper's advection term (``nonlinear_half``) of a dealiased,
    Hermitian field, rebuilt on the full lattice."""
    return from_half(nonlinear_half(to_half(psi.coeffs), psi.grid))


def velocity_norm(vel, n=0):
    """Componentwise Sobolev norm of a velocity field."""
    return float(np.hypot(tf.norm_hn(vel.ux, n), tf.norm_hn(vel.uy, n)))


@pytest.fixture
def grid64():
    return tf.SpectralGrid(64)


@pytest.fixture
def grid32():
    return tf.SpectralGrid(32)


@pytest.fixture
def rng():
    return np.random.default_rng(2026)
