"""Streamfunction-level differential operators and the advection nonlinearity.

The solver state is a scalar streamfunction ``psi``; velocity
``u = (-d_y psi, d_x psi)`` and vorticity ``omega = lap(psi)`` are derived
views. The advection term is evaluated pseudo-spectrally: derivatives in
spectral space, the product ``u . grad(omega)`` pointwise on the physical
grid, then the square 2/3 mask. With dealiased inputs this equals the
exactly truncated convolution, which is what the trilinear identities and
the brute-force oracle in the tests rely on.

The stepper evaluates the advection term on raw ``rfft2`` half-plane
arrays (``nonlinear_half``); ``nse_nonlinear_term`` is the full-lattice
view of the same computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectral import (
    PARSEVAL_FACTOR,
    SpectralField,
    SpectralGrid,
    StreamFunction,
    from_half,
    half_plane,
    mirror_column,
    to_half,
    to_physical,
)

__all__ = [
    "VelocityField",
    "velocity_from_stream",
    "velocity_laplacian",
    "divergence",
    "nse_nonlinear_term",
    "nonlinear_half",
    "trilinear_b",
    "stream_force_term",
    "force_velocity",
]


@dataclass(frozen=True, eq=False)
class VelocityField:
    """Two spectral components of a divergence-free velocity."""

    ux: SpectralField
    uy: SpectralField

    @property
    def grid(self) -> SpectralGrid:
        return self.ux.grid


def velocity_from_stream(psi: StreamFunction) -> VelocityField:
    """u = perp-gradient of psi: ux_k = -i k2 psi_k, uy_k = i k1 psi_k."""
    grid = psi.grid
    ux = SpectralField(grid, -1j * grid.ky * psi.coeffs)
    uy = SpectralField(grid, 1j * grid.kx * psi.coeffs)
    return VelocityField(ux, uy)


def velocity_laplacian(u: VelocityField) -> VelocityField:
    """Componentwise Stokes-operator action: coefficients times |k|^2."""
    ksq = u.grid.ksq
    return VelocityField(
        SpectralField(u.grid, u.ux.coeffs * ksq),
        SpectralField(u.grid, u.uy.coeffs * ksq),
    )


def divergence(u: VelocityField) -> SpectralField:
    """Spectral divergence i k . u_k."""
    grid = u.grid
    return SpectralField(grid, 1j * (grid.kx * u.ux.coeffs + grid.ky * u.uy.coeffs))


def _deriv_phys(field: SpectralField, axis: int) -> np.ndarray:
    k = field.grid.kx if axis == 0 else field.grid.ky
    return np.fft.ifft2(1j * k * field.coeffs, norm="forward").real


@lru_cache(maxsize=8)
def _half_plane_operators(grid: SpectralGrid):
    """Derivative multipliers and the output factor on the half-plane.

    ``i*kx`` and ``-i*kx`` as columns, ``-i*ky`` as a row (they broadcast),
    ``|k|^2`` as a view of the grid's array, and one factor that folds the
    2/3 mask, the inverse laplacian and the zero mean mode together.
    """
    ikx = 1j * grid.kx[:, :1]
    neg_ikx = -ikx
    neg_iky = -1j * half_plane(grid.ky)[:1]
    ksq = half_plane(grid.ksq)
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.where(ksq > 0, half_plane(grid.dealias_mask) / -ksq, 0.0)
    for arr in (ikx, neg_ikx, neg_iky, factor):
        arr.setflags(write=False)
    return ikx, neg_ikx, neg_iky, ksq, factor


def nonlinear_half(psi: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Advection term invlap( u . grad(lap psi) ) of a half-plane array.

    Four ``irfft2`` and one ``rfft2``. The input must be dealiased and
    Hermitian in its column ``ky = 0``; the output is dealiased, mean-free
    and exactly Hermitian there too.
    """
    ikx, neg_ikx, neg_iky, ksq, factor = _half_plane_operators(grid)
    ux = np.fft.irfft2(psi * neg_iky, norm="forward")
    uy = np.fft.irfft2(psi * ikx, norm="forward")
    lap = ksq * psi  # -omega
    wx = np.fft.irfft2(lap * neg_ikx, norm="forward")
    wy = np.fft.irfft2(lap * neg_iky, norm="forward")
    c = np.fft.rfft2(ux * wx + uy * wy, norm="forward")
    c *= factor
    # rfft2 leaves column ky = 0 Hermitian only to roundoff; make it exact
    mirror_column(c[:, 0])
    return c


def nse_nonlinear_term(psi: StreamFunction) -> SpectralField:
    """Streamfunction-level advection: invlap( u . grad(lap psi) ).

    The input must be dealiased and Hermitian; the output is dealiased,
    mean-free and exactly Hermitian.
    """
    return SpectralField(psi.grid, from_half(nonlinear_half(to_half(psi.coeffs), psi.grid)))


def _advect(u: VelocityField, v: VelocityField) -> tuple[np.ndarray, np.ndarray]:
    """(u . grad) v on the physical grid."""
    ux, uy = to_physical(u.ux), to_physical(u.uy)
    ax = ux * _deriv_phys(v.ux, 0) + uy * _deriv_phys(v.ux, 1)
    ay = ux * _deriv_phys(v.uy, 0) + uy * _deriv_phys(v.uy, 1)
    return ax, ay


def trilinear_b(u: VelocityField, v: VelocityField, w: VelocityField) -> float:
    """Advection form <(u.grad)v, w> = integral ((u.grad)v).w dx.

    Diagnostic only. For dealiased inputs the grid quadrature of the
    triple product is exact, so the skew-symmetry and enstrophy
    identities hold to roundoff.
    """
    ax, ay = _advect(u, v)
    wx, wy = to_physical(w.ux), to_physical(w.uy)
    total = np.sum(ax * wx + ay * wy)
    n = u.grid.resolution
    return PARSEVAL_FACTOR**2 * float(total) / (n * n)


def stream_force_term(f: SpectralField) -> SpectralField:
    """Streamfunction-level forcing invlap(perp-div f) of the force field.

    A force field's coefficients are the amplitude profile of a
    divergence-free (curl) force whose Sobolev norms equal the field's
    (see the forcing module); the induced streamfunction source is then
    the profile divided by |k|.
    """
    kmag = f.grid.kmag
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(kmag > 0, 1.0 / kmag, 0.0)
    return SpectralField(f.grid, f.coeffs * inv)


def force_velocity(f: SpectralField) -> VelocityField:
    """Velocity-space components of the force a field represents."""
    return velocity_from_stream(stream_force_term(f))
