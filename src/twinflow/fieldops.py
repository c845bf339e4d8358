"""Streamfunction-level differential operators and the advection nonlinearity.

The solver state is a scalar streamfunction ``psi``; velocity
``u = (-d_y psi, d_x psi)`` and vorticity ``omega = lap(psi)`` are derived
views. The advection term is evaluated pseudo-spectrally: derivatives in
spectral space, the product ``u . grad(omega)`` pointwise on the physical
grid, then the square 2/3 mask. With dealiased inputs this equals the
exactly truncated convolution, which is what the trilinear identities and
the brute-force oracle in the tests rely on.

The stepper evaluates the advection term on raw ``rfft2`` half-plane
arrays (``nonlinear_half``), in Basdevant's form of the advection term (Basdevant 1983; Canuto et al., *Spectral Methods*, 2006): for
``u = (u, v)`` divergence-free,

    u . grad(omega) = (d_x^2 - d_y^2)(u v) + d_x d_y (v^2 - u^2),

so a call makes two inverse transforms (``u``, ``v``) and two forward
ones (``u v``, ``v^2 - u^2``). Each transform runs as its two axis passes,
and the complex pass covers only the columns ``ky <= grid.dealias_kmax``
that the 2/3 mask keeps.
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
    mirror_column,
    to_physical,
)

__all__ = [
    "VelocityField",
    "velocity_from_stream",
    "velocity_laplacian",
    "divergence",
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
    """Derivative multipliers and output factors on the dealiased columns.

    The half-plane columns ``ky = 0 .. grid.dealias_kmax`` are the ones the
    2/3 mask keeps; there are ``m`` of them. ``i*kx`` is a column and
    ``-i*ky`` a row of them (they broadcast). ``fa = (kx^2 - ky^2)/|k|^2``
    and ``fb = kx*ky/|k|^2``, both times the mask and zero at ``k = 0``,
    map the transforms of ``u v`` and ``v^2 - u^2`` to the output.
    """
    m = grid.dealias_kmax + 1
    kx = grid.kx[:, :m]
    ky = grid.ky[:, :m]
    ksq = grid.ksq[:, :m]
    ikx = 1j * kx[:, :1]
    neg_iky = -1j * ky[:1]
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(ksq > 0, grid.dealias_mask[:, :m] / ksq, 0.0)
    fa = (kx * kx - ky * ky) * scale
    fb = (kx * ky) * scale
    for arr in (ikx, neg_iky, fa, fb):
        arr.setflags(write=False)
    return m, ikx, neg_iky, fa, fb


def nonlinear_half(psi: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Advection term invlap( u . grad(lap psi) ) of a half-plane array.

    Two inverse and two forward transforms, with the complex pass on the
    dealiased columns only. The input must be dealiased and Hermitian in
    its column ``ky = 0``; the output is dealiased (zero in the columns
    ``ky > grid.dealias_kmax``), mean-free and exactly Hermitian in column
    ``ky = 0``.
    """
    m, ikx, neg_iky, fa, fb = _half_plane_operators(grid)
    n = grid.resolution
    low = psi[:, :m]
    # inverse: complex pass on the kept columns; irfft zero-pads the rest
    u = np.fft.irfft(np.fft.ifft(low * neg_iky, axis=0, norm="forward"),
                     n=n, axis=1, norm="forward")
    v = np.fft.irfft(np.fft.ifft(low * ikx, axis=0, norm="forward"),
                     n=n, axis=1, norm="forward")
    uv = np.fft.fft(np.fft.rfft(u * v, axis=1, norm="forward")[:, :m],
                    axis=0, norm="forward")
    d = np.fft.fft(np.fft.rfft(v * v - u * u, axis=1, norm="forward")[:, :m],
                   axis=0, norm="forward")
    uv *= fa
    d *= fb
    c = np.zeros(psi.shape, dtype=np.complex128)
    np.add(uv, d, out=c[:, :m])
    # the forward pass leaves column ky = 0 Hermitian only to roundoff;
    # make it exact
    mirror_column(c[:, 0])
    return c


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
